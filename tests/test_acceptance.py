"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
single ACCEPTANCE pass/fail line (collected again in the terminal summary).
"""

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import (CE, blobs, digit_idx, lfp_lift, lfp_reconstruct, random_one_hot,
                      read_curve, record_acceptance)
from redense.cli import main as cli_main
from redense.data import (FeatureBundle, gen_digit_images, load_feature_bundle, load_idx,
                          save_feature_bundle, write_idx)
from redense.layer import HeadConfig, RedenseLayer, build, predict, train
from redense.linalg import frobenius_norm
from redense.nn import (Activation, Dataset, EpochStats, Loss, TrainConfig, accuracy, forward,
                        loss_value, loss_value_and_grad, make_mlp, train_base)
from redense.persist import load_model, save_model, write_curve


def _identity_layer(n):
    o0 = np.hstack([np.eye(n), -np.eye(n)])
    return RedenseLayer(R=np.eye(n), epsilon=frobenius_norm(o0), base=np.eye(n),
                        bias=np.zeros(n), delta=np.zeros_like(o0), seed=0, O0=o0)


def test_criterion_1_lossless_lift_identity():
    """10,000 random vectors, n up to 512: reconstruction is exact."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    total = 0
    ok = True
    for n in (1, 3, 17, 64, 200, 512):
        rows = 10_000 // 6 + 1
        z = rng.standard_normal((rows, n)) * rng.uniform(1e-6, 1e6)
        layer = _identity_layer(n)
        ok = ok and np.array_equal(lfp_reconstruct(lfp_lift(layer, z), n), z)
        total += rows
    elapsed = time.monotonic() - start
    ok = ok and total >= 10_000 and elapsed < 5.0
    record_acceptance("1 lossless lift identity", ok, f"{total} vectors in {elapsed:.2f}s")
    assert ok


def test_criterion_2_initialization_equality():
    """The starting loss equals the base loss L_o exactly, both from predict
    and as train's old_loss, over 20 seeds, n in {8,64,256}, m in {n,2n}."""
    start = time.monotonic()
    mismatches = 0
    for n in (8, 64, 256):
        for m_mult in (1, 2):
            for seed in range(20):
                rng = np.random.default_rng(seed * 7919 + n)
                feats = rng.standard_normal((25, n))
                ohat = rng.standard_normal((10, n)) / np.sqrt(n)
                targets = random_one_hot(rng, 25, 10)
                layer = build(ohat, np.zeros(10), n * m_mult, seed=seed)
                old = loss_value(CE, feats @ ohat.T, targets)
                init = loss_value(CE, predict(layer, feats), targets)
                _, report, _ = train(layer, feats, targets, CE, HeadConfig(epochs=0))
                mismatches += not (init == old == report.old_loss)
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30.0
    record_acceptance("2 initialization equality", ok,
                      f"{mismatches} of 120 starts differ from L_o in {elapsed:.1f}s")
    assert ok


@dataclass
class PipelineRun:
    dataset: str
    loss_kind: str
    seed: int
    report: object
    curve: list
    base_loss: float


def _full_pipeline(classes, noise, loss, seed):
    data = blobs(j=150, classes=classes, noise=noise, seed=seed)
    model = make_mlp(2, [8], classes, seed=seed)
    cfg = TrainConfig(learning_rate=5e-3, epochs=30, batch_size=32, seed=seed)
    model, _ = train_base(model, data, loss, cfg)
    feats = forward(model, data.inputs)[1]
    layer = build(model.output_weight, model.output_bias, model.output_weight.shape[1],
                  seed=seed)
    head_cfg = HeadConfig(learning_rate=5e-3, epochs=40)
    _, report, curve = train(layer, feats, data.targets, loss, head_cfg)
    # the paper's reference: the base head's own loss, not L(O0)
    base_loss = loss_value(loss, feats @ model.output_weight.T, data.targets)
    return report, curve, base_loss


@pytest.fixture(scope="module")
def guarantee_runs():
    runs = []
    # softmax outputs against one-hot targets have |p - t| <= 1, so Huber with delta >= 1
    # is MSE; delta 0.25 trains a problem of its own
    losses = [Loss("softmax_cross_entropy"), Loss("mean_square_error"),
              Loss("poisson"), Loss("huber", delta=1.0), Loss("huber", delta=0.25)]
    # separated blobs, and four that overlap
    datasets = [(2, 0.25), (3, 0.25), (4, 1.0)]
    for classes, noise in datasets:
        for loss in losses:
            for seed in range(5):
                report, curve, base_loss = _full_pipeline(classes, noise, loss, seed)
                runs.append(PipelineRun(f"blobs{classes}-{noise}", loss.kind, seed, report,
                                        curve, base_loss))
    return runs


def test_criterion_3_hard_guarantee(guarantee_runs):
    """75 full pipelines: final head training loss <= the base head's loss
    L(y Ohat') in the loss the base network trained with, exactly."""
    start = time.monotonic()
    violations = [r for r in guarantee_runs
                  if not (r.report.guarantee_holds
                          and r.report.old_loss == r.base_loss
                          and r.report.final_loss <= r.base_loss)]
    elapsed = time.monotonic() - start
    ok = len(guarantee_runs) == 75 and not violations
    record_acceptance("3 hard guarantee", ok,
                      f"{len(guarantee_runs)} runs, {len(violations)} violations")
    assert ok


def test_criterion_4_gradient_oracles():
    """Analytic gradients match central differences on 50 random instances."""
    rng = np.random.default_rng(404)
    losses = [Loss("softmax_cross_entropy"), Loss("mean_square_error"),
              Loss("poisson"), Loss("huber", delta=1.0), Loss("huber", delta=0.25)]
    h = 1e-5
    worst = 0.0
    for case in range(50):
        loss = losses[case % len(losses)]
        j, q = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        logits = rng.standard_normal((j, q))
        targets = random_one_hot(rng, j, q)
        analytic = loss_value_and_grad(loss, logits, targets)[1]
        fd = np.zeros_like(logits)
        for r in range(j):
            for c in range(q):
                up, down = logits.copy(), logits.copy()
                up[r, c] += h
                down[r, c] -= h
                fd[r, c] = (loss_value(loss, up, targets)
                            - loss_value(loss, down, targets)) / (2 * h)
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))

    # the head objective gradient, via the same finite-difference oracle
    for case in range(10):
        n, m, q, j = 3, 5, 2, 6
        feats = rng.standard_normal((j, n))
        layer = build(rng.standard_normal((q, n)), np.zeros(q), m, seed=case)
        targets = random_one_hot(rng, j, q)
        lifted = lfp_lift(layer, feats)
        o = layer.O0
        g = loss_value_and_grad(CE, lifted @ o.T, targets)[1]
        analytic = (g.T @ lifted).ravel()
        flat = o.ravel()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (loss_value(CE, lifted @ up.reshape(o.shape).T, targets)
                     - loss_value(CE, lifted @ down.reshape(o.shape).T, targets)) / (2 * h)
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))
    ok = worst < 1e-4
    record_acceptance("4 gradient oracles", ok, f"worst rel err {worst:.2e}")
    assert ok


def _digit_dataset(tmp_path):
    """Digit images as IDX files: real MNIST when pointed at, else generated."""
    mnist_dir = os.environ.get("REDENSE_MNIST_DIR")
    if mnist_dir:
        base = Path(mnist_dir)
        train = load_idx(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte")
        test = load_idx(base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte")
        return Dataset(train.inputs[:10_000], train.targets[:10_000]), \
            Dataset(test.inputs[:2_000], test.targets[:2_000])
    imgs, labels = gen_digit_images(12_000, seed=2024)
    write_idx(tmp_path / "train-images", tmp_path / "train-labels",
              imgs[:10_000], labels[:10_000])
    write_idx(tmp_path / "test-images", tmp_path / "test-labels",
              imgs[10_000:], labels[10_000:])
    train = load_idx(tmp_path / "train-images", tmp_path / "train-labels")
    test = load_idx(tmp_path / "test-images", tmp_path / "test-labels")
    return train, test


def test_criterion_5_desk_scale_digits(tmp_path):
    """One-hidden-layer MLP on a 10k digit subset: the lifted head strictly
    lowers the training loss, and the median test-accuracy change over five
    seeds is not negative (m = n, lr 1e-5, 200 iterations)."""
    start = time.monotonic()
    train_ds, test_ds = _digit_dataset(tmp_path)
    ce = Loss("softmax_cross_entropy")
    model = make_mlp(train_ds.inputs.shape[1], [64], 10, seed=0)
    cfg = TrainConfig(learning_rate=1e-3, epochs=20, batch_size=128, seed=0)
    model, _ = train_base(model, train_ds, ce, cfg)
    base_train_loss = loss_value(ce, forward(model, train_ds.inputs)[0], train_ds.targets)
    test_logits, test_feats = forward(model, test_ds.inputs)
    base_test_acc = accuracy(test_logits, test_ds.targets)

    feats = forward(model, train_ds.inputs)[1]
    n = model.output_weight.shape[1]
    deltas = []
    strict_decrease = True
    for seed in range(5):
        layer = build(model.output_weight, model.output_bias, n, seed=seed)
        trained, report, _ = train(layer, feats, train_ds.targets, ce,
                                   HeadConfig(learning_rate=1e-5, epochs=200))
        strict_decrease = strict_decrease and report.final_loss < base_train_loss
        head_acc = accuracy(predict(trained, test_feats), test_ds.targets)
        deltas.append(head_acc - base_test_acc)
    median_delta = float(np.median(deltas))
    elapsed = time.monotonic() - start
    ok = strict_decrease and median_delta >= 0.0 and elapsed < 900.0
    record_acceptance("5 desk-scale digit pipeline", ok,
                      f"base acc {base_test_acc:.3f}, median delta {median_delta:+.4f}, "
                      f"{elapsed:.0f}s")
    assert ok


def test_criterion_6_epsilon_shrinks_with_m(tmp_path, capsys):
    """sweep-m over m in {n, 2n}, 20 seeds: mean radius decreases."""
    start = time.monotonic()
    rng = np.random.default_rng(606)
    n, q, j = 16, 4, 120
    feats = rng.standard_normal((j, n))
    ohat = rng.standard_normal((q, n)) / np.sqrt(n)
    bundle = FeatureBundle(feats, random_one_hot(rng, j, q), ohat, np.zeros(q),
                           {"source_model": "synthetic", "base_loss": "softmax_cross_entropy"})
    bundle_path = tmp_path / "b.rdfb"
    save_feature_bundle(bundle_path, bundle)
    out = tmp_path / "sweep"
    code = cli_main(["sweep-m", "--bundle", str(bundle_path), "--m-values",
                     f"{n},{2 * n}", "--seeds", "20", "--epochs", "3",
                     "--seed", "0", "--out-dir", str(out)])
    capsys.readouterr()
    eps = {n: [], 2 * n: []}
    for line in (out / "sweep.csv").read_text().strip().splitlines()[1:]:
        m, _seed, epsilon, _fl, _acc = line.split(",")
        eps[int(m)].append(float(epsilon))
    elapsed = time.monotonic() - start
    ok = (code == 0 and len(eps[n]) == 20 and len(eps[2 * n]) == 20
          and np.mean(eps[2 * n]) < np.mean(eps[n]) and elapsed < 120.0)
    record_acceptance("6 radius shrinks with projection width", ok,
                      f"mean eps {np.mean(eps[n]):.3f} -> {np.mean(eps[2 * n]):.3f}")
    assert ok


def test_criterion_7_constraint_feasibility(guarantee_runs):
    """Every logged iterate across the criterion-3 runs stays in the ball."""
    worst = 0.0
    for run in guarantee_runs:
        eps = run.report.epsilon
        for point in run.curve:
            worst = max(worst, point.o_norm / eps)
    ok = worst <= 1.0 + 1e-12
    record_acceptance("7 constraint feasibility", ok, f"worst norm ratio {worst:.15f}")
    assert ok


def test_criterion_8_round_trip_fidelity(tmp_path):
    """100 randomized round-trips over model, bundle and curve files."""
    rng = np.random.default_rng(808)
    failures = 0
    for case in range(100):
        kind = case % 3
        if kind == 0:
            widths = list(rng.integers(2, 9, size=int(rng.integers(0, 3))))
            model = make_mlp(int(rng.integers(2, 7)), widths, int(rng.integers(2, 5)),
                             activation=Activation("leaky_relu"),
                             seed=int(rng.integers(1 << 31)))
            model.output_bias[:] = rng.standard_normal(model.n_outputs)
            layer = None
            if case % 2:
                layer = build(model.output_weight, model.output_bias,
                              model.output_weight.shape[1] + int(rng.integers(0, 4)),
                              seed=int(rng.integers(1 << 31)))
            p1, p2 = tmp_path / f"m{case}.rdnm", tmp_path / f"m{case}b.rdnm"
            save_model(p1, model, Loss("huber", delta=float(rng.uniform(0.1, 2.0))))
            if layer is not None:
                save_model(p1, model, Loss("softmax_cross_entropy"), redense_layer=layer)
            loaded, loss2, layer2 = load_model(p1)
            save_model(p2, loaded, loss2, layer2)
            if p1.read_bytes() != p2.read_bytes():
                failures += 1
        elif kind == 1:
            j, n, q = int(rng.integers(2, 20)), int(rng.integers(1, 8)), int(rng.integers(2, 5))
            bundle = FeatureBundle(rng.standard_normal((j, n)), random_one_hot(rng, j, q),
                                   rng.standard_normal((q, n)), np.zeros(q),
                                   {"source_model": f"case{case}",
                                    "base_train_loss": f"{rng.random():.17g}"})
            path = tmp_path / f"b{case}.rdfb"
            save_feature_bundle(path, bundle)
            loaded = load_feature_bundle(path)
            same = (np.array_equal(loaded.features, bundle.features)
                    and np.array_equal(loaded.targets, bundle.targets)
                    and np.array_equal(loaded.output_weight, bundle.output_weight)
                    and loaded.metadata == bundle.metadata)
            if not same:
                failures += 1
        else:
            rows = [EpochStats(e, float(rng.standard_normal() ** 2),
                               float(rng.standard_normal() ** 2), float(rng.random()))
                    for e in range(int(rng.integers(1, 30)))]
            path = tmp_path / f"c{case}.csv"
            write_curve(path, rows)
            back = read_curve(path)
            same = all(b == (r.epoch, r.train_loss, r.eval_loss, r.eval_accuracy)
                       for b, r in zip(back, rows)) and len(back) == len(rows)
            if not same:
                failures += 1
    ok = failures == 0
    record_acceptance("8 round-trip fidelity", ok, f"{failures} failures in 100 trips")
    assert ok


def test_criterion_9_external_boost_path(tmp_path, capsys):
    """A bundle from a separately trained, different architecture passes the
    head-retraining command with the guarantee intact."""
    flags = digit_idx(tmp_path, 240, seed=17)
    train_dir = tmp_path / "ext"
    code = cli_main(["train", *flags, "--seed", "17", "--hidden", "12,6",
                     "--activation", "leaky_relu", "--loss", "huber", "--lr", "5e-3",
                     "--epochs", "25", "--out-dir", str(train_dir)])
    assert code == 0
    bundle_path = tmp_path / "ext.rdfb"
    code = cli_main(["features", "--model", str(train_dir / "model.rdnm"), *flags,
                     "--out", str(bundle_path)])
    assert code == 0
    capsys.readouterr()
    out = tmp_path / "boost"
    code = cli_main(["redense", "--bundle", str(bundle_path), "--lr", "1e-2",
                     "--epochs", "50", "--seed", "1", "--out-dir", str(out)])
    output = capsys.readouterr().out
    pairs = dict(line.split("=", 1) for line in output.strip().splitlines() if "=" in line)
    head_file = out / "redense_head.rdnm"
    ok = (code == 0 and head_file.exists()
          and pairs["guarantee_holds"] == "true"
          and float(pairs["final_loss"]) <= float(pairs["old_loss"]))
    with open(out / "redense_manifest.json") as f:
        manifest = json.load(f)
    ok = ok and manifest["results"]["guarantee_holds"] is True
    record_acceptance("9 external boost path", ok,
                      f"final {float(pairs['final_loss']):.4f} <= old {float(pairs['old_loss']):.4f}")
    assert ok
