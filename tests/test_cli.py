import argparse
import builtins
import collections
import dataclasses
import importlib.util
import json
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import digit_idx, read_curve, rewrite_header
from redense import cli, errors, nn, persist
from redense import data as datamod
from redense import layer as layermod
from redense.cli import main
from redense.data import gen_digit_images, load_feature_bundle, save_feature_bundle, write_idx
from redense.nn import EpochStats, Loss, accuracy, forward, loss_value
from redense.persist import load_model, save_model, write_curve


# train's --loss flags for each loss, Huber at delta 1 and 0.25
EVERY_LOSS = pytest.mark.parametrize("loss", [["ce"], ["mse"], ["poisson"], ["huber"],
                                              ["huber", "--huber-delta", "0.25"]],
                                     ids=["ce", "mse", "poisson", "huber1", "huber0.25"])


def kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def train_data(tmp_path):
    """The 200 digit images run_train trains on, written into tmp_path; their data flags."""
    return digit_idx(tmp_path, 200, seed=7)


def run_train(tmp_path, capsys, loss="ce", seed="7", extra=()):
    code = main(["train", *train_data(tmp_path), "--hidden", "8", "--loss", loss,
                 "--lr", "1e-3", "--epochs", "15", "--seed", seed, "--out-dir", str(tmp_path),
                 *extra])
    assert code == 0
    return kv(capsys)


def test_train_smoke_writes_artifacts(tmp_path, capsys):
    pairs = run_train(tmp_path, capsys)
    assert (tmp_path / "model.rdnm").exists()
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "train_manifest.json").exists()
    assert float(pairs["final_train_loss"]) > 0.0
    assert 0.0 <= float(pairs["final_test_accuracy"]) <= 1.0
    curve = read_curve(tmp_path / "curve.csv")
    assert len(curve) == 16  # epoch 0 plus 15 epochs


def test_train_without_data_source_exits_2(tmp_path, capsys):
    code = main(["train", "--out-dir", str(tmp_path)])
    assert code == 2


def test_train_rerun_same_flags_same_checksum(tmp_path, capsys):
    run_train(tmp_path / "a", capsys)
    run_train(tmp_path / "b", capsys)
    manifests = []
    for sub in ("a", "b"):
        with open(tmp_path / sub / "train_manifest.json") as f:
            manifests.append(json.load(f))
    assert manifests[0]["results"]["model_sha256"] == manifests[1]["results"]["model_sha256"]


def test_train_divergence_exits_4(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", *digit_idx(tmp_path, 60), "--hidden", "4",
                     "--loss", "mse", "--lr", "1e200",
                     "--epochs", "5", "--seed", "1", "--out-dir", str(tmp_path)])
    assert code == 4


def _pipeline_to_bundle(tmp_path, capsys, loss="ce", extra=()):
    run_train(tmp_path, capsys, loss=loss, extra=extra)
    bundle_path = tmp_path / "features.rdfb"
    code = main(["features", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                 "--seed", "7", "--out", str(bundle_path)])
    assert code == 0
    capsys.readouterr()
    return bundle_path


def test_features_bundle_consistent_with_model(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys, loss="mse")
    bundle = load_feature_bundle(bundle_path)
    model, loss, _ = load_model(tmp_path / "model.rdnm")
    assert bundle.features.shape[1] == model.output_weight.shape[1]
    assert bundle.targets.shape[1] == model.n_outputs
    assert np.array_equal(bundle.output_weight, model.output_weight)
    assert bundle.metadata["base_loss"] == "mean_square_error"
    # regenerate the exact training rows the command used and re-evaluate
    train, _test = datamod.split(datamod.load_idx(tmp_path / "digits-images",
                                                  tmp_path / "digits-labels"),
                                 datamod.SplitSpec(0.8, 7))
    logits, features = forward(model, train.inputs)
    assert np.array_equal(bundle.features, features)
    assert float(bundle.metadata["base_train_loss"]) == loss_value(loss, logits, train.targets)


def test_redense_on_bundle_guarantee_and_artifacts(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    out = tmp_path / "rd"
    code = main(["redense", "--bundle", str(bundle_path), "--model",
                 str(tmp_path / "model.rdnm"), "--lr", "1e-2", "--epochs", "40",
                 "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    pairs = kv(capsys)
    assert pairs["guarantee_holds"] == "true"
    assert float(pairs["final_loss"]) <= float(pairs["old_loss"])
    assert (pairs["stop_reason"], pairs["stopped_at"]) == ("completed", "40")
    model, _, layer = load_model(out / "model_with_redense.rdnm")
    assert layer is not None
    assert layer.m == model.output_weight.shape[1]
    curve = read_curve(out / "redense_curve.csv")
    assert len(curve) == 41
    with open(out / "redense_manifest.json") as f:
        manifest = json.load(f)
    assert manifest["results"]["guarantee_holds"] is True
    assert manifest["results"]["stop_reason"] == "completed"
    assert manifest["results"]["stopped_at"] == 40
    # build's diagnostics: printed and in the manifest, not in the model file
    assert manifest["results"]["resamples"] == 0 == int(pairs["resamples"])
    assert manifest["results"]["cond_r"] == float(pairs["cond_r"])
    oracle = np.linalg.norm(layer.R) * np.linalg.norm(np.linalg.pinv(layer.R))
    assert float(pairs["cond_r"]) == pytest.approx(oracle, rel=1e-12)
    assert (layer.cond_r, layer.resamples) == (None, None)


def test_redense_external_bundle_writes_standalone_head(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    out = tmp_path / "head"
    code = main(["redense", "--bundle", str(bundle_path), "--epochs", "10",
                 "--seed", "5", "--out-dir", str(out)])
    assert code == 0
    head, _, layer = load_model(out / "redense_head.rdnm")
    assert head.layers == []
    assert layer is not None


def test_redense_m_below_n_exits_2(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    code = main(["redense", "--bundle", str(bundle_path), "--m", "4",
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2


def _eval_bundle(tmp_path, capsys):
    """Held-out features from the model _pipeline_to_bundle trained."""
    eval_path = tmp_path / "eval.rdfb"
    code = main(["features", "--model", str(tmp_path / "model.rdnm"),
                 *digit_idx(tmp_path, 60, seed=99, name="eval"), "--no-split",
                 "--out", str(eval_path)])
    assert code == 0
    capsys.readouterr()
    return eval_path


def test_redense_with_eval_bundle(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    eval_path = _eval_bundle(tmp_path, capsys)
    code = main(["redense", "--bundle", str(bundle_path), "--eval-bundle", str(eval_path),
                 "--epochs", "5", "--seed", "2", "--out-dir", str(tmp_path / "rd")])
    assert code == 0
    pairs = kv(capsys)
    assert pairs["eval_source"] == "eval_bundle"


# lr 1 overshoots: at m=8 the first step is far worse than the start, so
# train returns the start and the last iterate scores lower on held-out data
def test_reported_eval_scores_are_the_returned_heads(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    eval_path = _eval_bundle(tmp_path, capsys)
    bundle, held_out = load_feature_bundle(bundle_path), load_feature_bundle(eval_path)
    cfg = layermod.HeadConfig(learning_rate=1.0, epochs=1)
    flags = ["--eval-bundle", str(eval_path), "--lr", "1", "--epochs", "1", "--seed", "0"]

    out = tmp_path / "rd"
    assert main(["redense", "--bundle", str(bundle_path), "--m", "8", *flags,
                 "--out-dir", str(out)]) == 0
    pairs = kv(capsys)
    _, _, trained = load_model(out / "redense_head.rdnm")
    logits = layermod.predict(trained, held_out.features)
    curve = read_curve(out / "redense_curve.csv")
    assert pairs["best_epoch"] == "0" and curve[-1][1] > curve[0][1]
    assert float(pairs["final_eval_accuracy"]) == accuracy(logits, held_out.targets)
    assert float(pairs["final_eval_accuracy"]) > curve[-1][3]
    assert float(pairs["final_eval_loss"]) == loss_value(bundle.loss, logits,
                                                         held_out.targets)
    with open(out / "redense_manifest.json") as f:
        assert json.load(f)["results"]["best_epoch"] == 0

    out = tmp_path / "sweep"
    assert main(["sweep-m", "--bundle", str(bundle_path), "--m-values", "8,16", "--seeds", "3",
                 *flags, "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    last_iterate_scored_lower = False
    for m, seed, _, _, test_accuracy in rows:
        start = layermod.build(bundle.output_weight, bundle.output_bias, int(m), int(seed))
        trained, _, curve = layermod.train(start, bundle.features, bundle.targets, bundle.loss,
                                           cfg, eval_features=held_out.features,
                                           eval_targets=held_out.targets)
        returned = accuracy(layermod.predict(trained, held_out.features), held_out.targets)
        assert float(test_accuracy) == returned
        last_iterate_scored_lower |= curve[-1].eval_accuracy < returned
    assert last_iterate_scored_lower
    with open(out / "sweep_manifest.json") as f:
        assert json.load(f)["results"]["eval_source"] == "eval_bundle"


@pytest.mark.parametrize("cmd", ["redense", "sweep-m"])
@pytest.mark.parametrize("mismatch", ["target_width", "another_model", "output_bias"])
def test_mismatched_eval_bundle_exits_3_before_build(tmp_path, capsys, monkeypatch, cmd,
                                                     mismatch):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    held_out = load_feature_bundle(_eval_bundle(tmp_path, capsys))
    targets, weight, bias = held_out.targets, held_out.output_weight, held_out.output_bias
    if mismatch == "target_width":
        targets = np.hstack([targets, np.zeros((targets.shape[0], 1))])
        weight, bias = np.vstack([weight, weight[:1]]), np.append(bias, 0.0)
    elif mismatch == "another_model":
        weight = 2.0 * weight
    else:
        bias = bias + 0.5
    other = tmp_path / "other.rdfb"
    save_feature_bundle(other, datamod.FeatureBundle(held_out.features, targets, weight, bias,
                                                     {}))

    def no_build(*args, **kwargs):
        raise AssertionError("build ran before the eval bundle was checked")

    monkeypatch.setattr(layermod, "build", no_build)
    widths = {"redense": ["--m", "8"], "sweep-m": ["--m-values", "8", "--seeds", "1"]}[cmd]
    assert main([cmd, "--bundle", str(bundle_path), "--eval-bundle", str(other), *widths,
                 "--epochs", "1", "--out-dir", str(tmp_path / "out")]) == 3
    assert "is not from the training bundle's model" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["redense", "sweep-m"])
@pytest.mark.parametrize("metadata", [{"base_loss": "bogus"}, {"huber_delta": "abc"},
                                      {"base_loss": "huber", "huber_delta": "0"},
                                      {"base_loss": "huber", "huber_delta": "-1"},
                                      {"base_loss": "softmax_cross_entropy", "huber_delta": "-1"},
                                      {"base_loss": "huber", "huber_delta": "inf"}],
                         ids=["bogus", "unparsable-delta", "zero-delta", "negative-delta",
                              "delta-for-ce", "infinite-delta"])
def test_a_bundle_with_a_bad_loss_exits_3_before_any_output(tmp_path, capsys, monkeypatch,
                                                            cmd, metadata):
    bundle = load_feature_bundle(_pipeline_to_bundle(tmp_path, capsys))
    bundle.metadata.update(metadata)  # past FeatureBundle's checks, as another writer may be
    save_feature_bundle(tmp_path / "bad.rdfb", bundle)
    monkeypatch.setattr(layermod, "build", lambda *a, **k: pytest.fail("trained anyway"))
    widths = {"redense": ["--m", "8"], "sweep-m": ["--m-values", "8", "--seeds", "1"]}[cmd]
    out = tmp_path / "out"
    assert main([cmd, "--bundle", str(tmp_path / "bad.rdfb"), *widths, "--epochs", "1",
                 "--out-dir", str(out)]) == 3
    assert "bad.rdfb: bundle metadata" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_single_cell_one_row(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    out = tmp_path / "sweep"
    code = main(["sweep-m", "--bundle", str(bundle_path), "--m-values", "8",
                 "--seeds", "1", "--epochs", "5", "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "m,seed,epsilon,final_train_loss,test_accuracy"
    assert len(lines) == 2


def test_sweep_rows_respect_guarantee(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    bundle = load_feature_bundle(bundle_path)
    base_old = float(bundle.metadata["base_train_loss"])
    out = tmp_path / "sweep"
    code = main(["sweep-m", "--bundle", str(bundle_path), "--m-values", "8,16",
                 "--seeds", "3", "--epochs", "10", "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        final_train_loss = float(row.split(",")[3])
        assert final_train_loss <= base_old
    # the manifest lists build's diagnostics per row, in the table's order
    with open(out / "sweep_manifest.json") as f:
        results = json.load(f)["results"]
    n = bundle.features.shape[1]
    for row, cond_r, resamples in zip(rows, results["cond_r"], results["resamples"],
                                      strict=True):
        m, seed = (int(v) for v in row.split(",")[:2])
        layer = layermod.build(bundle.output_weight, bundle.output_bias, m, seed)
        assert (cond_r, resamples) == (layer.cond_r, layer.resamples)


def _pinned_draws(n):
    """sample_gaussian with seeds 0 and 1 pinned, each at widths n, 2n and 4n.

    Seed 0's first n rows are rank 1, so its width-n prefix is rejected while
    its 2n and 4n prefixes are not. Seed 1's last 2n rows are 1e8 times a
    rank-1 matrix, so its 4n draw is rejected while its narrower prefixes
    are not. Rows past a seed's pinned draw are never asked for.
    """
    rng = np.random.default_rng(5)
    rank_one = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    pinned = {0: np.vstack([rank_one, rng.standard_normal((3 * n, n))]),
              1: np.vstack([rng.standard_normal((2 * n, n)),
                            1e8 * np.outer(rng.standard_normal(2 * n),
                                           rng.standard_normal(n))])}
    real = layermod.sample_gaussian

    def sample_gaussian(rows, cols, seed):
        return pinned[seed][:rows] if seed in pinned else real(rows, cols, seed)

    return sample_gaussian


@pytest.mark.parametrize("draws", ["gaussian", "pinned"])
def test_sweep_rows_equal_standalone_redense_runs(tmp_path, capsys, monkeypatch, draws):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    eval_path = _eval_bundle(tmp_path, capsys)
    bundle, held_out = load_feature_bundle(bundle_path), load_feature_bundle(eval_path)
    n = bundle.features.shape[1]
    if draws == "pinned":
        monkeypatch.setattr(layermod, "sample_gaussian", _pinned_draws(n))
    flags = ["--bundle", str(bundle_path), "--eval-bundle", str(eval_path), "--lr", "1e-2",
             "--epochs", "4"]
    out = tmp_path / "sweep"
    assert main(["sweep-m", *flags, "--m-values", f"{n},{2 * n},{4 * n}", "--seeds", "2",
                 "--seed", "0", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    with open(out / "sweep_manifest.json") as f:
        results = json.load(f)["results"]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    for row, cond_r, resamples in zip(rows, results["cond_r"], results["resamples"],
                                      strict=True):
        m, seed, epsilon, final_loss, test_accuracy = row.split(",")
        assert main(["redense", *flags, "--m", m, "--seed", seed,
                     "--out-dir", str(tmp_path / f"rd{m}-{seed}")]) == 0
        pairs = kv(capsys)
        assert ((pairs["epsilon"], pairs["final_loss"], pairs["final_eval_accuracy"])
                == (epsilon, final_loss, test_accuracy))
        assert (float(pairs["cond_r"]), int(pairs["resamples"])) == (cond_r, resamples)
        # and both equal the library's build and train, which lift at width m alone
        layer = layermod.build(bundle.output_weight, bundle.output_bias, int(m), int(seed))
        _, report, curve = layermod.train(layer, bundle.features, bundle.targets, bundle.loss,
                                          layermod.HeadConfig(1e-2, 4), held_out.features,
                                          held_out.targets)
        assert ((report.epsilon, report.final_loss, curve[report.best_epoch].eval_accuracy)
                == (float(epsilon), float(final_loss), float(test_accuracy)))
    # rows run width by width within each seed: n, 2n, 4n at seed 0, then at seed 1
    expected = [1, 0, 0, 0, 0, 1] if draws == "pinned" else [0] * 6
    assert [results["resamples"][i] for i in (0, 2, 4, 1, 3, 5)] == expected


def test_sweep_holds_one_seeds_draw_and_lift_at_a_time(tmp_path, capsys):
    # the draw (m x n float64) and the positive half (j x m float32) are the
    # same size, and everything else the sweep holds is smaller than either
    j, n, m, q = 256, 128, 4096, 2
    rng = np.random.default_rng(8)
    bundle = datamod.FeatureBundle(rng.standard_normal((j, n)), np.eye(q)[np.arange(j) % q],
                                   rng.standard_normal((q, n)), np.zeros(q), {})
    save_feature_bundle(tmp_path / "b.rdfb", bundle)
    tracemalloc.start()
    try:
        code = main(["sweep-m", "--bundle", str(tmp_path / "b.rdfb"), "--m-values",
                     f"{n},{m}", "--seeds", "2", "--epochs", "2",
                     "--out-dir", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    draw, r32, h = m * n * 8, m * n * 4, j * m * 4
    assert peak < draw + r32 + h + min(draw, h)


@pytest.mark.parametrize("cmd", ["redense", "sweep-m"])
def test_heads_hold_no_float64_features_while_they_train(tmp_path, capsys, cmd):
    # train and eval lifts (j x m float32) take as many bytes as the float64
    # features; once prepared, the heads hold float32 copies y 2^-k instead
    j, j_eval, n, m, q = 4000, 1000, 128, 256, 2
    rng = np.random.default_rng(9)
    weight = rng.standard_normal((q, n))
    for name, rows in (("b", j), ("e", j_eval)):
        save_feature_bundle(tmp_path / f"{name}.rdfb", datamod.FeatureBundle(
            rng.standard_normal((rows, n)), np.eye(q)[np.arange(rows) % q], weight, np.zeros(q),
            {}))
    widths = {"redense": ["--m", str(m)], "sweep-m": ["--m-values", str(m), "--seeds", "1"]}
    tracemalloc.start()
    try:
        code = main([cmd, "--bundle", str(tmp_path / "b.rdfb"), "--eval-bundle",
                     str(tmp_path / "e.rdfb"), *widths[cmd], "--epochs", "2",
                     "--out-dir", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    features, lifts = (j + j_eval) * n * 8, (j + j_eval) * m * 4
    assert peak < features + lifts


def test_sweep_rejects_small_m(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    code = main(["sweep-m", "--bundle", str(bundle_path), "--m-values", "8,2",
                 "--seeds", "1", "--out-dir", str(tmp_path / "s")])
    assert code == 2


def test_eval_without_lifting_layer(tmp_path, capsys):
    run_train(tmp_path, capsys)
    code = main(["eval", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    pairs = kv(capsys)
    assert "base_loss" in pairs and "base_accuracy" in pairs
    assert "redense_loss" not in pairs
    assert (tmp_path / "eval_manifest.json").exists()


def test_eval_with_lifting_layer_reports_both(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    out = tmp_path / "rd"
    assert main(["redense", "--bundle", str(bundle_path), "--model",
                 str(tmp_path / "model.rdnm"), "--lr", "1e-2", "--epochs", "30",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model_with_redense.rdnm"),
                 *train_data(tmp_path), "--out-dir", str(out)])
    assert code == 0
    pairs = kv(capsys)
    # trained on these rows with CE: the lifted head cannot be worse
    assert float(pairs["redense_loss"]) <= float(pairs["base_loss"]) * (1 + 1e-9)
    assert "redense_accuracy" in pairs


def test_eval_accuracy_matches_library_bitwise(tmp_path, capsys):
    run_train(tmp_path, capsys)
    data = digit_idx(tmp_path, 120, seed=11, name="eval")
    code = main(["eval", "--model", str(tmp_path / "model.rdnm"), *data,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    pairs = kv(capsys)
    model, loss, _ = load_model(tmp_path / "model.rdnm")
    ds = datamod.load_idx(data[1], data[3])
    logits = forward(model, ds.inputs)[0]
    assert float(pairs["base_accuracy"]) == accuracy(logits, ds.targets)
    assert float(pairs["base_loss"]) == loss_value(loss, logits, ds.targets)


def test_eval_width_mismatch_exits_3(tmp_path, capsys):
    # 784 inputs, as the digit images have, but 3 outputs against their 10 classes
    save_model(tmp_path / "model.rdnm", nn.make_mlp(784, [4], 3, seed=0),
               Loss("softmax_cross_entropy"))
    code = main(["eval", "--model", str(tmp_path / "model.rdnm"), *digit_idx(tmp_path, 40),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert not (tmp_path / "out").exists()


def test_eval_rejects_test_source_and_split_flags(tmp_path, capsys):
    # eval scores the whole primary dataset: a test source would be ignored, and it
    # draws nothing, so a seed would be too
    run_train(tmp_path, capsys)
    for flag, value in (("--test-images", "ti"), ("--test-labels", "tl"),
                        ("--train-fraction", "0.3"), ("--seed", "1")):
        out = tmp_path / "eval"
        code = main(["eval", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                     flag, value, "--out-dir", str(out)])
        assert code == 2, flag
        assert not out.exists()


def test_missing_model_file_exits_3(tmp_path, capsys):
    code = main(["eval", "--model", str(tmp_path / "nope.rdnm"), *digit_idx(tmp_path, 4),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "nope.rdnm" in capsys.readouterr().err


def test_redense_trains_in_the_bundles_base_loss(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys, loss="huber",
                                      extra=["--huber-delta", "0.25"])
    code = main(["redense", "--bundle", str(bundle_path), "--epochs", "20",
                 "--lr", "1e-2", "--seed", "6", "--out-dir", str(tmp_path / "rd")])
    assert code == 0
    pairs = kv(capsys)
    bundle = load_feature_bundle(bundle_path)
    assert bundle.loss == Loss("huber", delta=0.25)
    assert pairs["loss_kind"] == "huber"
    assert float(pairs["old_loss"]) == float(bundle.metadata["base_train_loss"])
    assert float(pairs["final_loss"]) <= float(pairs["old_loss"])
    # the standalone head is stored with the bundle's loss and scores final_loss in it
    _, loss, trained = load_model(tmp_path / "rd" / "redense_head.rdnm")
    assert loss == bundle.loss
    assert float(pairs["final_loss"]) == loss_value(
        loss, layermod.predict(trained, bundle.features), bundle.targets)


@EVERY_LOSS
def test_redense_curve_starts_at_base_performance(tmp_path, capsys, loss):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys, loss=loss[0], extra=loss[1:])
    bundle = load_feature_bundle(bundle_path)
    out = tmp_path / "rd"
    assert main(["redense", "--bundle", str(bundle_path), "--epochs", "5",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    first = read_curve(out / "redense_curve.csv")[0]
    assert first[0] == 0
    assert first[1] == float(bundle.metadata["base_train_loss"])


def test_redense_rerun_same_flags_same_checksum(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    checksums = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["redense", "--bundle", str(bundle_path), "--epochs", "10",
                     "--seed", "4", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        with open(out / "redense_manifest.json") as f:
            checksums.append(json.load(f)["results"]["model_sha256"])
    assert checksums[0] == checksums[1]


def test_features_no_split_uses_whole_dataset(tmp_path, capsys):
    run_train(tmp_path, capsys)
    out = tmp_path / "full.rdfb"
    code = main(["features", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                 "--no-split", "--out", str(out)])
    assert code == 0
    assert load_feature_bundle(out).features.shape[0] == 200


@pytest.mark.parametrize("flag", ["--test-images", "--test-labels"])
def test_features_takes_no_test_source(tmp_path, capsys, flag):
    # features exports the training partition, or with --no-split the whole file
    run_train(tmp_path, capsys)
    out = tmp_path / "f.rdfb"
    code = main(["features", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                 flag, str(tmp_path / "absent"), "--out", str(out)])
    assert code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def _save_with_output_bias(source, target, bias):
    model, loss, _ = load_model(source)
    model.output_bias[:] = bias
    save_model(target, model, loss)


# the IDX files do not exist: reading them would exit 3
_ABSENT_IDX = ["--images", "absent-images", "--labels", "absent-labels"]


@pytest.mark.parametrize("flags, message", [
    ([*_ABSENT_IDX, "--loss", "ce", "--huber-delta", "-1"], "cannot take delta -1"),
    ([*_ABSENT_IDX, "--loss", "huber", "--huber-delta", "inf"], "cannot take delta inf"),
    ([*_ABSENT_IDX, "--leaky-slope", "nan"], "slope must be finite"),
    (["--images", "absent-images"], "arguments are required: --labels"),
    ([*_ABSENT_IDX, "--test-images", "absent-images"],
     "--test-images and --test-labels must be given together"),
    (["--images", "../digits-images", "--labels", "../digits-labels", "--train-fraction", "0.1"],
     "leaves an empty partition")],
    ids=["ce-delta", "inf-delta", "nan-slope", "images-unpaired", "test-images-unpaired",
         "empty-partition"])
def test_train_refuses_malformed_flags_with_exit_2(tmp_path, capsys, monkeypatch, flags,
                                                   message):
    digit_idx(tmp_path, 4)  # 4 images: a tenth of them for training is none
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main(["train", *flags, "--epochs", "1", "--out-dir", "x"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("cmd", ["eval", "features"])
def test_a_model_storing_a_delta_for_another_loss_exits_3(tmp_path, capsys, cmd):
    run_train(tmp_path, capsys)
    rewrite_header(tmp_path / "model.rdnm", lambda h: h["loss"].update(delta=-1.0))
    out = tmp_path / "out"
    where = ["--out-dir", str(out)] if cmd == "eval" else ["--out", str(out / "f.rdfb")]
    code = main([cmd, "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path), *where])
    assert code == 3
    assert "cannot take delta -1" in capsys.readouterr().err
    assert not out.exists()


def test_a_biased_model_keeps_its_output_bias_through_every_subcommand(tmp_path, capsys):
    # a model from another tool: train_base never trains the output bias
    run_train(tmp_path, capsys)
    biased = tmp_path / "biased.rdnm"
    bias = [3.0, -1.0, 0.5, 0.0, 1.5, -2.0, 0.25, 0.0, -0.5, 1.0]
    _save_with_output_bias(tmp_path / "model.rdnm", biased, bias)
    data = train_data(tmp_path)
    for model in ("model", "biased"):
        assert main(["features", "--model", str(tmp_path / f"{model}.rdnm"), *data,
                     "--no-split", "--out", str(tmp_path / f"{model}.rdfb")]) == 0
    capsys.readouterr()
    bundle = load_feature_bundle(tmp_path / "biased.rdfb")
    assert bundle.output_bias.tolist() == bias
    base_train_loss = float(bundle.metadata["base_train_loss"])
    unbiased = load_feature_bundle(tmp_path / "model.rdfb")
    assert base_train_loss != float(unbiased.metadata["base_train_loss"])

    for attach, epochs in ((True, "0"), (True, "10"), (False, "10")):
        out = tmp_path / f"rd-{attach}-{epochs}"
        model_flag = ["--model", str(biased)] if attach else []
        assert main(["redense", "--bundle", str(tmp_path / "biased.rdfb"), *model_flag,
                     "--lr", "1e-2", "--epochs", epochs, "--seed", "3",
                     "--out-dir", str(out)]) == 0
        pairs = kv(capsys)
        assert float(pairs["old_loss"]) == base_train_loss
        assert pairs["guarantee_holds"] == "true"
        assert float(pairs["final_loss"]) <= base_train_loss
        saved, _, layer = load_model(out / ("model_with_redense.rdnm" if attach
                                            else "redense_head.rdnm"))
        assert saved.output_bias.tolist() == layer.bias.tolist() == bias
    assert float(pairs["final_loss"]) < base_train_loss
    # at Delta = 0 the lifted model scores the base network's loss
    assert main(["eval", "--model", str(tmp_path / "rd-True-0" / "model_with_redense.rdnm"),
                 *data, "--out-dir", str(tmp_path)]) == 0
    scored = kv(capsys)
    assert scored["redense_loss"] == scored["base_loss"]
    assert float(scored["base_loss"]) == base_train_loss


def test_a_version_2_bundle_trains_with_a_zero_output_bias(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    bundle = load_feature_bundle(bundle_path)
    # as the previous writer made it: version 2, no output_bias block
    blocks = [bundle.features, bundle.targets, bundle.output_weight]
    header = {"features": list(bundle.features.shape), "targets": list(bundle.targets.shape),
              "output_weight": list(bundle.output_weight.shape), "metadata": bundle.metadata}
    datamod._write_container(tmp_path / "v2.rdfb", datamod.BUNDLE_MAGIC, 2, header, blocks)
    runs = {}
    for name in ("v2.rdfb", bundle_path.name):
        out = tmp_path / f"rd-{name}"
        assert main(["redense", "--bundle", str(tmp_path / name), "--model",
                     str(tmp_path / "model.rdnm"), "--lr", "1e-2", "--epochs", "10",
                     "--seed", "3", "--out-dir", str(out)]) == 0
        runs[name] = kv(capsys)
        assert float(runs[name]["old_loss"]) == float(bundle.metadata["base_train_loss"])
    assert runs["v2.rdfb"]["model_sha256"] == runs[bundle_path.name]["model_sha256"]


def test_redense_refuses_a_model_the_bundle_was_not_exported_from(tmp_path, capsys,
                                                                  monkeypatch):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    run_train(tmp_path / "other", capsys, seed="8")
    # the bundle's output weight with an output bias the bundle does not hold: a biased
    # model exports and trains (see above), but only on its own bundles
    biased = tmp_path / "biased.rdnm"
    _save_with_output_bias(tmp_path / "model.rdnm", biased, [3.0, -1.0, 0.5, *[0.0] * 7])
    # the bundle's output weight under another loss kind, or a delta CE cannot take
    exported, _, _ = load_model(tmp_path / "model.rdnm")
    save_model(tmp_path / "mse.rdnm", exported, Loss("mean_square_error"))
    save_model(tmp_path / "delta.rdnm", exported, Loss("softmax_cross_entropy"))
    rewrite_header(tmp_path / "delta.rdnm", lambda h: h["loss"].update(delta=0.5))
    # the bundle's own model, already lifted: a second redense would replace its layer
    assert main(["redense", "--bundle", str(bundle_path), "--model", str(tmp_path / "model.rdnm"),
                 "--epochs", "3", "--seed", "1", "--out-dir", str(tmp_path / "lifted")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(layermod, "build", lambda *a, **k: pytest.fail("trained anyway"))
    out = tmp_path / "rd"
    for model, reason in ((tmp_path / "other" / "model.rdnm", "output weight"),
                          (biased, "output bias"),
                          (tmp_path / "mse.rdnm", "loss mean_square_error (delta 1)"),
                          (tmp_path / "delta.rdnm", "cannot take delta 0.5"),
                          (tmp_path / "lifted" / "model_with_redense.rdnm",
                           "already has a lifting layer")):
        code = main(["redense", "--bundle", str(bundle_path), "--model", str(model),
                     "--epochs", "3", "--seed", "1", "--out-dir", str(out)])
        assert code == 3
        assert reason in capsys.readouterr().err
        assert not out.exists()


def test_every_flag_a_subcommand_defines_is_read(tmp_path, capsys, monkeypatch):
    # a flag that is parsed but never read is accepted and silently ignored
    reads = collections.defaultdict(set)

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                reads[object.__getattribute__(self, "subcommand")].add(name)
            return super().__getattribute__(name)

    real_build_parser = cli.build_parser

    def recording_parser():
        parser = real_build_parser()
        parse = parser.parse_args
        parser.parse_args = lambda argv: RecordingNamespace(**vars(parse(argv)))
        return parser

    subparsers = next(a for a in real_build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in subparsers.choices.items()}

    rng = np.random.default_rng(3)
    labels = np.arange(40) % 10
    images = rng.integers(0, 256, (40, 3, 3)).astype(np.uint8)
    idx = ["--images", tmp_path / "img", "--labels", tmp_path / "lab"]
    write_idx(tmp_path / "img", tmp_path / "lab", images, labels)
    digits = digit_idx(tmp_path, 60, seed=3)
    train = ["--hidden", "4", "--epochs", "1", "--seed", "1"]
    runs = [
        ["train", *idx, "--test-images", idx[1], "--test-labels", idx[3], *train,
         "--out-dir", tmp_path / "idx"],
        ["train", *digits, "--train-fraction", "0.6", *train,
         "--activation", "leaky_relu", "--leaky-slope", "0.1", "--loss", "huber",
         "--huber-delta", "0.5", "--lr", "1e-3", "--batch-size", "8",
         "--out-dir", tmp_path / "digits"],
        ["features", "--model", tmp_path / "idx" / "model.rdnm", *idx, "--no-split",
         "--out", tmp_path / "idx.rdfb"],
        ["features", "--model", tmp_path / "idx" / "model.rdnm", *idx,
         "--train-fraction", "0.5", "--out", tmp_path / "split.rdfb"],
        ["features", "--model", tmp_path / "digits" / "model.rdnm", *digits,
         "--seed", "2", "--out", tmp_path / "digits.rdfb"],
        ["redense", "--bundle", tmp_path / "digits.rdfb", "--model",
         tmp_path / "digits" / "model.rdnm", "--eval-bundle", tmp_path / "digits.rdfb",
         "--m", "8", "--lr", "1e-3", "--epochs", "2", "--seed", "1",
         "--out-dir", tmp_path / "rd"],
        ["redense", "--bundle", tmp_path / "idx.rdfb", "--epochs", "2",
         "--out-dir", tmp_path / "head"],
        ["sweep-m", "--bundle", tmp_path / "split.rdfb", "--eval-bundle", tmp_path / "idx.rdfb",
         "--m-values", "4,8", "--seeds", "2", "--lr", "1e-3", "--epochs", "2", "--seed", "1",
         "--out-dir", tmp_path / "sweep"],
        ["sweep-m", "--bundle", tmp_path / "digits.rdfb", "--m-values", "4", "--seeds", "1",
         "--epochs", "1", "--out-dir", tmp_path / "sweep"],
        ["eval", "--model", tmp_path / "idx" / "model.rdnm", *idx, "--out-dir", tmp_path],
        ["eval", "--model", tmp_path / "rd" / "model_with_redense.rdnm", *digits,
         "--out-dir", tmp_path / "rd"],
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_parser", recording_parser)
    for argv in runs:
        assert main([str(a) for a in argv]) == 0, argv
    capsys.readouterr()
    assert {cmd: sorted(flags - reads[cmd]) for cmd, flags in defined.items()} == \
        {cmd: [] for cmd in defined}


def test_every_command_the_benchmark_sends_parses(tmp_path, monkeypatch):
    # a flag the benchmark passes and the CLI no longer takes would fail every run with exit 2
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    sent = []
    monkeypatch.setattr(workloads, "run_cli",
                        lambda argv: (sent.append([str(a) for a in argv]), (0, {}))[1])
    for name in workloads.PARAMS:
        inputs = tmp_path / name
        workloads.setup(name, inputs, 1, "tiny")
        workloads.body(name, inputs, tmp_path / f"{name}-out", 1, "tiny")
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted({argv[0] for argv in sent}) == sorted(subparsers.choices)
    for argv in sent:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark sends {argv}, which does not parse")


def test_features_width_mismatch_exits_3(tmp_path, capsys):
    run_train(tmp_path, capsys)  # a model of 28 x 28 images
    write_idx(tmp_path / "i", tmp_path / "l", np.zeros((4, 3, 3)), np.arange(4))
    code = main(["features", "--model", str(tmp_path / "model.rdnm"),
                 "--images", str(tmp_path / "i"), "--labels", str(tmp_path / "l"),
                 "--no-split", "--out", str(tmp_path / "x.rdfb")])
    assert code == 3
    assert "width" in capsys.readouterr().err


def test_features_computes_a_ce_models_loss_once(tmp_path, capsys, monkeypatch):
    run_train(tmp_path, capsys)
    calls = []
    real_loss_value = cli.nn.loss_value

    def counting_loss_value(*args):
        calls.append(args[0].kind)
        return real_loss_value(*args)

    monkeypatch.setattr(cli.nn, "loss_value", counting_loss_value)
    out = tmp_path / "f.rdfb"
    code = main(["features", "--model", str(tmp_path / "model.rdnm"), *train_data(tmp_path),
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert calls == ["softmax_cross_entropy"]
    metadata = load_feature_bundle(out).metadata
    assert metadata["base_train_loss"] == metadata["ce_train_loss"]


def test_guarantee_violation_exits_5(tmp_path, capsys, monkeypatch):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    real_train = layermod.train

    def violating_train(*args, **kwargs):
        trained, report, curve = real_train(*args, **kwargs)
        return trained, dataclasses.replace(report, guarantee_holds=False), curve

    monkeypatch.setattr(layermod, "train", violating_train)
    out = tmp_path / "v"
    for cmd in (["redense"], ["sweep-m", "--m-values", "8", "--seeds", "1"]):
        code = main([*cmd, "--bundle", str(bundle_path), "--epochs", "2",
                     "--seed", "0", "--out-dir", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert "final_loss=" in err and "old_loss=" in err
        assert "m=8, seed=0" in err
        assert list(out.glob("*_manifest.json")) == []


def test_a_failed_factorization_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # a failed Cholesky rejects the draw, so every resample is rejected too
    monkeypatch.setattr(np.linalg, "cholesky", fail)
    out = tmp_path / "out"
    for cmd in (["redense", "--model", str(tmp_path / "model.rdnm")],
                ["sweep-m", "--m-values", "8,16", "--seeds", "2"]):
        code = main([*cmd, "--bundle", str(bundle_path), "--epochs", "2",
                     "--seed", "0", "--out-dir", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could not sample a well-conditioned")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--lr", "0"], ["--epochs", "-1"], ["--lr", "nan"],
                                   ["--lr", "inf"]], ids=["lr", "epochs", "lr-nan", "lr-inf"])
@pytest.mark.parametrize("cmd", [["redense"], ["sweep-m", "--m-values", "8", "--seeds", "1"]],
                         ids=["redense", "sweep-m"])
def test_bad_head_flags_exit_2_before_training(tmp_path, capsys, monkeypatch, cmd, flags):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    monkeypatch.setattr(layermod, "build", lambda *a, **k: pytest.fail("trained anyway"))
    code = main([*cmd, "--bundle", str(bundle_path), *flags,
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("cmd, expected", [
    pytest.param(["sweep-m", "--m-values", "8", "--seeds", "0"], 2, id="0"),
    pytest.param(["sweep-m", "--m-values", "8", "--seeds", "-3"], 2, id="-3"),
    pytest.param(["sweep-m", "--m-values", "abc", "--seeds", "2"], 2, id="m-values-abc"),
    pytest.param(["sweep-m", "--m-values", "8,0", "--seeds", "2"], 2, id="m-values-8,0"),
    pytest.param(["sweep-m", "--m-values", "", "--seeds", "2"], 2, id="m-values-empty"),
    pytest.param(["redense"], 3, id="redense-absent-bundle"),
    pytest.param(["redense", "--lr", "nan"], 2, id="redense-lr-nan"),
    pytest.param(["redense", "--lr", "-inf"], 2, id="redense-lr-minus-inf"),
    pytest.param(["sweep-m", "--m-values", "8", "--lr", "inf"], 2, id="sweep-m-lr-inf"),
])
def test_sweep_rejects_nonpositive_seeds_before_loading(tmp_path, cmd, expected):
    # the bundle does not exist: loading it before the flags are checked would
    # exit 3, and no output directory may appear before the inputs have loaded
    out = tmp_path / "x"
    code = main([*cmd, "--bundle", str(tmp_path / "absent.rdfb"), "--out-dir", str(out)])
    assert code == expected
    assert not out.exists()


@pytest.mark.parametrize("cmd", [
    ["train", "--images", "absent-images", "--labels", "absent-labels",
     "--test-images", "absent-images", "--test-labels", "absent-labels", "--out-dir", "out"],
    ["features", "--model", "absent.rdnm", "--images", "absent-images", "--labels",
     "absent-labels", "--out", "out/f.rdfb"],
    ["redense", "--bundle", "absent.rdfb", "--out-dir", "out"],
    ["sweep-m", "--bundle", "absent.rdfb", "--m-values", "8", "--out-dir", "out"],
], ids=lambda cmd: cmd[0])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_malformed_seed_exits_2_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                          cmd, seed):
    # every input is absent: reading one would exit 3
    monkeypatch.chdir(tmp_path)
    assert main([*cmd, "--seed", seed]) == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", [
    ["features", "--model", "absent.rdnm", "--out", "out/f.rdfb"],
    ["features", "--model", "absent.rdnm", "--no-split", "--out", "out/f.rdfb"],
    ["train", "--out-dir", "out"],
    ["train", "--test-images", "absent-images", "--test-labels", "absent-labels",
     "--out-dir", "out"],
], ids=["features-split", "features-no-split", "train-split", "train-test-pair"])
@pytest.mark.parametrize("fraction", ["7", "0"])
def test_split_flags_are_checked_before_reading(tmp_path, capsys, monkeypatch, cmd, fraction):
    # the model and data are absent: reading either would exit 3
    monkeypatch.chdir(tmp_path)
    assert main([*cmd, *_ABSENT_IDX, "--train-fraction", fraction]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given, missing", [(_ABSENT_IDX[:2], "--labels"),
                                            (_ABSENT_IDX[2:], "--images")],
                         ids=["no-labels", "no-images"])
@pytest.mark.parametrize("cmd", [
    ["train", "--out-dir", "out"],
    ["features", "--model", "absent.rdnm", "--no-split", "--out", "out/f.rdfb"],
    ["eval", "--model", "absent.rdnm", "--out-dir", "out"],
], ids=lambda cmd: cmd[0])
def test_half_an_idx_pair_exits_2_before_any_file_is_read(tmp_path, capsys, monkeypatch, cmd,
                                                          given, missing):
    # the model and the IDX files are absent: reading any would exit 3
    monkeypatch.chdir(tmp_path)
    assert main([*cmd, *given]) == 2
    assert f"arguments are required: {missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
def test_train_rejects_a_non_finite_lr_before_loading(tmp_path, lr):
    out = tmp_path / "x"
    code = main(["train", "--images", str(tmp_path / "absent-images"), "--labels",
                 str(tmp_path / "absent-labels"), "--lr", lr, "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()


@EVERY_LOSS
def test_eval_on_the_training_images_reproduces_redense_final_loss(tmp_path, capsys, loss):
    images, labels = gen_digit_images(300, seed=4)
    write_idx(tmp_path / "images", tmp_path / "labels", images, labels)
    data = ["--images", str(tmp_path / "images"), "--labels", str(tmp_path / "labels")]
    assert main(["train", *data, "--hidden", "8", "--epochs", "3", "--batch-size", "64",
                 "--loss", *loss, "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    model = str(tmp_path / "model.rdnm")
    assert main(["features", "--model", model, *data, "--no-split",
                 "--out", str(tmp_path / "f.rdfb")]) == 0
    capsys.readouterr()
    base_train_loss = float(load_feature_bundle(tmp_path / "f.rdfb").metadata["base_train_loss"])
    for epochs in ("0", "25"):
        out = tmp_path / f"rd{epochs}"
        assert main(["redense", "--bundle", str(tmp_path / "f.rdfb"), "--model", model,
                     "--m", "24", "--lr", "1e-2", "--epochs", epochs, "--seed", "4",
                     "--out-dir", str(out)]) == 0
        trained = kv(capsys)
        assert main(["eval", "--model", str(out / "model_with_redense.rdnm"), *data,
                     "--out-dir", str(out)]) == 0
        scored = kv(capsys)
        assert float(trained["old_loss"]) == base_train_loss
        assert float(trained["final_loss"]) <= base_train_loss
        assert scored["loss_kind"] == trained["loss_kind"]
        assert scored["redense_loss"] == trained["final_loss"]
        assert scored["base_loss"] == trained["old_loss"]
    assert float(trained["final_loss"]) < float(trained["old_loss"])


class _FailingFile:
    """A file whose second write raises, as when a disk fills midway."""

    def __init__(self, f):
        self._f = f
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("site", ["model", "curve", "bundle", "manifest", "sweep_table"])
def test_a_failed_write_leaves_the_target_absent_or_unchanged(tmp_path, capsys, monkeypatch,
                                                              site):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    model_path = tmp_path / "model.rdnm"
    model, loss, _ = load_model(model_path)
    bundle = load_feature_bundle(bundle_path)
    out = tmp_path / "out"
    out.mkdir()
    data = train_data(tmp_path)  # written now: the writes below fail
    target, write = {
        "model": (out / "m.rdnm", lambda: save_model(out / "m.rdnm", model, loss)),
        "curve": (out / "c.csv", lambda: write_curve(out / "c.csv", [EpochStats(0, 1.0, 1.0, 0.5)])),
        "bundle": (out / "b.rdfb", lambda: save_feature_bundle(out / "b.rdfb", bundle)),
        "manifest": (out / "eval_manifest.json",
                     lambda: main(["eval", "--model", str(model_path), *data,
                                   "--out-dir", str(out)])),
        "sweep_table": (out / "sweep.csv",
                        lambda: main(["sweep-m", "--bundle", str(bundle_path), "--m-values",
                                      "8", "--seeds", "1", "--epochs", "1",
                                      "--out-dir", str(out)])),
    }[site]
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return _FailingFile(f) if "w" in mode else f

    monkeypatch.setattr(datamod, "open", failing_open, raising=False)
    for before in (None, b"earlier contents\n"):
        if before is not None:
            target.write_bytes(before)
        if site in ("manifest", "sweep_table"):
            assert write() == 3
        else:
            with pytest.raises(OSError, match="no space"):
                write()
        if before is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == before
        assert [p.name for p in out.iterdir() if p.name != target.name] == []


def _printed(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("cmd", ["train", "features", "redense", "sweep-m", "eval"])
def test_stdout_repeats_manifest_results_then_outputs(tmp_path, capsys, cmd):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    model = tmp_path / "model.rdnm"
    data = train_data(tmp_path)
    out = tmp_path / "out"
    argv = {
        "train": ["train", *data, "--hidden", "4", "--epochs", "2", "--seed", "7",
                  "--out-dir", out],
        "features": ["features", "--model", model, *data, "--seed", "7", "--out", out / "f.rdfb"],
        "redense": ["redense", "--bundle", bundle_path, "--model", model, "--epochs", "3",
                    "--seed", "1", "--out-dir", out],
        "sweep-m": ["sweep-m", "--bundle", bundle_path, "--m-values", "8,16", "--seeds", "2",
                    "--epochs", "2", "--seed", "1", "--out-dir", out],
        "eval": ["eval", "--model", model, *data, "--out-dir", out],
    }[cmd]
    assert main([str(a) for a in argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    manifest_path = dict(line.split("=", 1) for line in lines)["manifest"]
    with open(manifest_path) as f:
        manifest = json.load(f)
    results, outputs = manifest["results"], manifest["outputs"]
    assert manifest["subcommand"] == cmd
    assert len(lines) == len(results) + len(outputs)
    assert sorted(lines[:len(results)]) == sorted(f"{k}={_printed(v)}"
                                                  for k, v in results.items())
    assert sorted(lines[len(results):]) == sorted(f"{k}={v}" for k, v in outputs.items())
    assert outputs["manifest"] == manifest_path


def test_redense_without_eval_bundle_lifts_once_and_scores_training_data(
        tmp_path, capsys, monkeypatch):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    real_half = layermod._positive_half
    lifts = []

    def counting_half(*args):
        lifts.append(None)
        return real_half(*args)

    monkeypatch.setattr(layermod, "_positive_half", counting_half)
    out = tmp_path / "rd"
    assert main(["redense", "--bundle", str(bundle_path), "--lr", "1e-2", "--epochs", "8",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    assert kv(capsys)["eval_source"] == "training_features"
    assert len(lifts) == 1
    monkeypatch.undo()

    bundle = load_feature_bundle(bundle_path)
    _, _, trained = load_model(out / "redense_head.rdnm")
    start = layermod.build(bundle.output_weight, bundle.output_bias, trained.m, 3)
    curve = read_curve(out / "redense_curve.csv")
    assert all(test_loss == train_loss for _, train_loss, test_loss, _ in curve)
    assert curve[0][3] == accuracy(layermod.predict(start, bundle.features), bundle.targets)
    best = min(curve, key=lambda row: row[1])
    assert best[3] == accuracy(layermod.predict(trained, bundle.features), bundle.targets)


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import redense
    # the child imports the same package this test does, installed or not
    src = str(Path(redense.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-m", "redense", "train", *digit_idx(tmp_path, 60),
                             "--hidden", "4", "--epochs", "2", "--seed", "0",
                             "--out-dir", str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "final_train_loss=" in result.stdout


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    return captured.err


_HUGE_MODEL_HEADER = {"input_width": 1 << 20, "n_outputs": 2, "redense": None,
                      "layers": [{"width": 1 << 20, "activation": "relu", "slope": 0.01}],
                      "loss": {"kind": "softmax_cross_entropy", "delta": 1.0}}


@pytest.mark.parametrize("kind", ["idx", "bundle", "model"])
def test_a_header_claiming_more_than_its_file_exits_3_before_allocating(tmp_path, capsys,
                                                                        kind):
    # each header claims terabytes; the files hold a few bytes of payload
    big = tmp_path / "big"
    if kind == "idx":
        big.write_bytes(struct.pack(">IIII", datamod.IDX_IMAGES_MAGIC, 1 << 20, 4096, 4096)
                        + bytes(64))
        argv = ["train", "--images", big, "--labels", big, "--out-dir", tmp_path / "out"]
    elif kind == "bundle":
        header = json.dumps({"features": [1 << 30, 64], "targets": [1 << 30, 2],
                             "output_weight": [2, 64], "metadata": {}}).encode("utf-8")
        big.write_bytes(b"RDFB" + struct.pack("<II", 2, len(header)) + header + bytes(64))
        argv = ["redense", "--bundle", big, "--out-dir", tmp_path / "out"]
    else:
        header = json.dumps(_HUGE_MODEL_HEADER).encode("utf-8")
        big.write_bytes(b"RDNM" + struct.pack("<II", 2, len(header)) + header + bytes(64))
        argv = ["eval", "--model", big, *digit_idx(tmp_path, 4), "--out-dir", tmp_path / "out"]
    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "truncated" in _one_error_line(capsys)
    assert peak < 1 << 20
    assert not (tmp_path / "out").exists()


def _lifted_model(tmp_path):
    """A model on 28 x 28 images with 10 outputs and a lifting layer at m = 6 > n = 5."""
    model = nn.make_mlp(784, [5], 10, seed=1)
    path = tmp_path / "lifted.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"),
               redense_layer=layermod.build(model.output_weight, model.output_bias, 6, seed=2))
    return path


@pytest.mark.parametrize("key, value", [("epsilon", 0.0), ("epsilon", "1e400"), ("m", 4),
                                        ("m", -3)])
def test_eval_exits_3_on_an_invalid_lifting_block(tmp_path, capsys, key, value):
    # m < n = 5 is refused from the header, before m sizes a block
    path = _lifted_model(tmp_path)
    data = digit_idx(tmp_path, 30)
    assert main(["eval", "--model", str(path), *data, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # 1e400 is written unquoted, a JSON number that parses to inf
    rewrite_header(path, lambda header: header["redense"].update({key: value}),
                   replace=[(b'"1e400"', b"1e400")])
    out = tmp_path / "out"
    assert main(["eval", "--model", str(path), *data, "--out-dir", str(out)]) == 3
    want = (f"invalid header: redense.m = {value} is below n = 5" if key == "m"
            else "invalid lifting block")
    assert f"lifted.rdnm: {want}" in _one_error_line(capsys)
    assert not out.exists()


_HEADER_FIELDS = [("layers", "width"), ("layers", "activation"), ("layers", "slope"),
                  ("redense", "n"), ("redense", "m"), ("redense", "epsilon"), ("redense", "seed")]


@pytest.mark.parametrize("block, key", _HEADER_FIELDS)
@pytest.mark.parametrize("value, message", [
    (None, "invalid header: {field} is missing"), ([1], "invalid header: {field} must be"),
    (float("nan"), "unparseable header: NaN is not a JSON number"),
    (float("inf"), "unparseable header: Infinity is not a JSON number"),
    (True, "invalid header: {field} must be"), ("2", "invalid header")])
def test_eval_exits_3_on_a_missing_or_ill_typed_header_field(tmp_path, capsys, block, key,
                                                             value, message):
    path = _lifted_model(tmp_path)
    message = message.format(field=f"layers[0].{key}" if block == "layers" else f"redense.{key}")

    def edit(header):
        fields = header["layers"][0] if block == "layers" else header["redense"]
        if value is None:
            del fields[key]
        else:
            fields[key] = value

    rewrite_header(path, edit)
    out = tmp_path / "out"
    assert main(["eval", "--model", str(path), *digit_idx(tmp_path, 30),
                 "--out-dir", str(out)]) == 3
    error = _one_error_line(capsys)
    assert "lifted.rdnm: " + message in error and "Traceback" not in error
    assert not out.exists()


@pytest.mark.parametrize("defect", ["model-trailing", "bundle-trailing", "images-trailing",
                                    "labels-trailing", "bundle-version-1", "bundle-infinity",
                                    "bundle-nested",
                                    "model-width-1e400", "labels-magic", "labels-above-9"])
def test_a_malformed_input_file_exits_3(tmp_path, capsys, defect):
    model = _lifted_model(tmp_path)
    bundle = tmp_path / "b.rdfb"
    rng = np.random.default_rng(5)
    save_feature_bundle(bundle, datamod.FeatureBundle(
        rng.standard_normal((20, 3)), np.eye(2)[np.arange(20) % 2], rng.standard_normal((2, 3)),
        np.zeros(2), {}))
    images, labels = tmp_path / "i", tmp_path / "l"
    write_idx(images, labels, *gen_digit_images(20, seed=1))
    out = tmp_path / "out"
    argv = {"model": ["eval", "--model", model, "--images", images, "--labels", labels],
            "bundle": ["redense", "--bundle", bundle, "--epochs", "1"],
            "images": ["train", "--images", images, "--labels", labels, "--epochs", "1"],
            "labels": ["train", "--images", images, "--labels", labels, "--epochs", "1"]}
    kind, what = defect.split("-", 1)
    path = {"model": model, "bundle": bundle, "images": images, "labels": labels}[kind]
    if what == "trailing":
        path.write_bytes(path.read_bytes() + b"\x00")
        message = "trailing bytes"
    elif what == "version-1":
        # a whole version-1 bundle: a u64 shape before each 1 x 1 matrix, no metadata
        path.write_bytes(b"RDFB" + struct.pack("<I", 1) + struct.pack("<QQd", 1, 1, 0.5) * 3
                         + struct.pack("<I", 0))
        message = "unsupported version 1"
    elif what == "infinity":
        rewrite_header(path, lambda header: header["features"].__setitem__(0, float("inf")))
        message = "Infinity is not a JSON number"
    elif what == "nested":
        # past the recursion limit of Python's JSON parser
        header = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"RDFB" + struct.pack("<II", 3, len(header)) + header)
        message = "unparseable header: maximum recursion depth exceeded"
    elif what == "magic":
        path.write_bytes(struct.pack(">I", datamod.IDX_IMAGES_MAGIC) + path.read_bytes()[4:])
        message = "bad label magic 0x00000803"
    elif what == "above-9":
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + bytes([10]) + raw[9:])
        message = "label 10 out of range 0..9"
    else:
        rewrite_header(path, lambda header: header.update(input_width="1e400"),
                       replace=[(b'"1e400"', b"1e400")])
        message = "invalid header"
    assert main([str(a) for a in [*argv[kind], "--out-dir", out]]) == 3
    assert message in _one_error_line(capsys)
    assert not out.exists()


def _small_bundle(tmp_path, bias=(0.0, 0.0)):
    path = tmp_path / "b.rdfb"
    rng = np.random.default_rng(5)
    save_feature_bundle(path, datamod.FeatureBundle(
        rng.standard_normal((5, 3)), np.eye(len(bias))[np.arange(5) % len(bias)],
        rng.standard_normal((len(bias), 3)), np.array(bias), {"source_model": "m.rdnm"}))
    return path


@pytest.mark.parametrize("kind, key, value, message", [
    ("model", "width", 5.0, "layers[0].width must be a JSON int"),
    ("model", "n_outputs", "10", "n_outputs must be a JSON int"),
    ("model", "slope", 10**400, "layers[0].slope must be within binary64's range"),
    ("bundle", "features", "53", "features must be a JSON list"),
    ("model", "layers", {}, "layers must be a JSON list"),
    ("bundle", "metadata", [["source_model", "m.rdnm"]], "metadata must be a JSON dict"),
    ("model", "comment", "x", "comment is not a declared key"),
    ("bundle", "comment", "x", "comment is not a declared key")])
def test_a_header_field_of_another_json_type_exits_3(tmp_path, capsys, kind, key, value,
                                                     message):
    # each of the first three values names what the file holds (5 hidden units, 10
    # outputs, a 5 x 3 feature block), so int() or iterating a string would load it;
    # "layers": {} would read as no layers, the metadata's pairs as its dict; no float
    # holds 10**400, which the slope's finiteness check could not take
    model = _lifted_model(tmp_path)
    bundle = _small_bundle(tmp_path)
    path, argv = {"model": (model, ["eval", "--model", model, *digit_idx(tmp_path, 30)]),
                  "bundle": (bundle, ["redense", "--bundle", bundle, "--epochs", "1"])}[kind]
    rewrite_header(path, lambda h: (h["layers"][0] if key in ("width", "slope") else h)
                   .update({key: value}))
    out = tmp_path / "out"
    assert main([str(a) for a in [*argv, "--out-dir", out]]) == 3
    assert f"{path.name}: invalid header: {message}" in _one_error_line(capsys)
    assert not out.exists()


def test_a_version_3_bundle_without_output_bias_exits_3(tmp_path, capsys):
    # an exporter that leaves out a nonzero bias must not train against b = 0
    path = _small_bundle(tmp_path, bias=(3.0, -1.0, 0.5))
    rewrite_header(path, lambda h: h.pop("output_bias"))
    path.write_bytes(path.read_bytes()[:-3 * 8])
    out = tmp_path / "out"
    assert main(["redense", "--bundle", str(path), "--epochs", "1", "--out-dir", str(out)]) == 3
    assert "b.rdfb: invalid header: output_bias is missing" in _one_error_line(capsys)
    assert not out.exists()


def _header_fields(node, where=""):
    """(name, value, parent, key in parent) for every key of an object and entry of a list
    under a parsed header, named as the reader names them: layers[0].width, redense.m."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        name = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
        yield name, value, node, key
        yield from _header_fields(value, name)


def _json_type(value):
    return {bool: "bool", int: "int", float: "float", str: "str", list: "list",
            dict: "dict", type(None): "null"}[type(value)]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=3)


@given(data=st.data())
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_header_field_of_another_type_missing_or_beside_an_unknown_key_exits_3(
        tmp_path_factory, capsys, data):
    # every field of a plain model, a lifted model and a bundle: another JSON type
    # (a float field takes an integer, and redense null or an object), the key
    # dropped, or an unknown key beside it; the metadata's own keys are free
    tmp = tmp_path_factory.mktemp("headers")
    plain = tmp / "plain.rdnm"
    save_model(plain, nn.make_mlp(784, [5], 10, seed=1), Loss("softmax_cross_entropy"))
    data_flags = digit_idx(tmp, 30)
    files = [(plain, ["eval", "--model", plain, *data_flags]),
             (_lifted_model(tmp), ["eval", "--model", tmp / "lifted.rdnm", *data_flags]),
             (_small_bundle(tmp), ["redense", "--bundle", tmp / "b.rdfb", "--epochs", "1"])]
    out = tmp / "out"
    for path, argv in files:
        original = path.read_bytes()
        (length,) = struct.unpack("<I", original[8:12])
        for name, value, parent, key in _header_fields(json.loads(original[12:12 + length])):
            accepted = {_json_type(value)} | ({"int"} if isinstance(value, float) else set())
            if name == "redense":
                accepted |= {"dict", "null"}
            other = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) not in accepted),
                              label=name)
            edits = [(name, "retype", other)]
            if isinstance(parent, dict) and not name.startswith("metadata."):
                edits += [(name, "drop", None), (name[:-len(key)] + "unknown", "add", 0)]
            for field, edit, new in edits:
                path.write_bytes(original)

                def change(header, name=name, key=key, edit=edit, new=new):
                    target = next(p for n, _, p, _ in _header_fields(header) if n == name)
                    if edit == "drop":
                        del target[key]
                    elif edit == "add":
                        target["unknown"] = new
                    else:
                        target[key] = new

                rewrite_header(path, change)
                assert main([str(a) for a in [*argv, "--out-dir", out]]) == 3, (name, edit, new)
                error = _one_error_line(capsys)
                assert f"{path.name}: invalid header: {field}" in error, (edit, new, error)
                assert not out.exists()
        path.write_bytes(original)


def test_redense_exits_3_on_a_bundle_whose_output_weight_is_zero(tmp_path, capsys):
    rng = np.random.default_rng(5)
    bundle = datamod.FeatureBundle(rng.standard_normal((20, 3)), np.eye(2)[np.arange(20) % 2],
                                   np.zeros((2, 3)), np.zeros(2), {})
    save_feature_bundle(tmp_path / "zero.rdfb", bundle)
    out = tmp_path / "out"
    assert main(["redense", "--bundle", str(tmp_path / "zero.rdfb"), "--epochs", "1",
                 "--out-dir", str(out)]) == 3
    assert "output weight is zero" in _one_error_line(capsys)
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_exit_codes():
    """(exception name, exit code) for every exception README's exit-code table names."""
    text = README.read_text()
    table = text[text.index("| exit | meaning | raised as |"):].split("\n\n")[0]
    return [(name, int(code)) for code, _, raised in
            (row.strip("|").split(" | ") for row in table.splitlines()[2:])
            for name in re.findall(r"`(\w+)`", raised) if name.endswith("Error")]


def _exception(name):
    return getattr(errors, name, None) or getattr(builtins, name)


@pytest.mark.parametrize("name, code", _readme_exit_codes())
def test_each_exception_exits_with_the_code_readme_documents(tmp_path, capsys, monkeypatch,
                                                             name, code):
    rng = np.random.default_rng(6)
    bundle = datamod.FeatureBundle(rng.standard_normal((10, 3)), np.eye(2)[np.arange(10) % 2],
                                   rng.standard_normal((2, 3)), np.zeros(2), {})
    save_feature_bundle(tmp_path / "b.rdfb", bundle)
    exc_type = _exception(name)

    def raising_build(*args, **kwargs):
        raise exc_type(*(("raised by build", 1) if exc_type is errors.TrainingDivergedError
                         else ("raised by build",)))

    monkeypatch.setattr(layermod, "build", raising_build)
    out = tmp_path / "out"
    assert main(["redense", "--bundle", str(tmp_path / "b.rdfb"), "--out-dir", str(out)]) == code
    assert "raised by build" in _one_error_line(capsys)
    assert not out.exists()


def test_readme_exit_table_names_every_error_type():
    documented = {name for name, _ in _readme_exit_codes()}
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined <= documented


def _readme_paragraph(title):
    """README's "File formats" paragraph on a file kind, on one line."""
    text = README.read_text()
    return " ".join(text[text.index(f"**{title} ("):].split("\n\n")[0].split())


def _readme_header_keys(paragraph):
    """(versions read, {key: its object's keys, its list's length, or None}) from a
    file kind's paragraph: its version, each "Version k, ... is read" sentence, and its
    "Header keys:" sentence."""
    versions = {int(re.search(r"version (\d+)\.", paragraph)[1])}
    versions |= {int(v) for v in re.findall(r"Version (\d+), [^.]* is read", paragraph)}
    keys = {}
    for token in re.findall(r"`([^`]+)`", paragraph.split("Header keys: ")[1].split(". ")[0]):
        if token.startswith("{"):
            keys[key] = set(token.strip("{}").split(", "))
        elif token.startswith("["):
            keys[key] = token.count(",") + 1
        elif token != "null":
            key = token
            keys[key] = None
    return versions, keys


def _declared_keys(declared):
    """A header declaration in _readme_header_keys' form."""
    keys = {}
    for key, value in declared.items():
        value = value[-1] if isinstance(value, tuple) else value  # (None, s)
        value = value[0] if isinstance(value, list) and value[-1:] == [...] else value  # [s, ...]
        keys[key] = (len(value) if isinstance(value, list)
                     else set(value) if isinstance(value, dict) and str not in value else None)
    return keys


def test_readme_header_keys_are_the_declared_keys():
    versions, keys = _readme_header_keys(_readme_paragraph("Model"))
    assert set(persist.MODEL_HEADERS) == versions == {persist.MODEL_VERSION}
    assert _declared_keys(persist.MODEL_HEADERS[persist.MODEL_VERSION]) == keys
    paragraph = _readme_paragraph("Feature bundle")
    versions, keys = _readme_header_keys(paragraph)
    assert set(datamod.BUNDLE_HEADERS) == versions == {2, datamod.BUNDLE_VERSION}
    assert _declared_keys(datamod.BUNDLE_HEADERS[datamod.BUNDLE_VERSION]) == keys
    # version 2 is version 3 without the key README says it lacks
    (absent,) = re.findall(r"Version 2, [^.]* has no `(\w+)` key", paragraph)
    del keys[absent]
    assert _declared_keys(datamod.BUNDLE_HEADERS[2]) == keys


def test_readme_names_exactly_the_flags_the_subcommands_define():
    # pip's own flags in the install block are not the tool's
    text = "\n".join(line for line in README.read_text().splitlines()
                     if not line.startswith("pip "))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {flag for p in subparsers.choices.values() for a in p._actions
               for flag in a.option_strings if a.dest != "help"}
    assert (sorted(named - defined), sorted(defined - named)) == ([], [])


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    train = parser.parse_args(["train", *_ABSENT_IDX])
    assert ((train.lr, train.epochs, train.batch_size, train.seed)
            == dataclasses.astuple(nn.TrainConfig()))
    assert (train.leaky_slope, train.huber_delta) == (nn.Activation.slope, nn.Loss.delta)
    assert train.train_fraction == datamod.SplitSpec().train_fraction
    with pytest.raises(SystemExit):
        parser.parse_args(["train", *_ABSENT_IDX, "--activation", "tanh"])
    for kind in nn.ACTIVATION_KINDS:
        assert parser.parse_args(["train", *_ABSENT_IDX, "--activation", kind]).activation == kind
    for argv in (["redense", "--bundle", "b"], ["sweep-m", "--bundle", "b", "--m-values", "8"]):
        args = parser.parse_args(argv)
        assert (args.lr, args.epochs, args.seed) == (*dataclasses.astuple(layermod.HeadConfig()), 0)
    assert parser.parse_args(["features", "--model", "m", *_ABSENT_IDX, "--out", "o"]).seed == 0


def test_idx_commands_hold_pixels_as_codes(tmp_path, capsys):
    # per 784-pixel image the codes take 784 bytes, a float32 copy 4 x 784 and a
    # float64 copy 8 x 784; train and features decode chunk by chunk
    def peaks(j):
        images, labels = gen_digit_images(j, seed=9)
        d = tmp_path / str(j)
        d.mkdir()
        write_idx(d / "images", d / "labels", images, labels)
        data = ["--images", str(d / "images"), "--labels", str(d / "labels")]
        argvs = [["train", *data, "--hidden", "8", "--epochs", "1", "--batch-size", "256",
                  "--out-dir", str(d)],
                 ["features", "--model", str(d / "model.rdnm"), *data, "--out", str(d / "f.rdfb")]]
        out = []
        for argv in argvs:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        return np.array(out)

    train, features = (peaks(3000) - peaks(1000)) / 2000
    assert train < 2 * 784
    assert features < 4 * 784


def test_every_manifest_records_the_peak_rss(tmp_path, capsys):
    bundle_path = _pipeline_to_bundle(tmp_path, capsys)
    model = str(tmp_path / "model.rdnm")
    data = train_data(tmp_path)
    out = tmp_path / "out"
    runs = {
        "train": (["train", *data, "--hidden", "4", "--epochs", "1", "--out-dir", str(out)],
                  out / "train_manifest.json"),
        "features": (["features", "--model", model, *data, "--out", str(out / "f.rdfb")],
                     out / "f.rdfb.manifest.json"),
        "redense": (["redense", "--bundle", str(bundle_path), "--epochs", "1",
                     "--out-dir", str(out)], out / "redense_manifest.json"),
        "sweep-m": (["sweep-m", "--bundle", str(bundle_path), "--m-values", "8", "--seeds", "1",
                     "--epochs", "1", "--out-dir", str(out)], out / "sweep_manifest.json"),
        "eval": (["eval", "--model", model, *data, "--out-dir", str(out)],
                 out / "eval_manifest.json"),
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(runs) == sorted(subparsers.choices)
    for argv, manifest_path in runs.values():
        assert main(argv) == 0
        with open(manifest_path) as f:
            manifest = json.load(f)
        peak = manifest["peak_rss_mib"]
        assert isinstance(peak, float) and 0.0 < peak < np.inf
        env = manifest["environment"]
        assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
        assert (env["num_threads"], env["blas_core"]) == cli._openblas()
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}


def test_environment_records_the_thread_count_openblas_runs_with():
    # a child process, as OpenBLAS reads its thread count when numpy loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    script = "import json; from redense import cli; print(json.dumps(cli._environment()))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    recorded = json.loads(out.stdout)
    if "openblas" in ((recorded["blas"] or {}).get("name") or ""):
        assert recorded["num_threads"] == 1
        assert isinstance(recorded["blas_core"], str) and recorded["blas_core"]
    else:
        assert recorded["num_threads"] in (None, 1)
