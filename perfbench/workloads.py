"""The benchmark's workloads: seeded set-up, the timed body, and output checks.

Every workload drives redense through its command-line entry point,
``redense.cli.main``, in the calling process, exactly as
``scripts/run_digits.py`` does. Set-up generates all inputs from the seed
with the package's own generators; the body is the part users wait for.

An operation is one CLI call or one sweep (m, seed) run. It fails on a
nonzero exit, on ``guarantee_holds=false``, on a final training loss above
the base network's cross-entropy loss (the paper's guarantee, read from the
bundle's ``ce_train_loss``), or when the saved lifted model does not reload
through ``eval`` with a finite loss.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from redense import cli
from redense.data import gen_digit_images, load_feature_bundle, write_idx

F64 = 8
PIXELS = 28 * 28

# Shapes per workload and scale. "full" is what the benchmark measures;
# "tiny" only exercises every code path, for the smoke test.
PARAMS = {
    "digits_pipeline": {
        # scripts/run_digits.py defaults on its 10k/2k generated IDX corpus
        "full": dict(train=10_000, test=2_000, hidden=64, epochs=20, batch=128,
                     head_lr="1e-5", head_epochs=200),
        "tiny": dict(train=300, test=100, hidden=16, epochs=2, batch=64,
                     head_lr="1e-5", head_epochs=5),
    },
    "head_wide": {
        # the base network is set-up: trained just enough that held-out
        # accuracy varies little from seed to seed
        "full": dict(train=10_000, test=2_000, hidden=64, epochs=5, batch=128,
                     m=1024, head_lr="1e-5", head_epochs=50),
        "tiny": dict(train=300, test=100, hidden=16, epochs=2, batch=64,
                     m=64, head_lr="1e-5", head_epochs=5),
    },
    "sweep_wide": {
        "full": dict(train=2_000, test=1_000, hidden=512, epochs=8, batch=128,
                     m_values=(512, 1024, 2048), seeds=3, head_lr="1e-4", head_epochs=3),
        "tiny": dict(train=200, test=100, hidden=32, epochs=2, batch=64,
                     m_values=(32, 64), seeds=2, head_lr="1e-4", head_epochs=3),
    },
}

@dataclass
class Outcome:
    """What one body run produced, judged after the timed region ends."""

    ops: list = field(default_factory=list)   # [{"op", "ok", "reason"}]
    final_loss_ratio: float = math.nan
    test_accuracy: float = math.nan
    sha256: dict = field(default_factory=dict)

    def record(self, op, reason=None):
        self.ops.append({"op": op, "ok": reason is None, "reason": reason})


def run_cli(argv):
    """Run one redense subcommand in-process; return (exit code, key=value output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    values = dict(line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line)
    return code, values


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_corpus(directory, seed, p):
    images, labels = gen_digit_images(p["train"] + p["test"], seed=seed)
    n = p["train"]
    write_idx(directory / "train-images", directory / "train-labels", images[:n], labels[:n])
    write_idx(directory / "test-images", directory / "test-labels", images[n:], labels[n:])


def _train_args(directory, seed, p, out_dir):
    return ["train", "--images", directory / "train-images", "--labels", directory / "train-labels",
            "--test-images", directory / "test-images", "--test-labels", directory / "test-labels",
            "--hidden", p["hidden"], "--loss", "ce", "--lr", "1e-3", "--epochs", p["epochs"],
            "--batch-size", p["batch"], "--seed", seed, "--out-dir", out_dir]


def _features_args(model, directory, split, out):
    return ["features", "--model", model, "--images", directory / f"{split}-images",
            "--labels", directory / f"{split}-labels", "--no-split", "--out", out]


def _check_setup_call(argv):
    code, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {code}")


def setup(workload, directory: Path, seed: int, scale: str):
    """Generate every input of the workload from the seed into directory."""
    p = PARAMS[workload][scale]
    directory.mkdir(parents=True, exist_ok=True)
    _write_corpus(directory, seed, p)
    if workload == "digits_pipeline":
        return
    # a base network and its feature bundles; the body starts from these
    _check_setup_call(_train_args(directory, seed, p, directory))
    model = directory / "model.rdnm"
    _check_setup_call(_features_args(model, directory, "train", directory / "train.rdfb"))
    if workload == "sweep_wide":
        _check_setup_call(_features_args(model, directory, "test", directory / "test.rdfb"))


def input_digest(directory: Path):
    """One sha256 over every set-up file, to show the seed fixes the inputs."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.is_file() and not path.name.endswith(".json"):   # manifests hold timestamps
            digest.update(path.name.encode())
            digest.update(sha256(path).encode())
    return digest.hexdigest()


def largest_arrays(workload, scale):
    """Bytes of each workload's largest float64 arrays, computed from the shapes."""
    p = PARAMS[workload][scale]
    if workload == "digits_pipeline":
        return {"train_inputs": p["train"] * PIXELS * F64,
                "train_lift": p["train"] * 2 * p["hidden"] * F64}
    if workload == "head_wide":
        return {"train_inputs": p["train"] * PIXELS * F64,
                "train_lift": p["train"] * 2 * p["m"] * F64}
    return {"train_lift": p["train"] * 2 * max(p["m_values"]) * F64,
            "eval_lift": p["test"] * 2 * max(p["m_values"]) * F64}


def ops_per_body(workload, scale):
    p = PARAMS[workload][scale]
    if workload == "digits_pipeline":
        return 5
    if workload == "head_wide":
        return 2
    return 1 + len(p["m_values"]) * p["seeds"]


def body(workload, inputs: Path, out: Path, seed: int, scale: str):
    """The timed part. Returns the raw CLI results, checked later by judge()."""
    p = PARAMS[workload][scale]
    calls = []

    def call(name, argv):
        calls.append((name, *run_cli(argv)))

    if workload == "digits_pipeline":
        call("train", _train_args(inputs, seed, p, out))
        model = out / "model.rdnm"
        call("features_train", _features_args(model, inputs, "train", out / "train.rdfb"))
        call("features_test", _features_args(model, inputs, "test", out / "test.rdfb"))
        call("redense", ["redense", "--bundle", out / "train.rdfb",
                         "--eval-bundle", out / "test.rdfb", "--model", model,
                         "--lr", p["head_lr"], "--epochs", p["head_epochs"],
                         "--seed", seed, "--out-dir", out])
        call("eval", _eval_args(out, inputs))
    elif workload == "head_wide":
        call("redense", ["redense", "--bundle", inputs / "train.rdfb",
                         "--model", inputs / "model.rdnm", "--m", p["m"],
                         "--lr", p["head_lr"], "--epochs", p["head_epochs"],
                         "--seed", seed, "--out-dir", out])
    else:
        call("sweep-m", ["sweep-m", "--bundle", inputs / "train.rdfb",
                         "--eval-bundle", inputs / "test.rdfb",
                         "--m-values", ",".join(str(m) for m in p["m_values"]),
                         "--seeds", p["seeds"], "--lr", p["head_lr"],
                         "--epochs", p["head_epochs"], "--seed", seed, "--out-dir", out])
    return calls


def _eval_args(out, inputs):
    return ["eval", "--model", out / "model_with_redense.rdnm",
            "--images", inputs / "test-images", "--labels", inputs / "test-labels",
            "--out-dir", out]


def _base_ce_loss(bundle_path):
    return float(load_feature_bundle(bundle_path).metadata["ce_train_loss"])


def _check_redense(outcome, values, base):
    """Guarantee checks on one redense call; returns its final/base loss ratio."""
    if values.get("guarantee_holds") != "true":
        outcome.record("redense", "guarantee_holds is not true")
        return math.nan
    final = float(values["final_loss"])
    if final > base:
        outcome.record("redense", f"final training loss {final!r} above base CE loss {base!r}")
    else:
        outcome.record("redense")
    return final / base


def _check_eval(outcome, code, values):
    """The saved lifted model must reload through eval with a finite loss."""
    loss = float(values.get("redense_loss", "nan"))
    if code != 0:
        outcome.record("eval", f"exit {code}")
    elif not math.isfinite(loss):
        outcome.record("eval", f"redense_loss {loss!r} is not finite")
    else:
        outcome.record("eval")
        return float(values["redense_accuracy"])
    return math.nan


def judge(workload, calls, inputs: Path, out: Path, seed: int, scale: str) -> Outcome:
    """Check every operation's outputs; runs after the timed region."""
    outcome = Outcome()
    by_name = {}
    for name, code, values in calls:
        by_name[name] = (code, values)
        if name not in ("redense", "eval", "sweep-m"):
            outcome.record(name, f"exit {code}" if code != 0 else None)

    if workload in ("digits_pipeline", "head_wide"):
        bundle = (out if workload == "digits_pipeline" else inputs) / "train.rdfb"
        code, values = by_name["redense"]
        if code != 0:
            outcome.record("redense", f"exit {code}")
        else:
            outcome.final_loss_ratio = _check_redense(outcome, values, _base_ce_loss(bundle))
            outcome.sha256 = {"model": sha256(out / "model_with_redense.rdnm"),
                              "curve": sha256(out / "redense_curve.csv")}
        if workload == "head_wide":
            by_name["eval"] = run_cli(_eval_args(out, inputs)) if code == 0 else (code, {})
        outcome.test_accuracy = _check_eval(outcome, *by_name["eval"])
        return outcome

    _judge_sweep(outcome, by_name["sweep-m"][0], inputs, out, seed, PARAMS[workload][scale])
    return outcome


def _judge_sweep(outcome, code, inputs, out, seed, p):
    expected = [(m, seed + s) for m in p["m_values"] for s in range(p["seeds"])]
    table = out / "sweep.csv"
    if code != 0 or not table.exists():
        outcome.record("sweep-m", f"exit {code}")
        for m, s in expected:
            outcome.record(f"m={m},seed={s}", "no result: the sweep exited early")
        return
    outcome.record("sweep-m")
    base = _base_ce_loss(inputs / "train.rdfb")
    with open(table) as f:
        rows = [line.strip().split(",") for line in f.readlines()[1:]]
    ratios, accuracies = [], []
    for m, run_seed, _eps, final, accuracy in rows:
        final = float(final)
        op = f"m={m},seed={run_seed}"
        if final > base:
            outcome.record(op, f"final training loss {final!r} above base CE loss {base!r}")
        else:
            outcome.record(op)
        ratios.append(final / base)
        accuracies.append(float(accuracy))
    for _ in range(len(expected) - len(rows)):
        outcome.record("sweep-row", "missing row in sweep.csv")
    outcome.final_loss_ratio = sum(ratios) / len(ratios)
    outcome.test_accuracy = sum(accuracies) / len(accuracies)
    outcome.sha256 = {"table": sha256(table)}
