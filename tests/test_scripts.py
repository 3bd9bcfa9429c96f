import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redense.data import load_feature_bundle

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """scripts/<name> on this checkout's package with REDENSE_MNIST_DIR unset; its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "REDENSE_MNIST_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_digits(loss, out_dir):
    """scripts/run_digits.py on its generated corpus, briefly trained; its stdout."""
    return run_script("run_digits.py", "--loss", loss, "--epochs", "1", "--redense-epochs", "3",
                      "--out-dir", out_dir)


@pytest.mark.parametrize("loss", ["ce", "mse", "poisson", "huber"])
def test_run_digits_writes_the_same_files_twice(tmp_path, loss):
    # the same-bits check between two commits diffs this script's stdout
    first = run_digits(loss, tmp_path / "run")
    digests = [line.split("  ") for line in first.splitlines() if "  " in line]
    assert sorted(name for _, name in digests) == sorted(
        ["model.rdnm", "curve.csv", "train.rdfb", "test.rdfb", "model_with_redense.rdnm",
         "redense_curve.csv"])
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in digests)
    assert run_digits(loss, tmp_path / "run") == first


def test_run_width_sweep_tabulates_held_out_accuracy_per_width(tmp_path):
    stdout = run_script("run_width_sweep.py", "--seeds", "2", "--out-dir", tmp_path)
    rows = [line.split() for line in stdout.strip().splitlines()[-4:]]
    widths, eps, accuracy = ([float(row[i]) for row in rows] for i in (0, 1, 3))
    assert widths == [16, 32, 48, 64]
    assert eps == sorted(eps, reverse=True) and len(set(eps)) == 4
    # scored on the 500 test images, which no step trained on; no width scores them all
    assert all(0.0 < a < 1.0 for a in accuracy)
    with open(tmp_path / "sweep_manifest.json") as f:
        results = json.load(f)["results"]
    assert (results["rows"], results["eval_source"]) == (8, "eval_bundle")
    assert load_feature_bundle(tmp_path / "test.rdfb").features.shape[0] == 500
