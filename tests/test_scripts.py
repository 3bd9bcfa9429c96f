import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_digits(loss, out_dir):
    """scripts/run_digits.py on its generated corpus, briefly trained; its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "REDENSE_MNIST_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_digits.py"), "--loss", loss,
         "--epochs", "1", "--redense-epochs", "3", "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


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
