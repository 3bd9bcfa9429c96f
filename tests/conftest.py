import numpy as np
import pytest

from redense.errors import ShapeError
from redense.persist import CURVE_HEADER

ACCEPTANCE_RESULTS = []


def record_acceptance(name, passed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def one_hot(labels, classes):
    labels = np.asarray(labels)
    t = np.zeros((labels.shape[0], classes))
    t[np.arange(labels.shape[0]), labels] = 1.0
    return t


def random_one_hot(rng, rows, classes):
    return one_hot(rng.integers(0, classes, rows), classes)


def near_singular(rng, m, n, cond):
    """An m x n matrix with orthonormal singular vectors and condition number cond."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T


def lfp_lift(layer, features):
    """The sign-split ReLU lift [max(yR', 0) | max(-yR', 0)] of features y, built
    explicitly: the reference the half-width head in redense.layer is tested against."""
    z = features @ layer.R.T
    return np.hstack([np.maximum(z, 0.0), np.maximum(-z, 0.0)])


def lfp_reconstruct(lifted, m):
    """Invert the sign-split: top half minus bottom half."""
    cols = lifted.shape[1]
    if cols % 2 != 0:
        raise ShapeError(f"lifted matrix has odd column count {cols}")
    if cols != 2 * m:
        raise ShapeError(f"lifted matrix has {cols} columns, expected 2m={2 * m}")
    return lifted[:, :m] - lifted[:, m:]


def read_curve(path):
    """Rows of a curve file as (epoch, train_loss, test_loss, test_accuracy)."""
    with open(path) as f:
        assert f.readline().strip() == CURVE_HEADER
        return [(int(e), float(tr), float(te), float(acc))
                for e, tr, te, acc in (line.strip().split(",") for line in f)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
