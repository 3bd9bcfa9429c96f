import numpy as np
import pytest

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


def read_curve(path):
    """Rows of a curve file as (epoch, train_loss, test_loss, test_accuracy)."""
    with open(path) as f:
        assert f.readline().strip() == CURVE_HEADER
        return [(int(e), float(tr), float(te), float(acc))
                for e, tr, te, acc in (line.strip().split(",") for line in f)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
