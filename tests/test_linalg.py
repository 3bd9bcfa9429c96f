import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redense.errors import ShapeError
from redense.linalg import as_matrix, frobenius_norm, pinv, sample_gaussian


def test_frobenius_345():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_zero_and_identity():
    assert frobenius_norm(np.zeros((4, 6))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)


@given(c=st.floats(min_value=1e-100, max_value=1e100, allow_nan=False),
       sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_frobenius_scaling(c, sign, seed):
    a = np.random.default_rng(seed).standard_normal((5, 3))
    assert frobenius_norm(sign * c * a) == pytest.approx(abs(c) * frobenius_norm(a), rel=1e-12)


def test_frobenius_scaling_by_zero():
    assert frobenius_norm(0.0 * np.random.default_rng(5).standard_normal((4, 4))) == 0.0


def test_pinv_identity():
    for n in (1, 3, 10):
        ap, cond = pinv(np.eye(n))
        assert np.allclose(ap, np.eye(n), atol=1e-14)
        assert cond == 1.0


def test_pinv_rectangular_diagonal():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    ap, cond = pinv(a)
    assert np.allclose(ap, expected, atol=1e-14)
    assert cond == 2.0


def test_pinv_left_inverse_of_tall_gaussian():
    r = sample_gaussian(8, 3, seed=11)
    assert np.abs(pinv(r)[0] @ r - np.eye(3)).max() < 1e-10


def _spectrum_matrix(rows, cols, seed):
    # orthogonal factors with singular values in [0.5, 2]: well-conditioned
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = rng.uniform(0.5, 2.0, k)
    return (u * s) @ v.T


@pytest.mark.parametrize("shape", [(4, 4), (16, 7), (7, 16), (256, 256), (256, 100), (100, 256)])
def test_penrose_conditions(shape):
    a = _spectrum_matrix(*shape, seed=shape[0] * 1000 + shape[1])
    ap, cond = pinv(a)
    assert np.abs(a @ ap @ a - a).max() < 1e-9
    assert np.abs(ap @ a @ ap - ap).max() < 1e-9
    assert cond <= 4.0 * (1 + 1e-12)  # singular values drawn from [0.5, 2]


@pytest.mark.parametrize("n,m", [(4, 4), (4, 8), (32, 32), (32, 64), (128, 256)])
def test_pinv_times_full_column_rank_is_identity(n, m):
    r = sample_gaussian(m, n, seed=n + m)
    assert frobenius_norm(pinv(r)[0] @ r - np.eye(n)) < 1e-8


def test_pinv_rank_deficient_does_not_blow_up():
    a = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 4.0))  # rank 1
    ap, cond = pinv(a)
    assert np.isfinite(ap).all()
    assert cond > 1e12
    assert np.abs(a @ ap @ a - a).max() < 1e-12


def test_sample_gaussian_deterministic():
    a = sample_gaussian(16, 9, seed=42)
    b = sample_gaussian(16, 9, seed=42)
    assert np.array_equal(a, b)


def test_sample_gaussian_seeds_differ():
    a = sample_gaussian(6, 6, seed=1)
    b = sample_gaussian(6, 6, seed=2)
    assert (a != b).any()


def test_sample_gaussian_moments():
    a = sample_gaussian(100, 100, seed=3)
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05


def test_sample_gaussian_rejects_empty():
    with pytest.raises(ShapeError):
        sample_gaussian(0, 4, seed=0)


def test_as_matrix_rejects_non_finite():
    from redense.errors import NonFiniteError
    with pytest.raises(NonFiniteError):
        as_matrix(np.array([[1.0, np.nan]]))
