import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import near_singular
from redense.errors import ShapeError
from redense.layer import MAX_CONDITION
from redense.linalg import (_INVERSE_LEAF, _triangular_inverse, as_matrix, frobenius_norm,
                            pinv_product, sample_gaussian)


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


EPS = np.finfo(np.float64).eps


def frobenius_cond(a):
    """The oracle for pinv_product's cond: |a|_F |pinv(a)|_F, pinv from an SVD."""
    return np.linalg.norm(a) * np.linalg.norm(np.linalg.pinv(a))


def pinv_of(a):
    """pinv(a) from pinv_product with b = I, for a of either orientation."""
    if a.shape[0] >= a.shape[1]:
        return pinv_product(np.eye(a.shape[1]), a, np.inf)
    # pinv(a) = pinv(a')'
    ap, cond = pinv_product(np.eye(a.shape[0]), a.T, np.inf)
    return ap.T, cond


def test_pinv_identity():
    for n in (1, 3, 10):
        ap, cond = pinv_product(np.eye(n), np.eye(n), np.inf)
        assert np.allclose(ap, np.eye(n), atol=1e-14)
        assert cond == frobenius_cond(np.eye(n)) == pytest.approx(n, rel=1e-15)
        b = np.random.default_rng(n).standard_normal((4, n))
        assert np.allclose(pinv_product(b, np.eye(n), np.inf)[0], b, atol=1e-14)


def test_pinv_rectangular_diagonal():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    ap, cond = pinv_product(np.eye(2), a, np.inf)
    assert np.allclose(ap, expected, atol=1e-14)
    assert np.allclose(ap, np.linalg.pinv(a), atol=1e-14)
    assert cond == frobenius_cond(a) == pytest.approx(2.5, rel=1e-15)  # sqrt(5) sqrt(1.25)


def test_pinv_left_inverse_of_tall_gaussian():
    r = sample_gaussian(8, 3, seed=11)
    assert np.abs(pinv_product(np.eye(3), r, np.inf)[0] @ r - np.eye(3)).max() < 1e-10


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
    ap, cond = pinv_of(a)
    assert np.abs(a @ ap @ a - a).max() < 1e-9
    assert np.abs(ap @ a @ ap - ap).max() < 1e-9
    assert np.abs(ap - np.linalg.pinv(a)).max() < 1e-9
    # singular values drawn from [0.5, 2]: each of |a|_F^2 and |pinv(a)|_F^2 is at most 4k
    assert cond <= 4.0 * min(shape) * (1 + 1e-12)
    assert cond == pytest.approx(frobenius_cond(a), rel=1e-12)


@pytest.mark.parametrize("n,m", [(4, 4), (4, 8), (32, 32), (32, 64), (128, 256)])
def test_pinv_times_full_column_rank_is_identity(n, m):
    r = sample_gaussian(m, n, seed=n + m)
    b = np.random.default_rng(n * m).standard_normal((10, n))
    ap, cond = pinv_product(np.eye(n), r, np.inf)
    assert frobenius_norm(ap @ r - np.eye(n)) < 1e-8
    assert frobenius_norm(pinv_product(b, r, np.inf)[0] - b @ np.linalg.pinv(r)) < 1e-8
    assert cond == pytest.approx(frobenius_cond(r), rel=1e-10)


def test_pinv_rank_deficient_does_not_blow_up():
    a = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 4.0))  # rank 1
    product, cond = pinv_product(np.eye(3), a, MAX_CONDITION)
    assert product is None  # T is never solved with
    assert cond > 1e12
    zero_column = np.hstack([sample_gaussian(5, 2, seed=4), np.zeros((5, 1))])
    assert pinv_product(np.eye(3), zero_column, MAX_CONDITION) == (None, float("inf"))
    assert pinv_product(np.eye(2), np.zeros((3, 2)), MAX_CONDITION) == (None, float("inf"))


def near_singular_frobenius(rng, m, n, cond):
    """near_singular with Frobenius condition number cond, or n if cond < n.

    The spectrum geomspace(1, 1/c, n) has a Frobenius condition number that
    rises with c from n at c = 1, so c is found by bisection on log c.
    """
    def kappa_f(c):
        s = np.geomspace(1.0, 1.0 / c, n)
        return np.sqrt(np.sum(s * s) * np.sum(1.0 / (s * s)))

    lo, hi = 0.0, np.log(max(cond, 1.0))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kappa_f(np.exp(mid)) < cond else (lo, mid)
    return near_singular(rng, m, n, np.exp(lo))


@given(n=st.integers(1, 8), extra=st.integers(0, 8), q=st.integers(1, 4),
       log_cond=st.floats(0.0, np.log10(0.99 * MAX_CONDITION)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
@example(n=8, extra=0, q=3, log_cond=np.log10(0.99 * MAX_CONDITION), seed=0)
@example(n=8, extra=8, q=3, log_cond=np.log10(0.99 * MAX_CONDITION), seed=1)
def test_pinv_product_matches_svd_oracle_up_to_eps_cond(n, extra, q, log_cond, seed):
    rng = np.random.default_rng(seed)
    m = n + extra
    r = near_singular_frobenius(rng, m, n, 10.0 ** log_cond)
    ohat = rng.standard_normal((q, n))
    p, cond = pinv_product(ohat, r, MAX_CONDITION)
    oracle_cond = frobenius_cond(r)
    assert oracle_cond <= 0.99 * MAX_CONDITION * (1 + 1e-6)
    # T'T = r'r + E with |E|_2 <= (m + n + 1) eps |r|_2^2 (the Gram product's
    # and the Cholesky's rounding), so rho = (m + n + 1) eps cond_2^2 bounds
    # |(r'r)^-1 E|. cond's |T^-1|_F is off by up to rho relative. The
    # seminormal solve leaves P and its residual off by rho, the refinement
    # multiplies that by rho again, and every step adds eps cond_2 rounding.
    cond_2 = np.linalg.cond(r)
    rounding = 4 * (m + n) * EPS * cond_2
    rho = (m + n + 1) * EPS * cond_2 ** 2
    assert abs(cond - oracle_cond) <= (rounding + rho) * oracle_cond
    scale = rounding + rho ** 2
    assert frobenius_norm(p - ohat @ np.linalg.pinv(r)) <= scale * frobenius_norm(p)
    assert frobenius_norm(p @ r - ohat) <= scale * frobenius_norm(ohat)


@pytest.mark.parametrize("n,m", [(64, 64), (64, 128), (256, 256), (256, 512)])
def test_pinv_product_at_the_threshold_is_accurate_to_1e_8(n, m):
    # the test above bounds the error; this is the accuracy the threshold buys
    rng = np.random.default_rng(n + m)
    r = near_singular_frobenius(rng, m, n, MAX_CONDITION)
    ohat = rng.standard_normal((10, n))
    p, cond = pinv_product(ohat, r, np.inf)
    oracle = ohat @ np.linalg.pinv(r)
    assert cond == pytest.approx(MAX_CONDITION, rel=1e-6)
    assert frobenius_norm(p - oracle) <= 1e-8 * frobenius_norm(oracle)


@given(n=st.integers(1, 3 * _INVERSE_LEAF), log_cond=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
@example(n=_INVERSE_LEAF, log_cond=8.0, seed=0)
@example(n=_INVERSE_LEAF + 1, log_cond=8.0, seed=1)
def test_triangular_inverse_residual_is_eps_cond(n, log_cond, seed):
    rng = np.random.default_rng(seed)
    t = np.linalg.qr(near_singular(rng, n, n, 10.0 ** log_cond), mode="r")
    x = _triangular_inverse(t)
    assert np.array_equal(np.tril(x, -1), np.zeros((n, n)))
    kappa_f = frobenius_norm(t) * frobenius_norm(x)
    assert frobenius_norm(x @ t - np.eye(n)) <= n * EPS * kappa_f


# at 1e-160 the Gram matrix is subnormal, not singular: the Cholesky succeeds and
# the norm of T^-1 overflows; below it the Gram matrix underflows to singular
@pytest.mark.parametrize("tiny", [1e-160, 1e-300, 1e-310])
def test_pinv_product_refuses_a_triangle_whose_inverse_overflows(tiny):
    a = np.diag([1.0, tiny, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pinv_product(np.eye(3), a, MAX_CONDITION) == (None, float("inf"))
        assert pinv_product(np.eye(3), a, np.inf) == (None, float("inf"))


def test_pinv_product_refuses_wide_input():
    with pytest.raises(ShapeError):
        pinv_product(np.eye(4), np.ones((3, 4)), np.inf)


def test_pinv_product_reports_a_failed_factorization():
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    with mock.patch("numpy.linalg.cholesky", fail), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pinv_product(np.eye(2), np.eye(3, 2), np.inf) == (None, float("inf"))


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


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_pinv_product_refuses_inputs_whose_gram_matrix_under_or_overflows(scale):
    # a well-conditioned draw, but a'a is subnormal, zero or inf: it reads as ill-conditioned
    g = sample_gaussian(6, 3, seed=5)
    b = np.random.default_rng(5).standard_normal((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pinv_product(b, scale * g, np.inf) == (None, float("inf"))
        assert pinv_product(b, scale * g, MAX_CONDITION) == (None, float("inf"))
