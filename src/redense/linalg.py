"""Dense linear algebra primitives: norms, pseudo-inverse products, seeded sampling.

All public functions take and return 2-D float64 arrays ("matrices") and
validate finiteness at the boundary. Randomness always flows from an explicit
integer seed so that repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a C-ordered 2-D float64 array, rejecting non-finite entries."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    check_finite(a, name)
    return a


def check_finite(a: Matrix, name: str = "matrix") -> Matrix:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a


def frobenius_norm(a: Matrix, out: Matrix | None = None) -> float:
    """sqrt of the sum of squared entries; the squares go into out if given, which may be a."""
    return float(np.sqrt(np.sum(np.square(a, out=out))))


def row_blocks(rows: int, most: int):
    """[lo, hi) bounds of balanced row blocks of at most max(most, 3) rows. None has
    one row unless rows is 1: a 1-row block would be a matrix-vector product, which
    rounds differently."""
    parts = max(1, min(-(-rows // max(most, 2)), rows // 2))
    bounds = [rows * k // parts for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def pinv_product(b: Matrix, a: Matrix, max_condition: float) -> tuple[Matrix | None, float]:
    """(b pinv(a), cond_F(a)) for a tall a (m >= n), from the Cholesky factor T of a'a.

    cond_F(a) = |a|_F |pinv(a)|_F = |T|_F |T^-1|_F. It is inf when a'a
    under- or overflows, the Cholesky factorization fails, or T^-1 or a norm
    overflows; then, and above max_condition, no product is formed and None
    takes its place. Otherwise X' = a T^-1 T^-T b' is refined once on the
    residual b' - a'X' (Bjorck's corrected seminormal equations); README
    derives its error bound.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    rows, cols = a.shape
    if not 1 <= cols <= rows:
        raise ShapeError(f"pinv_product needs a tall input with m >= n >= 1, got {rows}x{cols}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            t = np.linalg.cholesky(a.T @ a).T
        except np.linalg.LinAlgError:
            return None, float("inf")
        t_inv = _triangular_inverse(t)
        cond = frobenius_norm(t) * frobenius_norm(t_inv)
    if not np.isfinite(cond):
        return None, float("inf")
    if cond > max_condition:
        return None, cond
    xt = a @ (t_inv @ (t_inv.T @ b.T))
    xt += a @ (t_inv @ (t_inv.T @ (b.T - a.T @ xt)))
    return xt.T, cond


# Blocks this narrow are inverted whole; wider ones are split in two.
_INVERSE_LEAF = 64


def _triangular_inverse(t: Matrix) -> Matrix:
    """T^-1 for an upper-triangular T with a nonzero diagonal, by blocked recursion:
    [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]. np.linalg.inv takes
    the leaves; its LU of a triangle pivots on the diagonal and fills nothing in."""
    n = t.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(t)
    k = n // 2
    a_inv = _triangular_inverse(t[:k, :k])
    d_inv = _triangular_inverse(t[k:, k:])
    return np.block([[a_inv, -(a_inv @ t[:k, k:]) @ d_inv],
                     [np.zeros((n - k, k)), d_inv]])


def sample_gaussian(rows: int, cols: int, seed: int) -> Matrix:
    """i.i.d. standard-normal matrix from the seed, filled row by row: the first
    rows of a draw are the narrower draw at the same seed."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"sample_gaussian needs positive dimensions, got {rows}x{cols}")
    return np.random.default_rng(seed).standard_normal((rows, cols))
