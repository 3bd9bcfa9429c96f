"""Dense linear algebra primitives: norms, pseudo-inverse products, seeded sampling.

All public functions take and return 2-D float64 arrays ("matrices") and
validate finiteness at the boundary. Randomness always flows from an explicit
integer seed so that repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import DecompositionError, NonFiniteError, ShapeError

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a C-ordered 2-D float64 array, rejecting non-finite entries."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    check_finite(a, name)
    return a


def check_finite(a: Matrix, name: str = "matrix") -> Matrix:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a


def frobenius_norm(a: Matrix) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(a))))


def pinv_product(b: Matrix, a: Matrix, max_condition: float) -> tuple[Matrix | None, float]:
    """(b pinv(a), cond(a)) for a tall a, from a Q-less QR and one triangular inverse.

    a (m x n, m >= n) is factored once, a = QT, keeping only the n x n
    triangle T and no m x n orthogonal factor; T is inverted once. cond(a) is
    the Frobenius condition number |a|_F |pinv(a)|_F = |T|_F |T^-1|_F, exact
    up to rounding; it lies between the 2-norm condition number and n times
    it. It is inf when T has a zero on its diagonal (a is rank-deficient) or
    when T^-1 or a norm overflows; then, and beyond max_condition, the
    product is not formed and None is returned in its place.

    Otherwise X = b pinv(a), the minimum-norm solution of X a = b, comes from
    the corrected seminormal equations (Bjorck, Numerical Methods for Least
    Squares Problems, 2.5): X' = a T^-1 T^-T b', refined once on the residual
    b' - a'X' with the same T^-1, so every solve is a matrix product. That
    matches an SVD-based pinv to O(eps cond); without the refinement the
    residual grows like cond^2.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    rows, cols = a.shape
    if not 1 <= cols <= rows:
        raise ShapeError(f"pinv_product needs a tall input with m >= n >= 1, got {rows}x{cols}")
    try:
        t = np.linalg.qr(a, mode="r")
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"factoring the {rows}x{cols} input failed: {exc}") from exc
    if not np.diagonal(t).all():
        return None, float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
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
    """T^-1 for an upper-triangular T with a nonzero diagonal, by blocked recursion.

    With T = [[A, B], [0, D]], T^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]: the
    half-size inverses recurse, and the coupling block is two matrix
    products. np.linalg.inv takes the leaves; its LU of a triangle pivots on
    the diagonal and fills nothing in. Like the standard triangular inversion
    methods (Du Croz and Higham, IMA J. Numer. Anal. 12, 1992), the computed X
    has |XT - I| <= c n eps |X||T|.
    """
    n = t.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(t)
    k = n // 2
    a_inv = _triangular_inverse(t[:k, :k])
    d_inv = _triangular_inverse(t[k:, k:])
    return np.block([[a_inv, -(a_inv @ t[:k, k:]) @ d_inv],
                     [np.zeros((n - k, k)), d_inv]])


def sample_gaussian(rows: int, cols: int, seed: int) -> Matrix:
    """i.i.d. standard-normal matrix, reproducible from the seed."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"sample_gaussian needs positive dimensions, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))
