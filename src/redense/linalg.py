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
    """(b pinv(a), cond(a)) for a tall a, from a Q-less QR: no m x n orthogonal factor.

    a (m x n, m >= n) is factored once, a = QT, keeping only the n x n
    triangle T. cond(a) = sigma_max / sigma_min comes from T's singular values,
    which are a's; it is inf when sigma_min is zero. Beyond max_condition the
    product is not formed and None is returned in its place.

    Otherwise X = b pinv(a), the minimum-norm solution of X a = b, comes from
    the corrected seminormal equations (Bjorck, Numerical Methods for Least
    Squares Problems, 2.5): solve T'T Y = b' with two solves, set X' = a Y,
    and refine once on the residual b' - a'X'. That matches an SVD-based
    pinv to O(eps cond); without the refinement the residual grows like
    cond^2.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    rows, cols = a.shape
    if not 1 <= cols <= rows:
        raise ShapeError(f"pinv_product needs a tall input with m >= n >= 1, got {rows}x{cols}")
    try:
        t = np.linalg.qr(a, mode="r")
        s = np.linalg.svd(t, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
        if not cond <= max_condition:
            return None, cond
        xt = a @ _seminormal_solve(t, b.T)
        xt += a @ _seminormal_solve(t, b.T - a.T @ xt)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"factoring the {rows}x{cols} input failed: {exc}") from exc
    return xt.T, cond


def _seminormal_solve(t: Matrix, rhs: Matrix) -> Matrix:
    """(T'T)^-1 rhs, by a solve with T' and then one with T.

    numpy has no triangular solve; its LU solve is backward stable on a
    triangle too, and costs little next to the QR.
    """
    return np.linalg.solve(t, np.linalg.solve(t.T, rhs))


def sample_gaussian(rows: int, cols: int, seed: int) -> Matrix:
    """i.i.d. standard-normal matrix, reproducible from the seed."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"sample_gaussian needs positive dimensions, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))
