"""Dense linear algebra primitives: norms, pseudo-inverse, seeded sampling.

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


def pinv(a: Matrix) -> tuple[Matrix, float]:
    """Moore-Penrose pseudo-inverse and sigma_max / sigma_min, from one SVD.

    Singular values below max(rows, cols) * eps * sigma_max are treated as
    zero, so rank-deficient inputs are handled without blow-up. The condition
    number is inf when sigma_min is zero.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge for {a.shape[0]}x{a.shape[1]} input: {exc}") from exc
    if s.size == 0:
        return np.zeros((a.shape[1], a.shape[0])), float("inf")
    cutoff = max(a.shape) * np.finfo(np.float64).eps * s[0]
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    cond = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
    return (vt.T * inv_s) @ u.T, cond


def sample_gaussian(rows: int, cols: int, seed: int) -> Matrix:
    """i.i.d. standard-normal matrix, reproducible from the seed."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"sample_gaussian needs positive dimensions, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))
