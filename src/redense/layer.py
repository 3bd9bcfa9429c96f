"""Random ReLU lifting layer with norm-constrained head retraining.

The construction: features y (J x n) are projected through a frozen Gaussian
matrix R (m x n, m >= n) and split by sign into nonnegative halves,

    lift(y) = [max(yR', 0) | max(-yR', 0)]   (J x 2m),

which loses no information because max(z,0) - max(-z,0) = z. The head is a
single matrix O (Q x 2m) constrained to the Frobenius ball |O|_F <= epsilon.
Choosing

    O0 = [P | -P]  with  P = Ohat pinv(R),   epsilon = |O0|_F,

makes O0 feasible and reproduces the original head for full-column-rank R:
O0 lift(y)' = y (pinv(R) R)' Ohat' = y Ohat', up to rounding. To make the
start exact, the head is trained as the base head plus a correction
Delta = O - O0,

    logits = y Ohat' + lift(y) Delta',

so Delta = 0 gives the base logits bit for bit. Training therefore starts at
the base head's own loss, and returning the best iterate seen keeps the final
training loss at or below it, unconditionally.

The correction never builds the J x 2m lift. Its second half is
max(-z,0) = h - z with h = max(z,0) and z = yR', so with D = [D+ | D-]

    lift(y) D'  = h (D+ + D-)' - y (D- R)'
    G' lift(y)  = [A | A - (G'y) R'],   A = G'h,

which needs only the J x m positive half h next to the J x n features. These
helpers compute in h's dtype. Training and prediction hold y and h in
float32, scaled by a power of two that fits them to its range; the base term,
the loss, Adam, the projection and best-iterate selection stay float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintError, NonFiniteError, ShapeError, TrainingDivergedError
from .linalg import (Matrix, as_matrix, check_finite, frobenius_norm, pinv_product,
                     sample_gaussian)
from .nn import Loss, _AdamState, _label_accuracy, loss_value, loss_value_and_grad

log = logging.getLogger(__name__)

TRAIN_LOSS = Loss("softmax_cross_entropy")

# An ill-conditioned R makes P = Ohat pinv(R), and with it the radius
# epsilon = |O0|_F, large and dominated by rounding; build() resamples when
# R's Frobenius condition number |R|_F |pinv(R)|_F exceeds this. That bounds
# the radius itself, epsilon <= sqrt(2) |Ohat|_2 |pinv(R)|_F, and is at most
# n times R's 2-norm condition number. The starting loss does not depend on
# it: it is the base head's, exactly.
MAX_CONDITION = 1e8
_RESAMPLE_ATTEMPTS = 8


@dataclass
class RedenseLayer:
    R: Matrix        # m x n, frozen after construction
    epsilon: float
    base: Matrix     # Q x n, the base head Ohat
    delta: Matrix    # Q x 2m, the trained correction O - O0; zero when built
    seed: int
    # O0 = [P | -P], the ball's reference point. build() sets it; model files
    # do not carry it, so a loaded layer predicts but does not train.
    O0: Matrix | None = None
    # build()'s diagnostics, not stored in model files either: R's Frobenius
    # condition number and how many ill-conditioned draws preceded R
    cond_r: float | None = None
    resamples: int | None = None

    def __post_init__(self):
        if self.m < self.n:
            raise ConstraintError(f"projection width must satisfy m >= n, got m={self.m}, n={self.n}")
        if self.base.shape[1] != self.n:
            raise ShapeError(f"base head has {self.base.shape[1]} columns, expected {self.n}")
        shape = (self.base.shape[0], 2 * self.m)
        for name, a in (("delta", self.delta), ("O0", self.O0)):
            if a is not None and a.shape != shape:
                raise ShapeError(f"{name} has shape {a.shape}, expected {shape}")
        if not self.epsilon > 0.0:
            raise ConstraintError("constraint radius epsilon must be > 0")
        check_finite(self.R, "R")
        check_finite(self.base, "base head")
        check_finite(self.delta, "delta")
        self.R = np.ascontiguousarray(self.R)
        self.R.setflags(write=False)

    @property
    def n(self) -> int:
        return self.R.shape[1]

    @property
    def m(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class GuaranteeReport:
    old_loss: float
    final_loss: float
    epsilon: float
    guarantee_holds: bool
    # "completed", or "non_finite" when the loss turned NaN or Inf at
    # iteration stopped_at and training kept the best earlier iterate
    stop_reason: str
    stopped_at: int
    # the iteration of the returned iterate; curve[best_epoch] scores it
    best_epoch: int


@dataclass(frozen=True)
class HeadConfig:
    """Head retraining settings: Adam step size and full-batch iteration count."""
    learning_rate: float = 1e-4
    epochs: int = 100

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass(frozen=True)
class IterateStats:
    epoch: int
    train_loss: float
    o_norm: float
    eval_loss: float
    eval_accuracy: float


def build(output_weight: Matrix, m: int, seed: int) -> RedenseLayer:
    """Construct a lifting layer at the base head: Delta = 0, O0 on the ball.

    R is sampled i.i.d. standard normal from the seed (resampled with
    incremented seeds in the rare event it is ill-conditioned). The layer
    records R's Frobenius condition number as cond_r and the number of
    rejected draws as resamples. n is the output weight's width.
    """
    output_weight = as_matrix(output_weight, "output_weight")
    n = output_weight.shape[1]
    if m < n:
        raise ConstraintError(f"projection width must satisfy m >= n, got m={m}, n={n}")
    r = sample_gaussian(m, n, seed)
    for attempt in range(_RESAMPLE_ATTEMPTS):
        p, cond = pinv_product(output_weight, r, MAX_CONDITION)
        if p is not None:
            break
        log.warning("projection matrix ill-conditioned (cond=%.3g), resampling with seed %d",
                    cond, seed + attempt + 1)
        r = sample_gaussian(m, n, seed + attempt + 1)
    else:
        raise ConstraintError(f"could not sample a well-conditioned {m}x{n} projection "
                              f"after {_RESAMPLE_ATTEMPTS} attempts")
    # C order, as train's delta is: sums over O0 + delta then run in one order
    o0 = np.ascontiguousarray(np.hstack([p, -p]))
    epsilon = frobenius_norm(o0)
    if epsilon == 0.0:
        raise ConstraintError("output weight is zero; the constraint radius would be empty")
    return RedenseLayer(R=r, epsilon=epsilon, base=output_weight.copy(),
                        delta=np.zeros_like(o0), seed=seed, O0=o0, cond_r=cond,
                        resamples=attempt)


def _positive_half(features: Matrix, r: Matrix) -> Matrix:
    """h = max(features r', 0), the J x m first half of lift(features), in features' dtype."""
    h = features @ r.T
    return np.maximum(h, 0.0, out=h)


def _head_logits(h: Matrix, features: Matrix, r: Matrix, o: Matrix) -> Matrix:
    """lift(features) o' = h (O+ + O-)' - features (O- R)', in h's dtype."""
    m = h.shape[1]
    o = o.astype(h.dtype, copy=False)
    o_neg = o[:, m:]
    return h @ (o[:, :m] + o_neg).T - features @ (o_neg @ r).T


def _head_grad(g: Matrix, h: Matrix, features: Matrix, r: Matrix) -> Matrix:
    """g' lift(features) = [A | A - (g' features) R'] with A = g'h, in h's dtype."""
    g = g.astype(h.dtype, copy=False)  # a float64 g would upcast all of h
    a = g.T @ h
    return np.hstack([a, a - (g.T @ features) @ r.T])


def _head_inputs(layer: RedenseLayer, features: Matrix, r32: Matrix):
    """(base logits y Ohat' in float64, y 2^-k and h 2^-k in float32, k).

    k is max|y|'s binary exponent, so the float32 copies neither overflow
    to Inf nor flush to zero wherever y lies in float64's range. Scaling by a
    power of two is exact, and the correction and the gradient are linear in
    (h, y), so multiplying them by 2^k in float64 undoes it; for features
    within float32's range that gives the unscaled results bit for bit.
    """
    if features.shape[1] != layer.n:
        raise ShapeError(f"features have width {features.shape[1]}, layer expects n={layer.n}")
    check_finite(features, "features")
    _, k = np.frexp(max(features.max(initial=0.0), -features.min(initial=0.0)))
    # computed in float64 and cast in buffered chunks: no J x n float64 copy
    y32 = np.ldexp(features, -k, out=np.empty(features.shape, np.float32), casting="same_kind")
    return features @ layer.base.T, y32, _positive_half(y32, r32), int(k)


def _logits(inputs, r32: Matrix, delta: Matrix) -> Matrix:
    """y Ohat' + lift(y) delta'; a zero delta returns the base logits themselves."""
    base, y32, h, k = inputs
    if not delta.any():
        return base
    return base + np.ldexp(_head_logits(h, y32, r32, delta).astype(np.float64), k)


def predict(layer: RedenseLayer, features: Matrix) -> Matrix:
    """Logits of the lifted head: y Ohat' + lift(y) Delta'."""
    r32 = layer.R.astype(np.float32)
    return _logits(_head_inputs(layer, features, r32), r32, layer.delta)


# Norms within this relative band of epsilon count as feasible; rescaling
# lands at epsilon only up to rounding, and absorbing that here makes the
# projection exactly idempotent.
FEASIBILITY_SLACK = 1e-12


def _project(o: Matrix, epsilon: float) -> Matrix:
    norm = frobenius_norm(o)
    if norm > epsilon * (1.0 + FEASIBILITY_SLACK):
        return o * (epsilon / norm)
    return o


def train(layer: RedenseLayer, features: Matrix, targets: Matrix, cfg: HeadConfig,
          eval_features: Matrix | None = None, eval_targets: Matrix | None = None):
    """Retrain the head's correction under the Frobenius-ball constraint, full batch.

    Runs cfg.epochs Adam iterations of softmax cross-entropy descent on
    Delta, rescaling O0 + Delta back onto the ball's surface whenever a step
    leaves it. Adam moments are kept across projections. The returned layer
    carries the best iterate by training loss, the starting Delta included,
    so the reported final loss never exceeds the starting one; for a layer
    from build() that is the base head's loss, exactly. A non-finite loss
    stops training early, which the report's stop_reason and stopped_at say.

    The curve's eval columns score eval_features when given, and otherwise the
    training data itself, reusing the training logits.
    """
    if layer.O0 is None:
        raise ValueError("layer has no start point O0; train a layer made by build()")
    r32 = layer.R.astype(np.float32)
    inputs = _head_inputs(layer, features, r32)
    _, y32, h, k = inputs
    eval_inputs = None
    if eval_features is not None:
        if eval_targets is None:
            raise ValueError("eval_features given without eval_targets")
        eval_inputs = _head_inputs(layer, eval_features, r32)
    # the scored targets are fixed: their labels are taken once
    labels = np.argmax(targets if eval_inputs is None else eval_targets, axis=1)

    delta = layer.delta.copy()
    adam = _AdamState([delta.shape])
    curve = []
    best_delta = delta.copy()
    best_loss, best_epoch = np.inf, 0
    stop_reason, stopped_at = "completed", cfg.epochs
    for t in range(cfg.epochs + 1):
        logits = _logits(inputs, r32, delta)
        try:
            cur_loss, logits_grad = loss_value_and_grad(TRAIN_LOSS, logits, targets,
                                                        need_grad=t < cfg.epochs)
        except NonFiniteError:
            cur_loss = np.nan
        if not np.isfinite(cur_loss):
            if t == 0:
                raise TrainingDivergedError("loss not finite at the feasible start", 0)
            log.warning("head training hit a non-finite loss at iteration %d; "
                        "keeping best earlier iterate", t)
            stop_reason, stopped_at = "non_finite", t
            break
        if eval_inputs is None:
            ev_loss, ev_logits = cur_loss, logits
        else:
            ev_logits = _logits(eval_inputs, r32, delta)
            ev_loss = loss_value(TRAIN_LOSS, ev_logits, eval_targets)
        curve.append(IterateStats(t, cur_loss, frobenius_norm(layer.O0 + delta),
                                  ev_loss, _label_accuracy(ev_logits, labels)))
        if cur_loss < best_loss:
            best_loss, best_epoch = cur_loss, t
            best_delta = delta.copy()
        if t == cfg.epochs:
            break
        grad = np.ldexp(_head_grad(logits_grad, h, y32, r32).astype(np.float64), k)
        del logits_grad  # J x Q: not held while the next logits are formed
        (step,) = adam.step([grad])
        step *= cfg.learning_rate  # Adam's own buffer, rewritten by its next step
        delta -= step
        o = layer.O0 + delta
        projected = _project(o, layer.epsilon)
        if projected is not o:
            np.subtract(projected, layer.O0, out=delta)

    old_loss = curve[0].train_loss
    trained = replace(layer, delta=best_delta)
    report = GuaranteeReport(
        old_loss=old_loss,
        final_loss=best_loss,
        epsilon=layer.epsilon,
        guarantee_holds=best_loss <= old_loss,
        stop_reason=stop_reason,
        stopped_at=stopped_at,
        best_epoch=best_epoch,
    )
    return trained, report, curve
