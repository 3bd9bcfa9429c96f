"""Random ReLU lifting layer with norm-constrained head retraining.

Features y (J x n) pass through a frozen Gaussian R (m x n, m >= n) and a
sign split, lift(y) = [max(yR', 0) | max(-yR', 0)] (J x 2m), which loses
nothing since max(z,0) - max(-z,0) = z. The head is the base head Ohat plus a
correction Delta (Q x 2m), logits = y Ohat' + lift(y) Delta', with O0 + Delta
in the Frobenius ball |O|_F <= epsilon = |O0|_F, O0 = [P | -P] and
P = Ohat pinv(R). Delta = 0 gives the base logits bit for bit, so returning
the best iterate keeps the final training loss at or below the base head's.
The correction needs only the J x m positive half h = max(yR', 0), held in
float32; README derives each step.
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

# build() resamples R above this Frobenius condition number |R|_F |pinv(R)|_F,
# which bounds the radius epsilon <= sqrt(2) |Ohat|_2 |pinv(R)|_F. P comes from
# R'R, which squares it; README has the accuracy and resample rate this buys.
MAX_CONDITION = 1e6
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


def build(output_weight: Matrix, m: int, seed: int, r: Matrix | None = None) -> RedenseLayer:
    """Construct a lifting layer at the base head: Delta = 0, O0 on the ball.

    R is sample_gaussian(m, n, seed), or r, a caller's copy of that draw
    (numpy's Generator fills it row by row, so any wider draw at seed starts
    with it). An ill-conditioned R is resampled from seed + 1, seed + 2, ...;
    cond_r and resamples record R's Frobenius condition number and the
    rejected draws. n is the output weight's width.
    """
    output_weight = as_matrix(output_weight, "output_weight")
    n = output_weight.shape[1]
    if m < n:
        raise ConstraintError(f"projection width must satisfy m >= n, got m={m}, n={n}")
    for attempt in range(_RESAMPLE_ATTEMPTS):
        if attempt or r is None:
            r = sample_gaussian(m, n, seed + attempt)
        p, cond = pinv_product(output_weight, r, MAX_CONDITION)
        if p is not None:
            break
        log.warning("projection matrix ill-conditioned (cond=%.3g), resampling with seed %d",
                    cond, seed + attempt + 1)
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


@dataclass(frozen=True)
class _Lift:
    """Features y for the head: y Ohat', y32 = y 2^-k in float32 (k: max|y|'s binary
    exponent), and once lifted through a draw r: r, r in float32, max(y32 r', 0)."""
    base: Matrix
    y32: Matrix
    k: int
    r: Matrix | None = None
    r32: Matrix | None = None
    h: Matrix | None = None


def _prepare(base: Matrix, features: Matrix) -> _Lift:
    """The width-independent part of the features' lift under the base head."""
    if features.shape[1] != base.shape[1]:
        raise ShapeError(f"features have width {features.shape[1]}, expected {base.shape[1]}")
    check_finite(features, "features")
    _, k = np.frexp(max(features.max(initial=0.0), -features.min(initial=0.0)))
    # computed in float64 and cast in buffered chunks: no J x n float64 copy
    y32 = np.ldexp(features, -k, out=np.empty(features.shape, np.float32), casting="same_kind")
    return _Lift(features @ base.T, y32, int(k))


def _lift(x: _Lift, r: Matrix) -> _Lift:
    r32 = r.astype(np.float32)
    return replace(x, r=r, r32=r32, h=_positive_half(x.y32, r32))


def _narrow(x: _Lift, r: Matrix) -> _Lift:
    """x's lift through r, the first rows of the draw x was lifted through."""
    return replace(x, r=r, r32=x.r32[:len(r)], h=x.h[:, :len(r)])


def _through(layer: RedenseLayer, x) -> _Lift:
    """Features, or a _Lift of them, lifted through layer.R; x itself if it already is."""
    if not isinstance(x, _Lift):
        x = _prepare(layer.base, x)
    return x if x.r is layer.R else _lift(x, layer.R)


def _logits(x: _Lift, delta: Matrix) -> Matrix:
    """y Ohat' + lift(y) delta'; a zero delta returns the base logits themselves."""
    if not delta.any():
        return x.base
    return x.base + np.ldexp(_head_logits(x.h, x.y32, x.r32, delta).astype(np.float64), x.k)


def predict(layer: RedenseLayer, features: Matrix) -> Matrix:
    """Logits of the lifted head: y Ohat' + lift(y) Delta'."""
    return _logits(_through(layer, features), layer.delta)


# Norms within this relative band of epsilon count as feasible; rescaling
# lands at epsilon only up to rounding, and absorbing that here makes the
# projection exactly idempotent.
FEASIBILITY_SLACK = 1e-12


def _project(o: Matrix, epsilon: float) -> Matrix:
    norm = frobenius_norm(o)
    if norm > epsilon * (1.0 + FEASIBILITY_SLACK):
        return o * (epsilon / norm)
    return o


def train(layer: RedenseLayer, features: Matrix, targets: Matrix, loss: Loss, cfg: HeadConfig,
          eval_features: Matrix | None = None, eval_targets: Matrix | None = None):
    """Retrain the head's correction under the Frobenius-ball constraint, full batch.

    Runs cfg.epochs Adam iterations of loss, the base network's own, on Delta,
    rescaling O0 + Delta onto the ball whenever a step leaves it; Adam's
    moments persist across projections. The returned layer carries the best
    iterate by training loss, the start included, so the final loss never
    exceeds the start's (for build()'s layer, the base head's). A non-finite
    loss stops training early (stop_reason, stopped_at). The eval columns
    score eval_features, or else the training data with its logits reused;
    either may come lifted through layer.R, as train_widths passes them.
    """
    if layer.O0 is None:
        raise ValueError("layer has no start point O0; train a layer made by build()")
    inputs = _through(layer, features)
    eval_inputs = None
    if eval_features is not None:
        if eval_targets is None:
            raise ValueError("eval_features given without eval_targets")
        eval_inputs = _through(layer, eval_features)
    # the scored targets are fixed: their labels are taken once
    labels = np.argmax(targets if eval_inputs is None else eval_targets, axis=1)

    delta = layer.delta.copy()
    adam = _AdamState([delta.shape])
    curve = []
    best_delta = delta.copy()
    best_loss, best_epoch = np.inf, 0
    stop_reason, stopped_at = "completed", cfg.epochs
    for t in range(cfg.epochs + 1):
        logits = _logits(inputs, delta)
        try:
            cur_loss, logits_grad = loss_value_and_grad(loss, logits, targets,
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
            ev_logits = _logits(eval_inputs, delta)
            ev_loss = loss_value(loss, ev_logits, eval_targets)
        curve.append(IterateStats(t, cur_loss, frobenius_norm(layer.O0 + delta),
                                  ev_loss, _label_accuracy(ev_logits, labels)))
        if cur_loss < best_loss:
            best_loss, best_epoch = cur_loss, t
            best_delta = delta.copy()
        if t == cfg.epochs:
            break
        grad = np.ldexp(_head_grad(logits_grad, inputs.h, inputs.y32, inputs.r32)
                        .astype(np.float64), inputs.k)
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


def train_widths(output_weight: Matrix, widths, seeds, features: Matrix, targets: Matrix,
                 loss: Loss, cfg: HeadConfig, eval_features: Matrix | None = None,
                 eval_targets: Matrix | None = None):
    """Yield train(build(output_weight, m, seed), ...) for each seed, and each m in widths.

    A seed's widths share its widest draw, whose first m rows are R at m, and
    its lift, whose first m columns are h at m; a rejected prefix is resampled
    and lifted alone, as separate build and train calls would. A yielded R
    views its seed's draw: drop it before the next seed's to hold one at a time.
    """
    output_weight = as_matrix(output_weight, "output_weight")
    lift = _prepare(output_weight, features)
    eval_lift = None if eval_features is None else _prepare(output_weight, eval_features)
    for seed in seeds:
        yield from _train_seed(output_weight, widths, seed, lift, eval_lift, targets, loss, cfg,
                               eval_targets)


def _train_seed(output_weight, widths, seed, lift, eval_lift, targets, loss, cfg, eval_targets):
    # a generator of its own, so the seed's draw and lifts die with its frame
    draw = sample_gaussian(max(widths), output_weight.shape[1], seed)
    lift = _lift(lift, draw)
    eval_lift = None if eval_lift is None else _lift(eval_lift, draw)
    for m in widths:
        # one view for all three, so train sees both lifts are through layer.R
        r = draw[:m]
        layer = build(output_weight, m, seed, r)
        yield train(layer, _narrow(lift, r), targets, loss, cfg,
                    None if eval_lift is None else _narrow(eval_lift, r), eval_targets)
