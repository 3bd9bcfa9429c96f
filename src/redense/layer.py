"""Random ReLU lifting layer with norm-constrained head retraining.

Features y (J x n) pass through a frozen Gaussian R (m x n, m >= n) and a
sign split, lift(y) = [max(yR', 0) | max(-yR', 0)] (J x 2m), which loses
nothing since max(z,0) - max(-z,0) = z. The head is the base output layer
(Ohat, b) plus a correction Delta (Q x 2m), logits = y Ohat' + b + lift(y) Delta',
with O0 + Delta in the Frobenius ball |O|_F <= epsilon = |O0|_F, O0 = [P | -P] and
P = Ohat pinv(R). Delta = 0 gives the base logits bit for bit, so returning
the best iterate keeps the final training loss at or below the base head's.
The correction needs only the positive half h = max(yR', 0), held in float32 and
feature-major (m x J, as is y's own copy, n x J): with each class operand zero-padded
to a multiple of _PAD rows, the head's products fill OpenBLAS's micro-panels. README
derives each step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import ConstraintError, NonFiniteError, ShapeError, TrainingDivergedError
from .linalg import (Matrix, as_matrix, check_finite, frobenius_norm, pinv_product,
                     sample_gaussian)
from .nn import (EpochStats, Loss, _AdamState, _label_accuracy, _Targets, loss_value,
                 loss_value_and_grad)

log = logging.getLogger(__name__)

# build() resamples R above this Frobenius condition number |R|_F |pinv(R)|_F,
# which bounds the radius epsilon <= sqrt(2) |Ohat|_2 |pinv(R)|_F. P comes from
# R'R, which squares it; README has the accuracy and resample rate this buys.
MAX_CONDITION = 1e6
_RESAMPLE_ATTEMPTS = 8
# The head's class operands are zero-padded to a multiple of this many rows (README)
_PAD = 16


@dataclass
class RedenseLayer:
    R: Matrix        # m x n, frozen after construction
    epsilon: float
    base: Matrix     # Q x n, the base head Ohat
    bias: np.ndarray  # Q, the base output bias b
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
        q = self.base.shape[0]
        for name, a, shape in (("bias", self.bias, (q,)), ("delta", self.delta, (q, 2 * self.m)),
                               ("O0", self.O0, (q, 2 * self.m))):
            if a is not None and a.shape != shape:
                raise ShapeError(f"{name} has shape {a.shape}, expected {shape}")
        if not 0.0 < self.epsilon < np.inf:
            raise ConstraintError("constraint radius epsilon must be finite and > 0")
        for name in ("R", "base", "bias", "delta"):
            check_finite(getattr(self, name), name)
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


def build(output_weight: Matrix, bias: np.ndarray, m: int, seed: int,
          r: Matrix | None = None) -> RedenseLayer:
    """Construct a lifting layer at the base head (Ohat, b): Delta = 0, O0 on the ball.

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
                        bias=np.array(bias, dtype=np.float64),
                        delta=np.zeros_like(o0), seed=seed, O0=o0, cond_r=cond,
                        resamples=attempt)


def _same_output_layer(a, b) -> bool:
    """Whether output layers a and b, each a (weight, bias) pair, are equal bit for bit."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _padded(q: int) -> int:
    """q rounded up to a multiple of _PAD."""
    return -(-q // _PAD) * _PAD


def _positive_half(yt: Matrix, r: Matrix) -> Matrix:
    """h' = max(r yt, 0), the m x J transpose of lift(y)'s first half for y = yt', in
    yt's dtype."""
    ht = r @ yt
    return np.maximum(ht, 0.0, out=ht)


def _head_logits(ht: Matrix, yt: Matrix, r: Matrix, o: Matrix, out: Matrix | None = None,
                 scratch: Matrix | None = None) -> Matrix:
    """(lift(y) o')' = W_h h' - W_y y' with W_h = O+ + O- and W_y = O- R, in ht's dtype,
    into out (C order, _padded(len(o)) rows: those past o's come out zero) with scratch
    (C order, len(o) rows) for W_y y', each if given."""
    q, m = len(o), len(ht)
    w_h = np.zeros((_padded(q), m), ht.dtype)
    # o's halves are cast to ht's dtype before they are added
    np.add(o[:, :m], o[:, m:], out=w_h[:q], dtype=ht.dtype)
    out = np.matmul(w_h, ht, out=out)
    out[:q] -= np.matmul(o[:, m:].astype(ht.dtype) @ r, yt, out=scratch)
    return out


def _head_grad(g: Matrix, ht: Matrix, yt: Matrix, r: Matrix, padded: Matrix | None = None,
               out: Matrix | None = None) -> Matrix:
    """g' lift(y) = [A | A - B R'] with A = g'h and B = g'y, formed in ht's dtype, into
    out (Q x 2m, of any float dtype) if given. g is copied into padded if given, a
    J x _padded(Q) array whose columns past g's are zeroed."""
    q, m = g.shape[1], len(ht)
    padded = np.empty((len(g), _padded(q)), ht.dtype) if padded is None else padded
    np.copyto(padded[:, :q], g)
    padded[:, q:] = 0.0
    a = (ht @ padded).T[:q]
    # B R' on a transposed view of B rounds differently from the row-major product
    b = np.ascontiguousarray((yt @ padded).T[:q])
    out = np.empty((q, 2 * m), ht.dtype) if out is None else out
    out[:, :m] = a
    np.subtract(a, b @ r.T, out=out[:, m:], dtype=ht.dtype)
    return out


@dataclass(frozen=True)
class _Lift:
    """Features y for the head: y Ohat' + b class-major (F order), yt = (y 2^-k)' in
    float32 (k: max|y|'s binary exponent), and once lifted through a draw r: r, r in
    float32, and ht = max(r yt, 0)."""
    base: Matrix
    yt: Matrix
    k: int
    r: Matrix | None = None
    r32: Matrix | None = None
    ht: Matrix | None = None


def _prepare(base: Matrix, bias: np.ndarray, features: Matrix) -> _Lift:
    """The width-independent part of the features' lift; its logits are nn.forward's."""
    if features.shape[1] != base.shape[1]:
        raise ShapeError(f"features have width {features.shape[1]}, expected {base.shape[1]}")
    check_finite(features, "features")
    _, k = np.frexp(max(features.max(initial=0.0), -features.min(initial=0.0)))
    # computed in float64 and cast in buffered chunks: no n x J float64 copy
    yt = np.ldexp(features.T, -k, out=np.empty(features.shape[::-1], np.float32),
                  casting="same_kind")
    logits = np.add(features @ base.T, bias,
                    out=np.empty((len(features), len(base)), order="F"))
    return _Lift(logits, yt, int(k))


def _lift(x: _Lift, r: Matrix, r32: Matrix | None = None) -> _Lift:
    r32 = r.astype(np.float32) if r32 is None else r32
    return replace(x, r=r, r32=r32, ht=_positive_half(x.yt, r32))


def _narrow(x: _Lift, r: Matrix) -> _Lift:
    """x's lift through r, the first rows of the draw x was lifted through."""
    return replace(x, r=r, r32=x.r32[:len(r)], ht=x.ht[:len(r)])


def _through(layer: RedenseLayer, x) -> _Lift:
    """Features, or a _Lift of them, lifted through layer.R; x itself if it already is."""
    if not isinstance(x, _Lift):
        x = _prepare(layer.base, layer.bias, x)
    return x if x.r is layer.R else _lift(x, layer.R)


def _logits(x: _Lift, delta: Matrix, out: Matrix | None = None,
            correction: Matrix | None = None, scratch: Matrix | None = None) -> Matrix:
    """y Ohat' + b + lift(y) delta', class-major, into out if given; the float32
    correction goes into correction, with scratch, as _head_logits takes them. A zero
    delta returns the base logits themselves."""
    if not delta.any():
        return x.base
    out = np.empty_like(x.base) if out is None else out
    # the float32 rows are cast to float64, exactly, before they are scaled
    np.ldexp(_head_logits(x.ht, x.yt, x.r32, delta, correction, scratch)[:len(delta)], x.k,
             out=out.T, dtype=np.float64)
    return np.add(x.base, out, out=out)


def predict(layer: RedenseLayer, features: Matrix) -> Matrix:
    """Logits of the lifted head: y Ohat' + b + lift(y) Delta'."""
    return _logits(_through(layer, features), layer.delta)


# Norms within this relative band of epsilon count as feasible; rescaling
# lands at epsilon only up to rounding, and absorbing that here makes the
# projection exactly idempotent.
FEASIBILITY_SLACK = 1e-12


def _project(o: Matrix, epsilon: float, norm: float | None = None) -> bool:
    """Rescale o in place onto the ball |o|_F <= epsilon if its norm, frobenius_norm(o)
    unless given, lies outside it; whether it did."""
    norm = frobenius_norm(o) if norm is None else norm
    if norm > epsilon * (1.0 + FEASIBILITY_SLACK):
        o *= epsilon / norm
        return True
    return False


def _o_norm(layer: RedenseLayer, delta: Matrix, scratch: Matrix) -> float:
    """|O0 + delta|_F, as frobenius_norm(layer.O0 + delta) gives it, formed in scratch."""
    return frobenius_norm(np.add(layer.O0, delta, out=scratch), out=scratch)


def _step(delta: Matrix, layer: RedenseLayer, adam: _AdamState, lr: float, grad: Matrix,
          scratch: Matrix):
    """delta's Adam step for grad, then O0 + delta rescaled onto the ball if it left it;
    in place, with scratch, C-ordered like delta, for O0 + delta and its square. grad may
    be scratch itself."""
    adam.step(grad.ravel(), lr, delta.ravel())
    norm = _o_norm(layer, delta, scratch)
    o = np.add(layer.O0, delta, out=scratch)
    if _project(o, layer.epsilon, norm):
        np.subtract(o, layer.O0, out=delta)


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
    # every per-iteration J x Q array is allocated once: each loss's class-major buffers,
    # whose shifted one also holds the logits it scores (the loss shifts them in place,
    # so their accuracy is taken first); flat float32 buffers, sized for the larger set,
    # for the correction's class-major products, _padded(Q) and Q rows, the first of
    # which later holds the gradient's J x _padded(Q) copy; and one Q x 2m array for the
    # gradient, then O0 + delta and its square
    work = _Targets(targets)
    eval_work = None if eval_inputs is None else _Targets(eval_targets)
    labels = (work if eval_work is None else eval_work).labels
    rows, q = work.values.shape
    pad = _padded(q)
    most = max(len(w.values) for w in (work, eval_work) if w is not None)
    products = np.empty(pad * most, np.float32), np.empty(q * most, np.float32)
    g32 = products[0][:rows * pad].reshape(rows, pad)
    o_scratch = np.empty_like(layer.O0)
    delta = layer.delta.copy()

    def logits_of(x, w):
        j = len(w.values)
        return _logits(x, delta, w.shifted, products[0][:pad * j].reshape(pad, j),
                       products[1][:q * j].reshape(q, j))

    adam = _AdamState(delta.size)
    curve = []
    best_delta = delta.copy()
    best_loss, best_epoch = np.inf, 0
    stop_reason, stopped_at = "completed", cfg.epochs
    for t in range(cfg.epochs + 1):
        logits = logits_of(inputs, work)
        if eval_inputs is None:
            ev_accuracy = _label_accuracy(logits, labels)
        try:
            cur_loss, logits_grad = loss_value_and_grad(loss, logits, work,
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
            ev_loss = cur_loss
        else:
            ev_logits = logits_of(eval_inputs, eval_work)
            ev_accuracy = _label_accuracy(ev_logits, labels)
            ev_loss = loss_value(loss, ev_logits, eval_work)
        curve.append(EpochStats(t, cur_loss, ev_loss, ev_accuracy,
                                _o_norm(layer, delta, o_scratch)))
        if cur_loss < best_loss:
            best_loss, best_epoch = cur_loss, t
            np.copyto(best_delta, delta)
        if t == cfg.epochs:
            break
        # G goes through g32, free once the logits are scored (_head_grad zeroes its
        # padding columns), and the gradient into o_scratch, which _step then reuses
        grad = _head_grad(logits_grad, inputs.ht, inputs.yt, inputs.r32, g32, o_scratch)
        _step(delta, layer, adam, cfg.learning_rate, np.ldexp(grad, inputs.k, out=grad),
              o_scratch)

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


def train_widths(output_weight: Matrix, bias: np.ndarray, widths, seeds, features: Matrix,
                 targets: Matrix, loss: Loss, cfg: HeadConfig,
                 eval_features: Matrix | None = None, eval_targets: Matrix | None = None):
    """Yield train(build(output_weight, bias, m, seed), ...) for each seed, and each m.

    The features are prepared before this returns, and no reference to them kept.
    A seed's widths share its widest draw, whose first m rows are R at m, and
    its lift, whose first m columns are h at m; a rejected prefix is resampled
    and lifted alone, as separate build and train calls would. A yielded R
    views its seed's draw: drop it before the next seed's to hold one at a time.
    """
    output_weight = as_matrix(output_weight, "output_weight")
    lift = _prepare(output_weight, bias, features)
    eval_lift = None if eval_features is None else _prepare(output_weight, bias, eval_features)
    # chain holds no yielded run: the last one would keep its seed's draw alive
    return chain.from_iterable(_train_seed(output_weight, bias, widths, seed, lift, eval_lift,
                                           targets, loss, cfg, eval_targets) for seed in seeds)


def _train_seed(output_weight, bias, widths, seed, lift, eval_lift, targets, loss, cfg,
                eval_targets):
    # a generator of its own, so the seed's draw and lifts die with its frame
    draw = sample_gaussian(max(widths), output_weight.shape[1], seed)
    lift = _lift(lift, draw)
    eval_lift = None if eval_lift is None else _lift(eval_lift, draw, lift.r32)
    for m in widths:
        # one view for all three, so train sees both lifts are through layer.R
        r = draw[:m]
        layer = build(output_weight, bias, m, seed, r)
        yield train(layer, _narrow(lift, r), targets, loss, cfg,
                    None if eval_lift is None else _narrow(eval_lift, r), eval_targets)
