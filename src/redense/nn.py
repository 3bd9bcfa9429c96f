"""Minimal feedforward network engine: ReLU-family MLPs, four losses on softmax
outputs (summed over samples) and mini-batch Adam base training; see README."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError, TrainingDivergedError
from .linalg import Matrix, check_finite

LOSS_KINDS = ("softmax_cross_entropy", "mean_square_error", "poisson", "huber")

_LOSS_ALIASES = {
    "ce": "softmax_cross_entropy",
    "cross_entropy": "softmax_cross_entropy",
    "softmax_cross_entropy": "softmax_cross_entropy",
    "mse": "mean_square_error",
    "mean_square_error": "mean_square_error",
    "poisson": "poisson",
    "huber": "huber",
}

ACTIVATION_KINDS = ("relu", "leaky_relu", "identity")


@dataclass(frozen=True)
class Activation:
    kind: str
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def apply(self, z: Matrix) -> Matrix:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z, self.slope * z)
        return z

    def derivative(self, z: Matrix) -> Matrix:
        """The activation's slope at z, in z's dtype."""
        if self.kind == "relu":
            return (z > 0.0).astype(z.dtype)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z.dtype.type(1.0), z.dtype.type(self.slope))
        return np.ones_like(z)


@dataclass(frozen=True)
class Loss:
    kind: str
    delta: float = 1.0  # huber threshold, ignored elsewhere

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "huber" and not self.delta > 0.0:
            raise ValueError("huber delta must be > 0")


def make_loss(name: str, delta: float = Loss.delta) -> Loss:
    """Resolve a loss by name; accepts the short aliases ce and mse."""
    kind = _LOSS_ALIASES.get(name.lower())
    if kind is None:
        raise ValueError(f"unknown loss {name!r}, expected one of {sorted(set(_LOSS_ALIASES))}")
    return Loss(kind, delta=delta)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# IDX pixel code c stands for c / 255; these tables are the only place codes become values
_PIXELS = np.arange(256) / 255.0
_PIXELS32 = _PIXELS.astype(np.float32)


@dataclass
class Dataset:
    """uint8 inputs are IDX pixel codes, code c standing for c / 255, and stay codes
    until a computation decodes them; any other inputs are coerced to float64."""

    inputs: Matrix   # J x P
    targets: Matrix  # J x Q, one-hot rows

    def __post_init__(self):
        codes = getattr(self.inputs, "dtype", None) == np.uint8
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.uint8 if codes else np.float64)
        self.targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"inputs have {self.inputs.shape[0]} rows but targets have {self.targets.shape[0]}"
            )
        if not codes:
            check_finite(self.inputs, "inputs")
        check_finite(self.targets, "targets")
        sums = self.targets.sum(axis=1)
        if self.targets.shape[0] and not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("one-hot target rows must sum to 1")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Layer:
    weight: Matrix  # out x in
    bias: np.ndarray  # out
    activation: Activation


@dataclass
class MlpModel:
    layers: list[Layer]
    output_weight: Matrix    # Q x n
    output_bias: np.ndarray  # Q

    def __post_init__(self):
        widths = [layer.weight.shape for layer in self.layers]
        for prev, cur in zip(widths, widths[1:]):
            if prev[0] != cur[1]:
                raise ShapeError(f"layer widths do not chain: {prev} then {cur}")
        if self.layers and self.layers[-1].weight.shape[0] != self.output_weight.shape[1]:
            raise ShapeError(
               f"last hidden width {self.layers[-1].weight.shape[0]} != "
               f"output weight width {self.output_weight.shape[1]}"
            )
        if self.output_weight.shape[0] != self.output_bias.shape[0]:
            raise ShapeError("output bias length must match output weight rows")
        for layer in self.layers:
            check_finite(layer.weight, "layer weight")
            check_finite(layer.bias, "layer bias")
        check_finite(self.output_weight, "output weight")
        check_finite(self.output_bias, "output bias")

    @property
    def input_width(self) -> int:
        return self.layers[0].weight.shape[1] if self.layers else self.output_weight.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.output_weight.shape[0]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    eval_loss: float | None = None
    eval_accuracy: float | None = None


def make_mlp(input_dim, hidden_widths, n_outputs, activation="relu", leaky_slope=Activation.slope,
             seed=0):
    """Build an MLP with Gaussian 1/sqrt(fan_in) weights and zero biases."""
    if isinstance(activation, str):
        activation = Activation(activation, slope=leaky_slope)
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for width in hidden_widths:
        w = rng.standard_normal((width, fan_in)) / np.sqrt(fan_in)
        layers.append(Layer(w, np.zeros(width), activation))
        fan_in = width
    output_weight = rng.standard_normal((n_outputs, fan_in)) / np.sqrt(fan_in)
    return MlpModel(layers, output_weight, np.zeros(n_outputs))


def _forward_cached(model: MlpModel, inputs: Matrix):
    """Forward pass keeping pre-activations and activations for backprop."""
    if inputs.shape[1] != model.input_width:
        raise ShapeError(f"inputs have width {inputs.shape[1]}, model expects {model.input_width}")
    acts = [inputs]
    pre = []
    h = inputs
    for layer in model.layers:
        z = h @ layer.weight.T + layer.bias
        h = layer.activation.apply(z)
        pre.append(z)
        acts.append(h)
    logits = h @ model.output_weight.T + model.output_bias
    return logits, pre, acts


def forward(model: MlpModel, inputs: Matrix):
    """(logits, last hidden activations), over balanced chunks of at most _STATS_ROWS
    rows: a 1-row chunk would be a matrix-vector product, which rounds differently.
    uint8 inputs are IDX pixel codes (see Dataset), decoded one chunk at a time."""
    rows = inputs.shape[0]
    parts = max(1, -(-rows // _STATS_ROWS))
    bounds = [rows * k // parts for k in range(parts + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = _PIXELS[inputs[lo:hi]] if inputs.dtype == np.uint8 else inputs[lo:hi]
        out, pre, acts = _forward_cached(model, chunk)
        if parts == 1:
            return out, acts[-1]
        if lo == 0:
            logits = np.empty((rows, out.shape[1]), out.dtype)
            features = np.empty((rows, acts[-1].shape[1]), acts[-1].dtype)
        logits[lo:hi], features[lo:hi] = out, acts[-1]
        del chunk, pre, acts  # the next chunk is decoded after this one's arrays die
    return logits, features


def _softmax_parts(logits: Matrix):
    """(logits - row max, its exp, the exp's row sums): one pass over the logits."""
    # column by column: exact, and much faster than max(axis=1) on narrow rows
    row_max = logits[:, 0].copy()
    for k in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, k], out=row_max)
    shifted = logits - row_max[:, None]
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def _check_loss_args(logits: Matrix, targets: Matrix):
    if logits.shape != targets.shape:
        raise ShapeError(f"logits shape {logits.shape} != targets shape {targets.shape}")
    if not np.isfinite(logits).all():
        raise NonFiniteError("logits contain NaN or Inf")


def loss_value_and_grad(loss: Loss, logits: Matrix, targets: Matrix,
                        need_value: bool = True, need_grad: bool = True):
    """(summed loss, its gradient with respect to the logits) from one softmax pass.

    Non-CE losses act on softmax outputs. An output not asked for is None.
    """
    _check_loss_args(logits, targets)
    shifted, e, row_sum = _softmax_parts(logits)
    value = grad = None
    if loss.kind == "softmax_cross_entropy":
        if need_value:
            log_p = np.subtract(shifted, np.log(row_sum), out=shifted)
            value = float(-(targets * log_p).sum())
        if need_grad:
            # exact also for non-one-hot rows: d/dz of sum_k t_k (lse(z) - z_k)
            grad = np.divide(e, row_sum, out=e)
            grad *= targets.sum(axis=1, keepdims=True)
            grad -= targets
        return value, grad
    p = np.divide(e, row_sum, out=e)
    if loss.kind == "mean_square_error":
        r = p - targets
        if need_value:
            value = float(0.5 * np.square(r).sum())
        dp = r
    elif loss.kind == "poisson":
        p_safe = p + 1e-12
        if need_value:
            value = float((p - targets * np.log(p_safe)).sum())
        dp = 1.0 - targets / p_safe if need_grad else None
    else:
        r = p - targets
        if need_value:
            quad = np.abs(r) <= loss.delta
            cells = np.where(quad, 0.5 * r * r, loss.delta * (np.abs(r) - 0.5 * loss.delta))
            value = float(cells.sum())
        dp = np.clip(r, -loss.delta, loss.delta) if need_grad else None
    if need_grad:
        # softmax backward: p * (dp - rowsum(dp * p))
        inner = (dp * p).sum(axis=1, keepdims=True)
        dp -= inner
        grad = np.multiply(p, dp, out=dp)
    return value, grad


def loss_value(loss: Loss, logits: Matrix, targets: Matrix) -> float:
    """Total loss summed over samples. Non-CE losses act on softmax outputs."""
    return loss_value_and_grad(loss, logits, targets, need_grad=False)[0]


def accuracy(logits: Matrix, targets: Matrix) -> float:
    """Fraction of rows whose argmax matches; ties go to the lowest index."""
    return _label_accuracy(logits, np.argmax(targets, axis=1))


def _label_accuracy(logits: Matrix, labels: np.ndarray) -> float:
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty dataset")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _AdamState:
    """Adam moments for a list of parameter shapes; step() maps gradients to steps in
    buffers the next call overwrites (README). Each update keeps the operation
    order of the expression in its comment, so the results are bit-identical to it."""

    def __init__(self, shapes):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._steps = [np.empty(s) for s in shapes]
        self._scratch = [np.empty(s) for s in shapes]
        self.t = 0

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for m, v, out, tmp, g in zip(self.m, self.v, self._steps, self._scratch, grads):
            # m = b1 m + (1-b1) g;  v = b2 v + ((1-b2) g) g
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            # out = (m / c1) / (sqrt(v / c2) + eps)
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.divide(m, c1, out=out)
            out /= tmp
        return self._steps


def _backward(model: MlpModel, dlogits: Matrix, pre, acts):
    """Gradients for all layer weights/biases and the output weight, not the inputs."""
    grads_w = [None] * len(model.layers)
    grads_b = [None] * len(model.layers)
    grad_out = dlogits.T @ acts[-1]
    delta, weight = dlogits, model.output_weight
    for i in range(len(model.layers) - 1, -1, -1):
        dz = delta @ weight
        dz *= model.layers[i].activation.derivative(pre[i])
        grads_w[i] = dz.T @ acts[i]
        grads_b[i] = dz.sum(axis=0)
        delta, weight = dz, model.layers[i].weight
    return grads_w, grads_b, grad_out


_STATS_ROWS = 1024  # most rows per chunk of forward and of the per-epoch statistics
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _float32_copy(inputs: Matrix, name: str) -> Matrix:
    """inputs as float32, refused when a value lies beyond float32's range."""
    if inputs.dtype == np.uint8:
        return _PIXELS32[inputs]
    if inputs.size and max(inputs.max(), -inputs.min()) > _FLOAT32_MAX:
        raise ValueError(f"{name} exceed float32's range (|x| > {_FLOAT32_MAX:.7g}), "
                         "in which base training computes")
    return inputs.astype(np.float32)


def _trained_params(model: MlpModel):
    """The arrays train_base updates, in Adam's order; the output bias is not one."""
    return ([layer.weight for layer in model.layers] + [layer.bias for layer in model.layers]
            + [model.output_weight])


def _chunked_logits(model: MlpModel, inputs: Matrix):
    """(row slice, logits) over inputs in chunks of at most _STATS_ROWS rows."""
    for start in range(0, inputs.shape[0], _STATS_ROWS):
        rows = slice(start, start + _STATS_ROWS)
        yield rows, forward(model, inputs[rows])[0]


def train_base(model: MlpModel, data: Dataset, loss: Loss, cfg: TrainConfig,
               eval_data: Dataset | None = None):
    """Train the layers and the output weight, not the output bias, in place with
    mini-batch Adam; return (model, curve), curve[0] before training. README,
    "Base-training precision", gives the float32/float64 split."""
    J = len(data)
    if J == 0:
        raise ValueError("cannot train on an empty dataset")
    if eval_data is not None and len(eval_data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    inputs = _float32_copy(data.inputs, "training inputs")
    eval_inputs = None if eval_data is None else _float32_copy(eval_data.inputs, "eval inputs")
    # the output bias stays float64, so the shadow's logits come out float64
    shadow = MlpModel([Layer(layer.weight.astype(np.float32), layer.bias.astype(np.float32),
                             layer.activation) for layer in model.layers],
                      model.output_weight.astype(np.float32), model.output_bias)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, J)

    def epoch_stats(epoch):
        try:
            train_loss = 0.0
            for rows, logits in _chunked_logits(shadow, inputs):
                train_loss += loss_value(loss, logits, data.targets[rows])
            if eval_data is not None:
                ev_loss, hits = 0.0, 0
                for rows, logits in _chunked_logits(shadow, eval_inputs):
                    targets = eval_data.targets[rows]
                    ev_loss += loss_value(loss, logits, targets)
                    hits += np.count_nonzero(logits.argmax(axis=1) == targets.argmax(axis=1))
        except NonFiniteError:
            raise TrainingDivergedError("training produced non-finite logits", epoch) from None
        if not np.isfinite(train_loss):
            raise TrainingDivergedError("training loss is not finite", epoch)
        if eval_data is None:
            return EpochStats(epoch, train_loss)
        return EpochStats(epoch, train_loss, ev_loss, hits / len(eval_data))

    params = _trained_params(model)
    shadow_params = _trained_params(shadow)
    adam = _AdamState([p.shape for p in params])
    # reused: allocated every step, arrays this size can come from fresh pages (README)
    batch_inputs = np.empty((batch, inputs.shape[1]), np.float32)
    grads = [np.empty(p.shape) for p in params]

    curve = [epoch_stats(0)]
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(J)
        for start in range(0, J, batch):
            idx = perm[start:start + batch]
            # mode="clip" writes straight into out; "raise" would buffer
            x = np.take(inputs, idx, axis=0, out=batch_inputs[:len(idx)], mode="clip")
            logits, pre, acts = _forward_cached(shadow, x)
            try:
                dlogits = loss_value_and_grad(loss, logits, data.targets[idx],
                                              need_value=False)[1]
            except NonFiniteError:
                raise TrainingDivergedError("training produced non-finite logits",
                                            epoch) from None
            grads_w, grads_b, grad_out = _backward(shadow, dlogits.astype(np.float32), pre, acts)
            for g, g32 in zip(grads, grads_w + grads_b + [grad_out]):
                np.copyto(g, g32)
            # the steps live in Adam's own buffers, so they are scaled in place
            for p, p32, s in zip(params, shadow_params, adam.step(grads)):
                s *= cfg.learning_rate
                p -= s
                np.copyto(p32, p)
        curve.append(epoch_stats(epoch))
    return model, curve
