"""Minimal feedforward network engine: ReLU-family MLPs, four losses on softmax
outputs (summed over samples) and mini-batch Adam base training; see README. A loss
holds its J x Q arrays class-major (F order), takes row maxima and sums over the class
columns in order and sums its total in memory order: its bits are the same in any layout."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, ShapeError, TrainingDivergedError
from .linalg import Matrix, check_finite, row_blocks

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
_LEAKY_SLOPE = 0.01  # leaky_relu's slope below 0


@dataclass(frozen=True)
class Activation:
    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def apply(self, z: Matrix) -> Matrix:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z, _LEAKY_SLOPE * z)
        return z

    def derivative(self, z: Matrix) -> Matrix:
        """The activation's slope at z, in z's dtype."""
        if self.kind == "relu":
            return (z > 0.0).astype(z.dtype)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z.dtype.type(1.0), z.dtype.type(_LEAKY_SLOPE))
        return np.ones_like(z)


@dataclass(frozen=True)
class Loss:
    kind: str
    delta: float = 1.0  # huber threshold; every other kind keeps this default

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (0.0 < self.delta < np.inf if self.kind == "huber" else self.delta == Loss.delta):
            raise ValueError(f"{self.kind} cannot take delta {self.delta:g} "
                             "(huber only, finite and > 0)")


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


def _decode(block: Matrix, out: Matrix) -> Matrix:
    """block written into out: code c becomes c / 255 in out's dtype, floats are cast."""
    if block.dtype == np.uint8:
        return np.divide(block, out.dtype.type(255), out=out)
    np.copyto(out, block)
    return out


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
        for i, layer in enumerate(self.layers):
            if not isinstance(layer.activation, Activation):
                raise ValueError(f"layer {i} activation must be an Activation, "
                                 f"got {layer.activation!r}")
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
    """A curve row of either trainer. Without eval data the eval columns score the
    training pass itself; o_norm, |O0 + Delta|_F, is the lifted head's alone."""
    epoch: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float
    o_norm: float | None = None


def make_mlp(input_dim, hidden_widths, n_outputs, activation=Activation("relu"), seed=0):
    """Build an MLP with Gaussian 1/sqrt(fan_in) weights and zero biases."""
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
    """(logits, last hidden activations), over linalg.row_blocks of at most _STATS_ROWS
    rows. uint8 inputs are IDX pixel codes (see Dataset), decoded one chunk at a time."""
    rows = inputs.shape[0]
    blocks = row_blocks(rows, _STATS_ROWS)
    for lo, hi in blocks:
        chunk = (inputs[lo:hi] if inputs.dtype != np.uint8
                 else _decode(inputs[lo:hi], np.empty((hi - lo, inputs.shape[1]))))
        out, pre, acts = _forward_cached(model, chunk)
        if len(blocks) == 1:
            return out, acts[-1]
        if lo == 0:
            logits = np.empty((rows, out.shape[1]), out.dtype)
            features = np.empty((rows, acts[-1].shape[1]), acts[-1].dtype)
        logits[lo:hi], features[lo:hi] = out, acts[-1]
        del chunk, pre, acts  # the next chunk is decoded after this one's arrays die
    return logits, features


def _by_class(ufunc, a: Matrix, out: np.ndarray) -> np.ndarray:
    """out[j] = ufunc(...ufunc(a[j, 0], a[j, 1])..., a[j, -1]): one pass over a's class
    columns in order, exact for np.maximum and fixing the order of np.add's sums."""
    np.copyto(out, a[:, 0])
    for k in range(1, a.shape[1]):
        ufunc(out, a[:, k], out=out)
    return out


def _first_max(a: Matrix) -> np.ndarray:
    """Each row's first maximal column, one class column at a time."""
    top, index = a[:, 0].copy(), np.zeros(len(a), np.intp)
    above, moved = np.empty(len(a), bool), np.empty(len(a), np.intp)
    for k in range(1, a.shape[1]):
        # index < k, so max(index, k * above) is k exactly where column k is above top
        np.multiply(np.greater(a[:, k], top, out=above), k, out=moved)
        np.maximum(index, moved, out=index)
        np.maximum(top, a[:, k], out=top)
    return index


def _class_major(a: Matrix) -> Matrix:
    """a as a float64 J x Q array in F order, its Q x J view C-contiguous; a itself if it is."""
    return np.asarray(a, np.float64, order="F")


class _Targets:
    """Class-major targets with a softmax pass's buffers, made once (J x Q shifted and exp
    arrays; row maxima, sums and their logs) and, when first asked for, the cells, Huber's
    mask, the target row sums and the labels. loss_value_and_grad takes one in place of
    targets and then allocates nothing J-sized; the gradient it returns is one of these
    buffers, reused by the next call. The logits may be the shifted buffer, shifted in place."""

    def __init__(self, targets: Matrix):
        self.values = _class_major(targets)
        j, q = self.values.shape
        # one allocation each: a loop's buffers leave the heap as two blocks when it ends
        self.shifted, self.exp = (a.T for a in np.empty((2, q, j)))
        self.row_max, self.row_sum, self.log_sum = np.empty((3, j))

    @cached_property
    def cells(self) -> Matrix:
        return np.empty(self.values.shape[::-1]).T

    @cached_property
    def quadratic(self) -> Matrix:
        return np.empty(self.values.shape[::-1], bool).T

    @cached_property
    def value_sums(self) -> np.ndarray:
        return _by_class(np.add, self.values, np.empty(len(self.values)))

    @cached_property
    def labels(self) -> np.ndarray:
        return _first_max(self.values)


def loss_value_and_grad(loss: Loss, logits: Matrix, targets: Matrix | _Targets,
                        need_value: bool = True, need_grad: bool = True):
    """(summed loss, its gradient with respect to the logits) from one softmax pass.

    Non-CE losses act on softmax outputs. An output not asked for is None. Logits and
    targets that are not class-major are copied so, once; the gradient is class-major.
    """
    t = targets if isinstance(targets, _Targets) else _Targets(targets)
    logits = _class_major(logits)
    if logits.shape != t.values.shape:
        raise ShapeError(f"logits shape {logits.shape} != targets shape {t.values.shape}")
    row_max = _by_class(np.maximum, logits, t.row_max)
    # NaN and +Inf reach a row maximum, -Inf the least logit
    if not (np.isfinite(row_max.max(initial=0.0)) and np.isfinite(logits.min(initial=0.0))):
        raise NonFiniteError("logits contain NaN or Inf")
    shifted = np.subtract(logits, row_max[:, None], out=t.shifted)
    e = np.exp(shifted, out=t.exp)
    row_sum = _by_class(np.add, e, t.row_sum)[:, None]
    value = grad = None
    if loss.kind == "softmax_cross_entropy":
        if need_value:
            log_p = np.subtract(shifted, np.log(row_sum, out=t.log_sum[:, None]), out=shifted)
            value = -float(np.multiply(log_p, t.values, out=log_p).sum())
        if need_grad:
            # exact also for non-one-hot rows: d/dz of sum_k t_k (lse(z) - z_k)
            grad = np.divide(e, row_sum, out=e)
            grad *= t.value_sums[:, None]
            grad -= t.values
        return value, grad
    p = np.divide(e, row_sum, out=e)
    cells = t.cells
    if loss.kind == "mean_square_error":
        r = np.subtract(p, t.values, out=shifted)
        if need_value:
            value = 0.5 * float(np.square(r, out=cells).sum())
        dp = r
    elif loss.kind == "poisson":
        p_safe = np.add(p, 1e-12, out=shifted)
        if need_value:
            np.multiply(np.log(p_safe, out=cells), t.values, out=cells)
            value = float(np.subtract(p, cells, out=cells).sum())
        if need_grad:
            dp = np.subtract(1.0, np.divide(t.values, p_safe, out=p_safe), out=p_safe)
    else:
        r = np.subtract(p, t.values, out=shifted)
        if need_value:
            # delta (|r| - delta / 2), then 0.5 r r where |r| <= delta
            quad = np.less_equal(np.abs(r, out=cells), loss.delta, out=t.quadratic)
            np.multiply(np.subtract(cells, 0.5 * loss.delta, out=cells), loss.delta, out=cells)
            np.multiply(np.multiply(0.5, r, out=cells, where=quad), r, out=cells, where=quad)
            value = float(cells.sum())
        if need_grad:
            dp = np.clip(r, -loss.delta, loss.delta, out=r)
    if need_grad:
        # softmax backward: p * (dp - rowsum(dp * p)); the exp's row sums are spent
        inner = _by_class(np.add, np.multiply(dp, p, out=cells), t.row_sum)
        dp -= inner[:, None]
        grad = np.multiply(p, dp, out=dp)
    return value, grad


def loss_value(loss: Loss, logits: Matrix, targets: Matrix | _Targets) -> float:
    """Total loss summed over samples. Non-CE losses act on softmax outputs."""
    return loss_value_and_grad(loss, logits, targets, need_grad=False)[0]


def accuracy(logits: Matrix, targets: Matrix) -> float:
    """Fraction of rows whose first maximal logit is in the target's first maximal
    column; ties go to the lowest index. Non-finite logits raise NonFiniteError."""
    logits = _class_major(logits)
    if not np.isfinite(logits).all():
        raise NonFiniteError("logits contain NaN or Inf")
    return _label_accuracy(logits, _first_max(_class_major(targets)))


def _hits(logits: Matrix, labels: np.ndarray) -> int:
    """How many rows of finite logits have their first maximal column at the label."""
    return int(np.count_nonzero(_first_max(logits) == labels))


def _label_accuracy(logits: Matrix, labels: np.ndarray) -> float:
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty dataset")
    return _hits(logits, labels) / logits.shape[0]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ADAM_BLOCK = 1 << 15  # entries per Adam block: its seven arrays, 1.5 MiB, stay in L2


class _AdamState:
    """Adam moments of one flat parameter vector, updated a cache-sized block at a time in
    Kingma & Ba's efficient form (README): bit-identical to the expression in each update's
    comment, a few ulps of the step from the textbook's lr m_hat / (sqrt(v_hat) + eps)."""

    def __init__(self, size):
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._step, self._scratch = np.empty((2, min(size, _ADAM_BLOCK)))
        self.t = 0

    def step(self, grad, lr, params, shadow=None):
        """params -= Adam's step for grad at rate lr, in place; shadow gets params in its dtype."""
        self.t += 1
        root_c2 = np.sqrt(1.0 - ADAM_BETA2 ** self.t)
        alpha, eps = lr * root_c2 / (1.0 - ADAM_BETA1 ** self.t), ADAM_EPS * root_c2
        for lo in range(0, params.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, params.size)
            m, v, p = self.m[lo:hi], self.v[lo:hi], params[lo:hi]
            g, tmp = self._step[:hi - lo], self._scratch[:hi - lo]
            np.copyto(g, grad[lo:hi])
            # m = b1 m + (1-b1) g;  v = b2 v + ((1-b2) g) g
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            # p -= alpha m / (sqrt(v) + eps)
            np.add(np.sqrt(v, out=tmp), eps, out=tmp)
            p -= np.divide(np.multiply(m, alpha, out=g), tmp, out=g)
            if shadow is not None:
                np.copyto(shadow[lo:hi], p)


def _backward(model: MlpModel, dlogits: Matrix, pre, acts, out):
    """Gradients of _trained_params(model) into out, in its order; none for the inputs."""
    np.matmul(dlogits.T, acts[-1], out=out[-1])
    delta, weight = dlogits, model.output_weight
    for i in range(len(model.layers) - 1, -1, -1):
        dz = delta @ weight
        dz *= model.layers[i].activation.derivative(pre[i])
        np.matmul(dz.T, acts[i], out=out[i])
        dz.sum(axis=0, out=out[len(model.layers) + i])
        delta, weight = dz, model.layers[i].weight


_STATS_ROWS = 1024  # most rows per chunk of forward and of the per-epoch statistics
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _trained_params(model: MlpModel):
    """The arrays train_base updates, in Adam's order; the output bias is not one."""
    return ([layer.weight for layer in model.layers] + [layer.bias for layer in model.layers]
            + [model.output_weight])


def _views(model: MlpModel, flat: np.ndarray):
    """Views of flat shaped as _trained_params(model), in its order."""
    ends = np.cumsum([p.size for p in _trained_params(model)])
    return [flat[end - p.size:end].reshape(p.shape)
            for p, end in zip(_trained_params(model), ends)]


def _chunked_logits(model: MlpModel, inputs: Matrix, buffer: Matrix):
    """(row slice, logits) over chunks of at most _STATS_ROWS rows, decoded into buffer."""
    for start in range(0, inputs.shape[0], _STATS_ROWS):
        rows = slice(start, start + _STATS_ROWS)
        block = inputs[rows]
        yield rows, forward(model, _decode(block, buffer[:len(block)]))[0]


def train_base(model: MlpModel, data: Dataset, loss: Loss, cfg: TrainConfig,
               eval_data: Dataset | None = None):
    """Train the layers and the output weight, not the output bias, with mini-batch Adam,
    in place once training completes; return (model, curve), curve[0] before training.
    README, "Base-training precision", gives the float32/float64 split."""
    P = model.input_width
    for name, verb, d in (("training", "train", data), ("eval", "evaluate", eval_data)):
        if d is None:
            continue
        x = d.inputs
        if len(x) == 0:
            raise ValueError(f"cannot {verb} on an empty dataset")
        if x.shape[1] != P:
            raise ShapeError(f"{name} inputs have width {x.shape[1]}, model expects {P}")
        if x.dtype != np.uint8 and x.size and max(x.max(), -x.min()) > _FLOAT32_MAX:
            raise ValueError(f"{name} inputs exceed float32's range (|x| > {_FLOAT32_MAX:.7g}), "
                             "in which base training computes")
    J = len(data)
    # a float64 master theta; shadow and gradients view float32 vectors; output bias float64
    params = _trained_params(model)
    theta = np.concatenate([p.ravel() for p in params], dtype=np.float64)
    theta32, grad32 = theta.astype(np.float32), np.empty(theta.size, np.float32)
    w32, grads = _views(model, theta32), _views(model, grad32)
    shadow = MlpModel([Layer(w, b, layer.activation) for layer, w, b
                       in zip(model.layers, w32, w32[len(model.layers):])],
                      w32[-1], model.output_bias)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, J)

    def score(d, labels=None):
        """(d's summed loss, its accuracy); hits count only if labels are given."""
        total, hits = 0.0, 0
        for rows, logits in _chunked_logits(shadow, d.inputs, stats_inputs):
            total += loss_value(loss, logits, d.targets[rows])
            if labels is not None:
                hits += _hits(logits, labels[rows])
        return total, hits / len(d)

    # the reported accuracy's labels, taken once
    labels = _first_max((data if eval_data is None else eval_data).targets)

    def epoch_stats(epoch):
        try:
            train = score(data, labels if eval_data is None else None)
            ev = train if eval_data is None else score(eval_data, labels)
        except NonFiniteError:
            raise TrainingDivergedError("training produced non-finite logits", epoch) from None
        if not np.isfinite(train[0]):
            raise TrainingDivergedError("training loss is not finite", epoch)
        return EpochStats(epoch, train[0], *ev)

    adam = _AdamState(theta.size)
    # reused: allocated every step, arrays this size can come from fresh pages (README)
    batch_rows = np.empty((batch, P), data.inputs.dtype)
    batch_inputs = np.empty((batch, P), np.float32)
    stats_rows = max(J, 0 if eval_data is None else len(eval_data))
    stats_inputs = np.empty((min(_STATS_ROWS, stats_rows), P), np.float32)

    curve = [epoch_stats(0)]
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(J)
        for start in range(0, J, batch):
            idx = perm[start:start + batch]
            # mode="clip" writes straight into out; "raise" would buffer
            rows = np.take(data.inputs, idx, axis=0, out=batch_rows[:len(idx)], mode="clip")
            x = _decode(rows, batch_inputs[:len(idx)])
            logits, pre, acts = _forward_cached(shadow, x)
            try:
                dlogits = loss_value_and_grad(loss, logits, data.targets[idx],
                                              need_value=False)[1]
            except NonFiniteError:
                raise TrainingDivergedError("training produced non-finite logits",
                                            epoch) from None
            # row-major, as the batch's activations are: the products' bits depend on it
            _backward(shadow, dlogits.astype(np.float32, order="C"), pre, acts, grads)
            adam.step(grad32, cfg.learning_rate, theta, theta32)
        curve.append(epoch_stats(epoch))
    for p, master in zip(params, _views(model, theta)):
        np.copyto(p, master)
    return model, curve
