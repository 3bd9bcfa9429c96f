import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import blobs, one_hot, random_one_hot
from redense import nn
from redense.data import gen_digit_images
from redense.errors import NonFiniteError, ShapeError, TrainingDivergedError
from redense.nn import (ACTIVATION_KINDS, LOSS_KINDS, Activation, Dataset, Layer, Loss,
                        MlpModel, TrainConfig, _AdamState, _backward, _by_class, _decode,
                        _forward_cached, _trained_params, accuracy, forward, loss_value,
                        loss_value_and_grad, make_loss, make_mlp, train_base)

ALL_LOSSES = [Loss("softmax_cross_entropy"), Loss("mean_square_error"),
              Loss("poisson"), Loss("huber", delta=1.0), Loss("huber", delta=0.25)]


def fd_gradient(loss, logits, targets, h=1e-5):
    """Central-difference gradient of the summed loss w.r.t. each logit."""
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (loss_value(loss, up, targets) - loss_value(loss, down, targets)) / (2 * h)
    return grad


def straight_line_forward(model, x):
    """Independent evaluator: unrolled loops, no shared code with forward()."""
    h = x
    for layer in model.layers:
        z = np.empty((h.shape[0], layer.weight.shape[0]))
        for r in range(h.shape[0]):
            for o in range(layer.weight.shape[0]):
                z[r, o] = sum(h[r, k] * layer.weight[o, k] for k in range(h.shape[1]))
                z[r, o] += layer.bias[o]
        if layer.activation.kind == "relu":
            h = np.where(z > 0, z, 0.0)
        elif layer.activation.kind == "leaky_relu":
            h = np.where(z > 0, z, 0.01 * z)
        else:
            h = z
    logits = np.empty((h.shape[0], model.output_weight.shape[0]))
    for r in range(h.shape[0]):
        for o in range(model.output_weight.shape[0]):
            logits[r, o] = sum(h[r, k] * model.output_weight[o, k] for k in range(h.shape[1]))
            logits[r, o] += model.output_bias[o]
    return logits, h


def test_forward_identity_relu_layer():
    model = MlpModel([Layer(np.eye(2), np.zeros(2), Activation("relu"))],
                     np.eye(2), np.zeros(2))
    logits, feats = forward(model, np.array([[1.0, -1.0]]))
    assert np.array_equal(feats, [[1.0, 0.0]])
    assert np.array_equal(logits, [[1.0, 0.0]])


def test_forward_zero_weights_gives_bias():
    model = MlpModel([Layer(np.zeros((3, 2)), np.zeros(3), Activation("relu"))],
                     np.zeros((4, 3)), np.array([1.0, -2.0, 0.5, 0.0]))
    logits, _ = forward(model, np.random.default_rng(0).standard_normal((6, 2)))
    assert np.array_equal(logits, np.tile([1.0, -2.0, 0.5, 0.0], (6, 1)))


def test_forward_matches_straight_line_evaluator(rng):
    model = make_mlp(5, [7, 4], 3, activation=Activation("leaky_relu"), seed=9)
    model.output_bias[:] = rng.standard_normal(3)
    x = rng.standard_normal((6, 5))
    logits, feats = forward(model, x)
    ref_logits, ref_feats = straight_line_forward(model, x)
    assert np.allclose(logits, ref_logits, atol=1e-12)
    assert np.allclose(feats, ref_feats, atol=1e-12)


def test_forward_width_mismatch():
    model = make_mlp(5, [4], 3, seed=0)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, 6)))


def test_ce_symmetric_two_class():
    value = loss_value(Loss("softmax_cross_entropy"), np.array([[0.0, 0.0]]),
                       np.array([[1.0, 0.0]]))
    assert value == pytest.approx(math.log(2.0), rel=1e-12)


def test_ce_gradient_softmax_minus_target():
    grad = loss_value_and_grad(Loss("softmax_cross_entropy"), np.array([[0.0, 0.0]]),
                               np.array([[1.0, 0.0]]))[1]
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-15)


def test_huber_branches():
    # quadratic branch: 0.5 * 0.5^2 = 0.125 ; linear branch: 1 * (2 - 0.5) = 1.5
    def h(r, delta=1.0):
        r = np.asarray(r)
        return float(np.where(np.abs(r) <= delta, 0.5 * r * r,
                              delta * (np.abs(r) - 0.5 * delta)).sum())
    assert h([0.5]) == 0.125
    assert h([2.0]) == 1.5
    # the public op applies the same cell formula to softmax(logits) - targets:
    # two-class zero logits against [1, 0] leaves residuals [-0.5, 0.5]
    value = loss_value(Loss("huber", delta=1.0), np.array([[0.0, 0.0]]),
                       np.array([[1.0, 0.0]]))
    assert value == pytest.approx(0.25, rel=1e-15)


def test_poisson_hand_value():
    # p = [0.5, 0.5], t = [1, 0]: (0.5 - ln 0.5) + 0.5
    value = loss_value(Loss("poisson"), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert value == pytest.approx(1.0 - math.log(0.5), abs=1e-6)


def test_mse_zero_grad_at_perfect_prediction():
    logits = np.array([[0.3, -0.7, 1.1]])
    targets = _reference_softmax(logits)
    grad = loss_value_and_grad(Loss("mean_square_error"), logits, targets)[1]
    assert np.abs(grad).max() < 1e-15


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: f"{l.kind}-{l.delta}")
def test_loss_grad_matches_finite_differences(loss, rng):
    for _ in range(6):
        j, q = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        logits = rng.standard_normal((j, q))
        targets = random_one_hot(rng, j, q)
        analytic = loss_value_and_grad(loss, logits, targets)[1]
        fd = fd_gradient(loss, logits, targets)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err < 1e-4


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        loss_value(Loss("softmax_cross_entropy"), np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_loss_rejects_non_finite_logits(bad):
    # +Inf and NaN reach a row maximum; -Inf only the least logit
    with pytest.raises(NonFiniteError):
        loss_value(Loss("poisson"), np.array([[0.0, 1.0], [bad, 0.0]]), np.eye(2))


def test_ce_log_sum_exp_shift_stability(rng):
    logits = rng.standard_normal((10, 4))
    targets = random_one_hot(rng, 10, 4)
    ce = Loss("softmax_cross_entropy")
    base = loss_value(ce, logits, targets)
    shifted = loss_value(ce, logits + 1000.0, targets)
    assert abs(base - shifted) < 1e-6


def test_make_loss_aliases():
    assert make_loss("ce").kind == "softmax_cross_entropy"
    assert make_loss("mse").kind == "mean_square_error"
    assert make_loss("huber", delta=0.5).delta == 0.5
    with pytest.raises(ValueError):
        make_loss("hinge")
    with pytest.raises(ValueError):
        Loss("huber", delta=0.0)
    for kind in [k for k in LOSS_KINDS if k != "huber"]:
        assert Loss(kind, delta=Loss.delta) == Loss(kind)
        for delta in (-1.0, 0.5, np.nan):
            with pytest.raises(ValueError, match="cannot take delta"):
                Loss(kind, delta=delta)
    with pytest.raises(ValueError, match="cannot take delta -1"):
        make_loss("ce", delta=-1.0)


def test_train_base_reaches_separable_accuracy():
    data = blobs(j=60, noise=0.15, seed=3)
    model = make_mlp(2, [8], 2, seed=3)
    cfg = TrainConfig(learning_rate=5e-3, epochs=200, batch_size=16, seed=3)
    model, curve = train_base(model, data, Loss("softmax_cross_entropy"), cfg)
    assert accuracy(forward(model, data.inputs)[0], data.targets) == 1.0
    assert len(curve) == 201


def test_train_base_zero_epochs_is_identity():
    data = blobs()
    model = make_mlp(2, [4], 2, seed=1)
    before = [p.copy() for p in [model.layers[0].weight, model.layers[0].bias,
                                 model.output_weight]]
    model, curve = train_base(model, data, Loss("softmax_cross_entropy"),
                              TrainConfig(epochs=0, seed=1))
    assert np.array_equal(model.layers[0].weight, before[0])
    assert np.array_equal(model.layers[0].bias, before[1])
    assert np.array_equal(model.output_weight, before[2])
    assert len(curve) == 1


def test_train_base_seed_determinism():
    data = blobs(seed=7)
    runs = []
    for _ in range(2):
        model = make_mlp(2, [6], 2, seed=11)
        model, curve = train_base(model, data, Loss("mean_square_error"),
                                  TrainConfig(learning_rate=1e-2, epochs=25,
                                              batch_size=8, seed=11))
        runs.append((model, [c.train_loss for c in curve]))
    assert np.array_equal(runs[0][0].output_weight, runs[1][0].output_weight)
    assert np.array_equal(runs[0][0].layers[0].weight, runs[1][0].layers[0].weight)
    assert runs[0][1] == runs[1][1]


def test_train_base_divergence_reports_epoch():
    data = blobs(seed=2)
    model = make_mlp(2, [4], 2, seed=2)
    cfg = TrainConfig(learning_rate=1e160, epochs=10, batch_size=80, seed=2)
    before = [p.copy() for p in _trained_params(model)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_base(model, data, Loss("mean_square_error"), cfg)
    assert err.value.epoch >= 1
    # the model's arrays are written only when training completes
    assert all(np.array_equal(p, q) for p, q in zip(_trained_params(model), before))


def test_train_base_output_bias_untouched():
    data = blobs(seed=4)
    model = make_mlp(2, [4], 2, seed=4)
    model.output_bias[:] = [0.25, -0.25]
    train_base(model, data, Loss("softmax_cross_entropy"),
               TrainConfig(epochs=3, seed=4))
    assert np.array_equal(model.output_bias, [0.25, -0.25])


@pytest.mark.parametrize("which", ["training", "eval"])
def test_train_base_refuses_inputs_of_another_width_before_training(which):
    data, wide = blobs(seed=5), Dataset(np.zeros((10, 3)), np.eye(2)[np.arange(10) % 2])
    sets = (wide, data) if which == "training" else (data, wide)
    model = make_mlp(2, [4], 2, seed=5)
    weight = model.layers[0].weight.copy()
    with pytest.raises(ShapeError, match=f"{which} inputs have width 3, model expects 2"):
        train_base(model, sets[0], Loss("softmax_cross_entropy"), TrainConfig(epochs=1),
                   eval_data=sets[1])
    assert np.array_equal(model.layers[0].weight, weight)


@pytest.mark.parametrize("value", [1e39, -1e39])
@pytest.mark.parametrize("which", ["training", "eval"])
def test_train_base_refuses_inputs_beyond_float32_range_before_training(which, value):
    data = blobs(seed=5)
    big = Dataset(data.inputs.copy(), data.targets)
    big.inputs[3, 1] = value
    sets = (big, data) if which == "training" else (data, big)
    model = make_mlp(2, [4], 2, seed=5)
    weight = model.layers[0].weight.copy()
    with pytest.raises(ValueError, match=f"{which} inputs exceed float32's range"):
        train_base(model, sets[0], Loss("softmax_cross_entropy"), TrainConfig(epochs=1),
                   eval_data=sets[1])
    assert np.array_equal(model.layers[0].weight, weight)


def test_forward_features_identity_layer_negative_inputs():
    model = MlpModel([Layer(np.eye(3), np.zeros(3), Activation("relu"))],
                     np.ones((2, 3)), np.zeros(2))
    feats = forward(model, -np.abs(np.random.default_rng(0).standard_normal((4, 3))))[1]
    assert np.array_equal(feats, np.zeros((4, 3)))


def test_evaluate_perfect_logits():
    targets = one_hot([0, 1, 2, 1], 3)
    assert accuracy(targets.copy(), targets) == 1.0


def test_evaluate_tie_break_to_lowest_index():
    targets = one_hot([0, 0, 0], 3)
    assert accuracy(np.zeros((3, 3)), targets) == 1.0


def test_accuracy_against_brute_force(rng):
    logits = rng.standard_normal((40, 3))
    targets = random_one_hot(rng, 40, 3)
    hits = 0
    for row in range(40):
        best, best_v = 0, logits[row, 0]
        for k in range(1, 3):
            if logits[row, k] > best_v:
                best, best_v = k, logits[row, k]
        if targets[row, best] == 1.0:
            hits += 1
    assert accuracy(logits, targets) == hits / 40


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_accuracy_refuses_non_finite_logits(bad):
    # argmax would take the first NaN as the row's maximum
    logits = np.zeros((3, 2))
    logits[1, 1] = bad
    with pytest.raises(NonFiniteError):
        accuracy(logits, one_hot([0, 1, 0], 2))


def test_evaluate_empty_dataset():
    logits, _ = forward(make_mlp(2, [3], 2, seed=0), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        accuracy(logits, np.zeros((0, 2)))


def test_dataset_validations():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([[0.5, 0.2], [1.0, 0.0]]))
    with pytest.raises(NonFiniteError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]))


def test_mlp_refuses_an_activation_that_is_not_an_activation():
    # a string built a model that failed only at its first forward
    with pytest.raises(ValueError, match="layer 0 activation"):
        make_mlp(2, [3], 2, activation="relu")
    good = make_mlp(2, [3, 4], 2, seed=0)
    layers = [good.layers[0], Layer(good.layers[1].weight, good.layers[1].bias, None)]
    with pytest.raises(ValueError, match="layer 1 activation"):
        MlpModel(layers, good.output_weight, good.output_bias)


def test_train_config_validations():
    for lr in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# The softmax losses as two separate passes, each with its own shift, exp
# and row sum: the oracle for the fused loss_value_and_grad. A row sum adds
# the class columns in order; a total sums the cells in class-major memory order.
def _class_sums(a):
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        out = out + a[:, k]
    return out[:, None]


def _total(cells):
    return float(cells.T.ravel().sum())


def _reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / _class_sums(e)


def _reference_loss_value(loss, logits, targets):
    if loss.kind == "softmax_cross_entropy":
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(_class_sums(np.exp(shifted)))
        return -_total(targets * log_p)
    p = _reference_softmax(logits)
    if loss.kind == "mean_square_error":
        return 0.5 * _total(np.square(p - targets))
    if loss.kind == "poisson":
        return _total(p - targets * np.log(p + 1e-12))
    r = p - targets
    quad = np.abs(r) <= loss.delta
    return _total(np.where(quad, 0.5 * r * r, loss.delta * (np.abs(r) - 0.5 * loss.delta)))


def _reference_loss_grad(loss, logits, targets):
    p = _reference_softmax(logits)
    if loss.kind == "softmax_cross_entropy":
        return _class_sums(targets) * p - targets
    if loss.kind == "mean_square_error":
        dp = p - targets
    elif loss.kind == "poisson":
        dp = 1.0 - targets / (p + 1e-12)
    else:
        dp = np.clip(p - targets, -loss.delta, loss.delta)
    return p * (dp - _class_sums(dp * p))


@st.composite
def _loss_case(draw):
    j, q = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    logits = draw(hnp.arrays(np.float64, (j, q), elements=st.floats(-1e3, 1e3)))
    targets = draw(hnp.arrays(np.float64, (j, q), elements=st.floats(0.0, 1.0)))
    return logits, targets


@given(case=_loss_case(), loss=st.sampled_from(ALL_LOSSES))
@settings(max_examples=300, deadline=None)
def test_fused_loss_matches_separate_passes_bitwise(case, loss):
    logits, targets = case
    value, grad = loss_value_and_grad(loss, logits, targets)
    assert value == _reference_loss_value(loss, logits, targets)
    assert np.array_equal(grad, _reference_loss_grad(loss, logits, targets))
    assert loss_value(loss, logits, targets) == value
    assert loss_value_and_grad(loss, logits, targets, need_grad=False) == (value, None)
    only_grad = loss_value_and_grad(loss, logits, targets, need_value=False)
    assert only_grad[0] is None and np.array_equal(only_grad[1], grad)


def _layouts(a):
    """a as a C-ordered, an F-ordered and two strided arrays, all holding its values."""
    j, q = a.shape
    c_wide, f_wide = np.zeros((2 * j, 3 * q)), np.zeros((2 * j, 3 * q), order="F")
    c_wide[::2, ::3] = f_wide[::2, ::3] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), c_wide[::2, ::3], f_wide[::2, ::3]]


@given(j=st.integers(1, 9), q=st.integers(1, 140), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(j=3, q=8, ties=True, seed=0)
@example(j=3, q=10, ties=True, seed=1)
@example(j=2, q=129, ties=False, seed=2)
@example(j=4, q=140, ties=True, seed=3)
@example(j=1, q=16, ties=False, seed=4)
def test_one_loss_gives_the_same_bits_in_any_layout(j, q, ties, seed):
    # q crosses numpy's pairwise-sum thresholds (8 accumulators, halves above 128
    # terms), past which a numpy row sum leaves class order, as sum(axis=0) of the
    # Q x J view does at j = 1; with ties, coarse logits repeat each row's maximum
    rng = np.random.default_rng(seed)
    logits = (rng.integers(-2, 3, (j, q)).astype(float) if ties
              else rng.standard_normal((j, q)) * 10.0 ** rng.integers(-3, 3))
    targets = rng.random((j, q))
    one_hot_rows = rng.random(j) < 0.5
    targets[one_hot_rows] = random_one_hot(rng, j, q)[one_hot_rows]
    expected_accuracy = np.mean(logits.argmax(axis=1) == targets.argmax(axis=1))
    for a in _layouts(logits):
        assert _by_class(np.add, a, np.empty(j)).tobytes() == _class_sums(logits).tobytes()
    for loss in ALL_LOSSES:
        value = _reference_loss_value(loss, logits, targets)
        grad = _reference_loss_grad(loss, logits, targets).tobytes()
        for a in _layouts(logits):
            for t in _layouts(targets)[:2]:
                fused = loss_value_and_grad(loss, a, t)
                assert fused[0] == value and fused[1].tobytes() == grad
                assert loss_value_and_grad(loss, a, t, need_value=False)[1].tobytes() == grad
                assert loss_value_and_grad(loss, a, t, need_grad=False) == (value, None)
                assert loss_value(loss, a, t) == value
    for a in _layouts(logits):
        for t in _layouts(targets):
            assert accuracy(a, t) == expected_accuracy


@pytest.mark.parametrize("loss", ALL_LOSSES[:4], ids=lambda loss: loss.kind)
def test_a_loss_on_made_targets_allocates_nothing_j_sized(loss):
    # the first call makes the buffers held for later ones; a later call allocates
    # numpy's fixed iteration buffer of 8192 float64 elements, whatever J, and under
    # 1 KB besides: not even a J-length bool array
    rng = np.random.default_rng(8)
    j, q = 2000, 10
    work = nn._Targets(random_one_hot(rng, j, q))
    logits = np.asfortranarray(rng.standard_normal((j, q)))
    first = loss_value_and_grad(loss, logits, work)
    tracemalloc.start()
    try:
        value, grad = loss_value_and_grad(loss, logits, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == first[0] and grad is first[1]
    assert peak < 8 * np.getbufsize() + 1024


def test_fused_loss_checks_its_arguments():
    ce = Loss("softmax_cross_entropy")
    with pytest.raises(ShapeError):
        loss_value_and_grad(ce, np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(NonFiniteError):
        loss_value_and_grad(ce, np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "identity"])
def test_backward_matches_finite_differences(activation, rng):
    # objective sum(C * logits): its logits gradient is C, so this checks
    # _backward alone; two hidden layers exercise the inner-layer deltas
    model = make_mlp(4, [5, 3], 3, activation=Activation(activation), seed=5)
    for layer in model.layers:
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal((6, 4))
    c = rng.standard_normal((6, 3))
    logits, pre, acts = _forward_cached(model, x)
    grads = [np.empty_like(p) for p in _trained_params(model)]
    _backward(model, c, pre, acts, grads)

    def objective():
        return float((c * forward(model, x)[0]).sum())

    params = [layer.weight for layer in model.layers]
    params += [layer.bias for layer in model.layers]
    params.append(model.output_weight)
    h = 1e-6
    for param, analytic in zip(params, grads):
        assert analytic.shape == param.shape
        fd = np.zeros_like(param)
        for k in np.ndindex(param.shape):
            keep = param[k]
            param[k] = keep + h
            up = objective()
            param[k] = keep - h
            down = objective()
            param[k] = keep
            fd[k] = (up - down) / (2 * h)
        assert np.abs(analytic - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def _reference_train_base(model, data, loss, cfg, eval_data):
    """train_base written out with float32 products on freshly cast weights,
    float64 loss and an allocating float64 Adam, a backward pass that also
    forms the unused input gradient, separate loss/gradient passes, and
    statistics summed over 1024-row chunks: the oracle for train_base's
    mixed-precision in-place loop. Without eval_data the eval columns are the
    training pass's loss and accuracy."""
    f32 = np.float32

    def run_forward(inputs):
        acts, pre, h = [inputs.astype(f32)], [], inputs.astype(f32)
        for layer in model.layers:
            z = h @ layer.weight.astype(f32).T + layer.bias.astype(f32)
            h = layer.activation.apply(z)
            pre.append(z)
            acts.append(h)
        logits = (h @ model.output_weight.astype(f32).T).astype(np.float64)
        return logits + model.output_bias, pre, acts

    def chunk_sums(ds):
        value, hits = 0.0, 0
        for start in range(0, len(ds), 1024):
            logits = run_forward(ds.inputs[start:start + 1024])[0]
            targets = ds.targets[start:start + 1024]
            value += _reference_loss_value(loss, logits, targets)
            hits += int((logits.argmax(axis=1) == targets.argmax(axis=1)).sum())
        return value, hits / len(ds)

    def stats(epoch):
        train_loss, train_accuracy = chunk_sums(data)
        if eval_data is None:
            return epoch, train_loss, train_loss, train_accuracy
        return (epoch, train_loss, *chunk_sums(eval_data))

    J = len(data)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, J)
    params = [layer.weight for layer in model.layers]
    params += [layer.bias for layer in model.layers]
    params.append(model.output_weight)
    m_t = [np.zeros(p.shape) for p in params]
    v_t = [np.zeros(p.shape) for p in params]
    t = 0
    curve = [stats(0)]
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(J)
        for start in range(0, J, batch):
            idx = perm[start:start + batch]
            logits, pre, acts = run_forward(data.inputs[idx])
            dlogits = _reference_loss_grad(loss, logits, data.targets[idx]).astype(f32)
            grads_w = [None] * len(model.layers)
            grads_b = [None] * len(model.layers)
            grad_out = dlogits.T @ acts[-1]
            delta = dlogits @ model.output_weight.astype(f32)
            for i in range(len(model.layers) - 1, -1, -1):
                dz = delta * model.layers[i].activation.derivative(pre[i])
                grads_w[i] = dz.T @ acts[i]
                grads_b[i] = dz.sum(axis=0)
                delta = dz @ model.layers[i].weight.astype(f32)
            t += 1
            # Kingma & Ba's efficient form: the bias corrections folded into alpha and eps
            root_c2 = np.sqrt(1.0 - 0.999 ** t)
            alpha, eps = cfg.learning_rate * root_c2 / (1.0 - 0.9 ** t), 1e-8 * root_c2
            for i, g32 in enumerate(grads_w + grads_b + [grad_out]):
                assert g32.dtype == f32
                g = g32.astype(np.float64)
                m_t[i] = 0.9 * m_t[i] + (1.0 - 0.9) * g
                v_t[i] = 0.999 * v_t[i] + (1.0 - 0.999) * g * g
                params[i] -= alpha * m_t[i] / (np.sqrt(v_t[i]) + eps)
        curve.append(stats(epoch))
    return model, curve


BASE_TRAINING_CASES = pytest.mark.parametrize("hidden,loss,cfg,rows,eval_rows", [
    ([6], Loss("softmax_cross_entropy"),
     TrainConfig(learning_rate=1e-2, epochs=6, batch_size=16, seed=1), 83, 30),
    ([6, 4], Loss("mean_square_error"),
     TrainConfig(learning_rate=5e-3, epochs=5, batch_size=32, seed=2), 83, 30),
    ([5, 5], Loss("poisson"),
     TrainConfig(learning_rate=1e-2, epochs=4, batch_size=7, seed=3), 83, 30),
    ([7, 3], Loss("huber", delta=0.25),
     TrainConfig(learning_rate=2e-2, epochs=4, batch_size=9, seed=4), 83, 30),
    ([8], Loss("softmax_cross_entropy"),
     TrainConfig(learning_rate=1e-2, epochs=2, batch_size=300, seed=5), 2100, 1100),
    ([6], Loss("mean_square_error"),
     TrainConfig(learning_rate=1e-2, epochs=3, batch_size=64, seed=6), 1100, None),
    ([6], Loss("softmax_cross_entropy"),
     TrainConfig(learning_rate=1e-2, epochs=4, batch_size=16, seed=7), 83, None),
    ([5, 5], Loss("poisson"),
     TrainConfig(learning_rate=1e-2, epochs=3, batch_size=7, seed=8), 83, None),
    ([7, 3], Loss("huber", delta=0.25),
     TrainConfig(learning_rate=2e-2, epochs=3, batch_size=9, seed=9), 83, None),
], ids=["adam-1hidden", "adam-mse-2hidden", "adam-poisson-2hidden", "adam-huber-2hidden",
        "adam-chunked-stats", "adam-no-eval-chunked-stats", "adam-no-eval-1hidden",
        "adam-no-eval-poisson-2hidden", "adam-no-eval-huber-2hidden"])


@BASE_TRAINING_CASES
def test_train_base_matches_allocating_loop_bitwise(hidden, loss, cfg, rows, eval_rows):
    # 83 training rows is a multiple of none of the batch sizes; 2100 training
    # and 1100 eval rows split the statistics into 1024-row chunks with a remainder;
    # without eval rows the eval columns score the training pass
    data = blobs(j=rows, classes=3, noise=0.5, seed=cfg.seed)
    eval_data = (None if eval_rows is None
                 else blobs(j=eval_rows, classes=3, noise=0.5, seed=cfg.seed + 100))
    leaky = Activation("leaky_relu")
    model, curve = train_base(make_mlp(2, hidden, 3, activation=leaky, seed=cfg.seed),
                              data, loss, cfg, eval_data=eval_data)
    ref, ref_curve = _reference_train_base(
        make_mlp(2, hidden, 3, activation=leaky, seed=cfg.seed), data, loss, cfg, eval_data)
    for layer, ref_layer in zip(model.layers, ref.layers):
        assert layer.weight.dtype == layer.bias.dtype == np.float64
        assert np.array_equal(layer.weight, ref_layer.weight)
        assert np.array_equal(layer.bias, ref_layer.bias)
    assert model.output_weight.dtype == np.float64
    assert np.array_equal(model.output_weight, ref.output_weight)
    assert [(c.epoch, c.train_loss, c.eval_loss, c.eval_accuracy) for c in curve] == ref_curve


@BASE_TRAINING_CASES
def test_train_base_in_odd_adam_blocks_matches_allocating_loop_bitwise(hidden, loss, cfg, rows,
                                                                       eval_rows, monkeypatch):
    # 7-entry blocks straddle the boundaries between the parameters in the flat vector
    monkeypatch.setattr(nn, "_ADAM_BLOCK", 7)
    test_train_base_matches_allocating_loop_bitwise(hidden, loss, cfg, rows, eval_rows)


def _digits(j, seed):
    images, labels = gen_digit_images(j, seed=seed)
    return Dataset(images.reshape(j, -1) / 255.0, one_hot(labels.astype(int), 10))


def test_train_base_curve_matches_the_float64_loss_of_its_model():
    # the curve reports the float32 forward; the saved model is float64
    data, eval_data = _digits(800, seed=21), _digits(300, seed=22)
    loss = Loss("softmax_cross_entropy")
    cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=64, seed=21)
    model, curve = train_base(make_mlp(784, [32], 10, seed=21), data, loss, cfg,
                              eval_data=eval_data)
    train_loss = loss_value(loss, forward(model, data.inputs)[0], data.targets)
    eval_acc = accuracy(forward(model, eval_data.inputs)[0], eval_data.targets)
    assert abs(curve[-1].train_loss - train_loss) <= 1e-5 * train_loss
    assert curve[-1].eval_accuracy == eval_acc


def test_train_base_allocates_only_the_float32_input_copies():
    # a float64 J x P copy, or full-batch J x hidden statistics, would exceed this
    rng = np.random.default_rng(5)
    j, j_eval, p, hidden = 5000, 1000, 64, 32
    data = Dataset(rng.standard_normal((j, p)), random_one_hot(rng, j, 3))
    eval_data = Dataset(rng.standard_normal((j_eval, p)), random_one_hot(rng, j_eval, 3))
    model = make_mlp(p, [hidden], 3, seed=5)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=64, seed=5)
    tracemalloc.start()
    try:
        train_base(model, data, Loss("softmax_cross_entropy"), cfg, eval_data=eval_data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: a 1024-row chunk's float32 pre-activations, activations and product
    # temporary, plus 256 KiB for Adam's state, the permutation and one batch
    assert peak <= (j + j_eval) * p * 4 + 3 * 1024 * hidden * 4 + 256 * 1024


def test_train_base_on_floats_holds_no_copy_of_its_inputs():
    # per training row a float32 copy of the inputs would take 4 p bytes, and one of
    # the eval inputs 2 p more; the epoch's permutation takes 8
    p = 64

    def peak(j):
        rng = np.random.default_rng(j)
        data = Dataset(rng.standard_normal((j, p)), random_one_hot(rng, j, 3))
        eval_data = Dataset(rng.standard_normal((j // 2, p)), random_one_hot(rng, j // 2, 3))
        cfg = TrainConfig(epochs=1, batch_size=64, seed=5)
        tracemalloc.start()
        try:
            train_base(make_mlp(p, [16], 3, seed=5), data, Loss("softmax_cross_entropy"), cfg,
                       eval_data=eval_data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(3000) - peak(1000)) / 2000 < 4 * p


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_activation_derivative_keeps_the_dtype(kind):
    z = np.array([[-1.5, 0.0, 2.0]])
    act = Activation(kind)
    for dtype in (np.float32, np.float64):
        d = act.derivative(z.astype(dtype))
        assert d.dtype == dtype
        assert np.array_equal(d, act.derivative(z).astype(dtype))


def test_adam_step_reuses_its_buffers():
    # 64 x 784 entries: more than one block
    size = 64 * 784
    adam = _AdamState(size)
    grad = np.random.default_rng(0).standard_normal(size).astype(np.float32)
    params, shadow = np.zeros(size), np.zeros(size, np.float32)
    adam.step(grad, 1e-3, params, shadow)
    tracemalloc.start()
    try:
        for _ in range(50):
            adam.step(grad, 1e-3, params, shadow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grad.nbytes
    assert shadow.tobytes() == params.astype(np.float32).tobytes()


@pytest.mark.parametrize("lr", [1e-3, 0.5])
@pytest.mark.parametrize("t", [1, 2, 10, 1000, 10**5])
def test_adam_step_is_within_8_ulps_of_the_textbook_step(t, lr):
    # from the same (m, v) after t - 1 steps; |g| spans 1e-12 to 10; the last 100
    # entries have only ever had zero gradients and must not move
    rng = np.random.default_rng(t)
    n, zeros = 5000, 100
    scale = 10.0 ** rng.uniform(-12, 1, n)
    adam = _AdamState(n)
    adam.t = t - 1
    adam.m[:] = scale * rng.uniform(-1, 1, n) * (1 - 0.9 ** (t - 1))
    adam.v[:] = scale ** 2 * rng.uniform(0, 1, n) * (1 - 0.999 ** (t - 1))
    grad = (scale * rng.uniform(-1, 1, n)).astype(np.float32)
    adam.m[-zeros:] = adam.v[-zeros:] = grad[-zeros:] = 0.0
    resting = rng.standard_normal(zeros)
    params = np.concatenate([np.zeros(n - zeros), resting])
    adam.step(grad, lr, params)
    # the moments are updated as before, so the textbook step reads them back
    m_hat, v_hat = adam.m / (1.0 - 0.9 ** t), adam.v / (1.0 - 0.999 ** t)
    textbook = lr * (m_hat / (np.sqrt(v_hat) + 1e-8))
    moved = textbook[:-zeros]
    assert np.all(moved != 0.0)
    assert np.all(np.abs(-params[:-zeros] - moved) <= 8 * np.spacing(np.abs(moved)))
    assert params[-zeros:].tobytes() == resting.tobytes()


def test_train_base_step_allocates_no_parameter_sized_array():
    # one 784 x 512 float32 gradient allocated per step, 1.53 MiB, would exceed
    # the slack: the batch buffers and 1.5 MiB of batch temporaries
    rng = np.random.default_rng(5)
    j, p, hidden = 128, 784, 512
    data = Dataset(rng.integers(0, 256, (j, p), dtype=np.uint8), random_one_hot(rng, j, 10))
    model = make_mlp(p, [hidden], 10, seed=5)
    size = sum(a.size for a in _trained_params(model))
    tracemalloc.start()
    try:
        train_base(model, data, Loss("softmax_cross_entropy"),
                   TrainConfig(epochs=1, batch_size=j, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # held: the float64 master and moments, the float32 shadow and gradient, Adam's
    # two block buffers and the statistics' input buffer of min(_STATS_ROWS, j) rows
    held = 32 * size + 16 * nn._ADAM_BLOCK + 4 * min(nn._STATS_ROWS, j) * p
    assert peak <= held + 5 * j * p + 1.5 * 2**20


def test_decode_rule_is_the_float64_division_for_every_code():
    # float32 division gives the float32 cast of the float64 quotient, for all 256 codes
    codes = np.arange(256, dtype=np.uint8)
    expected = np.arange(256) / 255.0
    for dtype, want in ((np.float64, expected), (np.float32, expected.astype(np.float32))):
        decoded = _decode(codes, np.empty(256, dtype))
        assert decoded.dtype == dtype and decoded.tobytes() == want.tobytes()


@pytest.mark.parametrize("hidden", [[], [16], [32, 16]], ids=str)
@pytest.mark.parametrize("j", [1, 2, 1023, 1024, 1025, 2049, 3001])
def test_forward_on_codes_is_the_whole_array_forward_on_values(j, hidden):
    # forward runs in chunks; a 1-row chunk (a matrix-vector product) would
    # round differently from the whole-array product
    rng = np.random.default_rng(j)
    codes = rng.integers(0, 256, size=(j, 40), dtype=np.uint8)
    model = make_mlp(40, hidden, 10, seed=j)
    model.output_bias[:] = rng.standard_normal(10)
    values = codes / 255.0
    whole_logits, _, acts = _forward_cached(model, values)
    for inputs in (codes, values):
        logits, features = forward(model, inputs)
        assert logits.tobytes() == whole_logits.tobytes()
        assert features.tobytes() == acts[-1].tobytes()


def test_train_base_on_codes_is_train_base_on_values():
    images, labels = gen_digit_images(700, seed=13)
    codes, targets = images.reshape(700, -1), one_hot(labels.astype(int), 10)
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=64, seed=13)
    runs = []
    for inputs in (codes, codes / 255.0):
        data = Dataset(inputs[:500], targets[:500])
        runs.append(train_base(make_mlp(784, [24], 10, seed=13), data,
                               Loss("softmax_cross_entropy"), cfg,
                               eval_data=Dataset(inputs[500:], targets[500:])))
    (a, curve_a), (b, curve_b) = runs
    assert [p.tobytes() for p in _trained_params(a)] == [p.tobytes() for p in _trained_params(b)]
    assert curve_a == curve_b


def test_dataset_keeps_codes_and_coerces_everything_else_to_float64():
    targets = np.eye(2)
    assert Dataset(np.array([[0, 255], [7, 8]], dtype=np.uint8), targets).inputs.dtype == np.uint8
    for inputs in ([[0, 255], [7, 8]], np.array([[0, 255], [7, 8]], dtype=np.int16),
                   np.zeros((2, 2), dtype=np.float32)):
        assert Dataset(inputs, targets).inputs.dtype == np.float64
