import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import CE, lfp_lift, lfp_reconstruct, near_singular, random_one_hot
from redense.errors import ConstraintError, ShapeError, TrainingDivergedError
from redense.layer import (MAX_CONDITION, HeadConfig, RedenseLayer, _head_grad,
                           _head_logits, _positive_half, _project, build, predict, train)
from redense.linalg import frobenius_norm
from redense.nn import LOSS_KINDS, Loss, accuracy, loss_value, loss_value_and_grad


def identity_layer(n, q=None):
    q = n if q is None else q
    o0 = np.hstack([np.eye(q, n), -np.eye(q, n)])
    return RedenseLayer(R=np.eye(n), epsilon=frobenius_norm(o0), base=np.eye(q, n),
                        delta=np.zeros_like(o0), seed=0, O0=o0)


def build_with_r(output_weight, r):
    """build() with its sampled projection replaced by r."""
    m, n = r.shape
    with mock.patch("redense.layer.sample_gaussian", lambda rows, cols, seed: r):
        return build(output_weight, m, seed=0)


def test_build_identity_projection():
    layer = build_with_r(np.eye(2), np.eye(2))
    assert np.array_equal(layer.O0, np.hstack([np.eye(2), -np.eye(2)]))
    assert np.array_equal(layer.base, np.eye(2))
    assert np.array_equal(layer.delta, np.zeros((2, 4)))
    assert layer.epsilon == 2.0


def test_build_scaled_identity_projection():
    layer = build_with_r(np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(layer.O0, np.hstack([0.5 * np.eye(2), -0.5 * np.eye(2)]), atol=1e-15)
    assert layer.epsilon == pytest.approx(1.0, rel=1e-15)


def test_build_epsilon_matches_flat_sum_oracle(rng):
    ohat = rng.standard_normal((3, 4))
    r = rng.standard_normal((6, 4))
    layer = build_with_r(ohat, r)
    # C order, like train's copy of delta, so |O0 + delta|_F sums in one order
    assert layer.O0.flags.c_contiguous and layer.delta.flags.c_contiguous
    total = 0.0
    for i in range(layer.O0.shape[0]):
        for j in range(layer.O0.shape[1]):
            total += layer.O0[i, j] ** 2
    assert layer.epsilon == pytest.approx(total ** 0.5, abs=1e-12)


def test_build_rejects_m_below_n():
    with pytest.raises(ConstraintError, match="m >= n"):
        build(np.ones((2, 4)), m=3, seed=0)


def test_build_rejects_zero_output_weight():
    with pytest.raises(ConstraintError):
        build(np.zeros((2, 3)), m=3, seed=0)


def test_build_resamples_an_ill_conditioned_projection(rng, caplog):
    good = rng.standard_normal((6, 3))
    draws = {0: np.outer(np.arange(1.0, 7.0), np.ones(3)), 1: good}  # rank 1, then full rank
    ohat = rng.standard_normal((2, 3))
    with mock.patch("redense.layer.sample_gaussian", lambda rows, cols, seed: draws[seed]):
        layer = build(ohat, 6, seed=0)
    assert np.array_equal(layer.R, good)
    assert np.allclose(layer.O0[:, :6], ohat @ np.linalg.pinv(good), rtol=0, atol=1e-12)
    assert "resampling with seed 1" in caplog.text
    assert layer.resamples == 1
    oracle = np.linalg.norm(good) * np.linalg.norm(np.linalg.pinv(good))
    assert layer.cond_r == pytest.approx(oracle, rel=1e-12)


def test_build_needs_no_svd_and_no_solve(rng):
    def fail(*args, **kwargs):
        raise AssertionError("build called an SVD or an LU solve")

    ohat = rng.standard_normal((3, 70))
    with mock.patch("numpy.linalg.svd", fail), mock.patch("numpy.linalg.solve", fail):
        layer = build(ohat, 140, seed=4)
    assert layer.resamples == 0 and 70 <= layer.cond_r <= MAX_CONDITION
    assert frobenius_norm(layer.O0[:, :140] @ layer.R - ohat) < 1e-10 * frobenius_norm(ohat)


def test_build_gives_up_on_a_rank_deficient_projection():
    with mock.patch("redense.layer.sample_gaussian", lambda rows, cols, seed: np.zeros((rows, cols))):
        with pytest.raises(ConstraintError, match="well-conditioned"):
            build(np.ones((2, 3)), 4, seed=0)


def test_build_holds_no_orthogonal_factor(rng):
    # R itself and one m x n working copy for the QR: an m x n orthogonal
    # factor on top would pass 3 m n 8 bytes
    m, n = 1024, 256
    ohat = rng.standard_normal((10, n))
    assert _traced_peak(build, ohat, m, 0) < 3 * m * n * 8


def test_layer_r_is_frozen():
    layer = build(np.eye(2), m=4, seed=1)
    with pytest.raises(ValueError):
        layer.R[0, 0] = 99.0


def test_lift_sign_split():
    layer = identity_layer(2)
    lifted = lfp_lift(layer, np.array([[1.0, -2.0]]))
    assert np.array_equal(lifted, [[1.0, 0.0, 0.0, 2.0]])


def test_lift_zero_features():
    layer = identity_layer(3)
    assert np.array_equal(lfp_lift(layer, np.zeros((5, 3))), np.zeros((5, 6)))


def test_lift_nonnegative_and_width_check(rng):
    layer = build(rng.standard_normal((2, 3)), m=5, seed=2)
    lifted = lfp_lift(layer, rng.standard_normal((8, 3)))
    assert (lifted >= 0.0).all()
    assert lifted.shape == (8, 10)
    with pytest.raises(ShapeError):
        predict(layer, np.zeros((4, 4)))


def test_lift_halves_differ_by_projection_exactly(rng):
    layer = build(rng.standard_normal((2, 4)), m=7, seed=3)
    feats = rng.standard_normal((10, 4))
    lifted = lfp_lift(layer, feats)
    assert np.array_equal(lifted[:, :7] - lifted[:, 7:], feats @ layer.R.T)


def test_reconstruct_inverts_example():
    assert np.array_equal(lfp_reconstruct(np.array([[1.0, 0.0, 0.0, 2.0]]), 2),
                          [[1.0, -2.0]])


def test_reconstruct_cancellation():
    assert np.array_equal(lfp_reconstruct(np.array([[5.0, 5.0]]), 1), [[0.0]])


def test_reconstruct_rejects_odd_columns():
    with pytest.raises(ShapeError, match="odd"):
        lfp_reconstruct(np.zeros((2, 5)), 2)
    with pytest.raises(ShapeError):
        lfp_reconstruct(np.zeros((2, 6)), 2)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 32)),
                  elements=st.floats(-1e150, 1e150, allow_nan=False, width=64)))
@settings(max_examples=100, deadline=None)
def test_lift_identity_roundtrip_is_exact(z):
    layer = identity_layer(z.shape[1])
    assert np.array_equal(lfp_reconstruct(lfp_lift(layer, z), z.shape[1]), z)


def test_project_rescale_example():
    projected = _project(np.array([[3.0, 4.0], [0.0, 0.0]]), 1.0)
    assert np.allclose(projected, [[0.6, 0.8], [0.0, 0.0]], atol=1e-15)


def test_project_noop_inside_and_on_boundary():
    z = np.array([[3.0, 4.0]])
    assert _project(z, 5.0) is z
    assert _project(z, 6.0) is z


@given(seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_project_idempotent(seed, epsilon):
    z = np.random.default_rng(seed).standard_normal((3, 4))
    once = _project(z, epsilon)
    twice = _project(once.copy(), epsilon)
    assert np.array_equal(once, twice)
    assert frobenius_norm(once) <= epsilon * (1 + 1e-12)


def _instance(rng, j=40, n=6, q=3, m=None):
    feats = rng.standard_normal((j, n))
    ohat = rng.standard_normal((q, n)) / np.sqrt(n)
    targets = random_one_hot(rng, j, q)
    layer = build(ohat, m if m is not None else n, seed=int(rng.integers(1 << 31)))
    return layer, feats, ohat, targets


def test_train_zero_iterations_returns_start(rng):
    layer, feats, _, targets = _instance(rng)
    trained, report, curve = train(layer, feats, targets, CE, HeadConfig(epochs=0))
    assert not trained.delta.any()
    assert report.old_loss == loss_value(CE, feats @ layer.base.T, targets)
    assert report.final_loss == report.old_loss
    assert report.guarantee_holds
    assert (report.stop_reason, report.stopped_at, report.best_epoch) == ("completed", 0, 0)
    assert len(curve) == 1


@pytest.mark.parametrize("n,m", [(8, 8), (8, 16), (64, 64), (64, 128), (256, 256), (256, 512)])
def test_init_loss_matches_base_loss(n, m):
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        feats = rng.standard_normal((30, n))
        ohat = rng.standard_normal((5, n)) / np.sqrt(n)
        targets = random_one_hot(rng, 30, 5)
        layer = build(ohat, m, seed=seed)
        old = loss_value(CE, feats @ ohat.T, targets)
        init = loss_value(CE, predict(layer, feats), targets)
        assert init == old
        _, report, _ = train(layer, feats, targets, CE, HeadConfig(epochs=0))
        assert report.old_loss == report.final_loss == old


def test_predict_at_start_matches_base_head(rng):
    layer, feats, ohat, _ = _instance(rng, m=9)
    assert np.array_equal(predict(layer, feats), feats @ ohat.T)


def test_predict_zero_features_gives_zero_logits(rng):
    layer, _, _, _ = _instance(rng)
    assert np.array_equal(predict(layer, np.zeros((4, 6))), np.zeros((4, 3)))


def test_predict_against_straight_line_oracle(rng):
    layer, feats, ohat, _ = _instance(rng, j=5, n=4, q=2, m=6)
    layer = replace(layer, delta=1e-2 * rng.standard_normal((2, 12)))
    expected = np.empty((5, 2))
    for row in range(5):
        z = [sum(layer.R[i, k] * feats[row, k] for k in range(4)) for i in range(6)]
        lifted = [max(v, 0.0) for v in z] + [max(-v, 0.0) for v in z]
        for out in range(2):
            expected[row, out] = (sum(ohat[out, k] * feats[row, k] for k in range(4))
                                  + sum(layer.delta[out, c] * lifted[c] for c in range(12)))
    # the base term is float64 and the correction float32
    assert np.all(np.abs(predict(layer, feats) - expected)
                  <= 1e-12 + correction_bound(feats, layer.R, layer.delta))


def test_train_respects_constraint_every_iteration(rng):
    layer, feats, _, targets = _instance(rng)
    cfg = HeadConfig(learning_rate=0.5, epochs=60)
    _, report, curve = train(layer, feats, targets, CE, cfg)
    assert all(c.o_norm <= report.epsilon * (1 + 1e-12) for c in curve)
    assert report.guarantee_holds


def test_train_improves_loss_on_easy_problem(rng):
    layer, feats, _, targets = _instance(rng, j=80)
    cfg = HeadConfig(learning_rate=1e-2, epochs=150)
    _, report, _ = train(layer, feats, targets, CE, cfg)
    assert report.final_loss < report.old_loss


def test_train_guarantee_across_seeds_and_shapes():
    for seed in range(20):
        for (n, m, q) in [(4, 4, 2), (6, 9, 3), (5, 10, 4)]:
            rng = np.random.default_rng(seed * 100 + n)
            feats = rng.standard_normal((30, n))
            ohat = rng.standard_normal((q, n))
            targets = random_one_hot(rng, 30, q)
            layer = build(ohat, m, seed=seed)
            _, report, _ = train(layer, feats, targets, CE,
                                 HeadConfig(learning_rate=0.3, epochs=25))
            assert report.guarantee_holds
            assert report.final_loss <= report.old_loss


def test_train_returns_best_iterate_not_last(rng):
    # a deliberately unstable rate: the last iterate is worse than the best
    layer, feats, _, targets = _instance(rng, j=20)
    cfg = HeadConfig(learning_rate=5.0, epochs=40)
    trained, report, curve = train(layer, feats, targets, CE, cfg)
    losses = [c.train_loss for c in curve]
    assert report.final_loss == min(losses) < losses[-1]
    assert losses[report.best_epoch] == report.final_loss
    assert curve[report.best_epoch].epoch == report.best_epoch
    final = loss_value(CE, predict(trained, feats), targets)
    assert final == report.final_loss


def test_train_eval_curve_columns(rng):
    layer, feats, _, targets = _instance(rng)
    ev_feats = rng.standard_normal((15, 6))
    ev_targets = random_one_hot(rng, 15, 3)
    _, _, curve = train(layer, feats, targets, CE, HeadConfig(learning_rate=1e-2, epochs=5),
                        eval_features=ev_feats, eval_targets=ev_targets)
    assert all(c.eval_loss is not None and c.eval_accuracy is not None for c in curve)
    assert len(curve) == 6


def test_train_refuses_to_score_an_empty_dataset(rng):
    layer, feats, _, targets = _instance(rng)
    cfg = HeadConfig(epochs=2)
    with pytest.raises(ValueError, match="empty"):
        train(layer, feats[:0], targets[:0], CE, cfg)
    with pytest.raises(ValueError, match="empty"):
        train(layer, feats, targets, CE, cfg, eval_features=feats[:0], eval_targets=targets[:0])


def test_train_aborts_to_best_iterate_on_overflow(rng, monkeypatch, caplog):
    # Adam's steps are bounded by the rate, so no finite fixture overflows the
    # loss; a gradient that turns NaN on its third call makes iterate 3 non-finite
    layer, feats, _, targets = _instance(rng)
    calls = []

    def failing_grad(loss, logits, targets, need_grad=True):
        calls.append(None)
        value, grad = loss_value_and_grad(loss, logits, targets, need_grad=need_grad)
        return value, (np.full_like(grad, np.nan) if len(calls) == 3 else grad)

    monkeypatch.setattr("redense.layer.loss_value_and_grad", failing_grad)
    with np.errstate(invalid="ignore"):
        trained, report, curve = train(layer, feats, targets, CE,
                                       HeadConfig(learning_rate=1e-2, epochs=5))
    assert len(curve) == 3
    assert "non-finite loss at iteration 3" in caplog.text
    assert (report.stop_reason, report.stopped_at) == ("non_finite", 3)
    assert report.guarantee_holds
    assert report.final_loss == min(c.train_loss for c in curve) <= report.old_loss
    assert np.isfinite(trained.delta).all()
    assert loss_value(CE, predict(trained, feats), targets) == report.final_loss


def test_train_raises_when_start_is_non_finite():
    o0 = np.hstack([np.eye(1) * 1e200, -np.eye(1) * 1e200])
    layer = RedenseLayer(R=np.eye(1), epsilon=1e301, base=np.eye(1) * 1e200,
                         delta=np.zeros((1, 2)), seed=0, O0=o0)
    feats = np.array([[1e200]])
    targets = np.array([[1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(layer, feats, targets, CE, HeadConfig(epochs=3))


def test_epsilon_shrinks_with_wider_projection():
    # statistical: averaged over seeds, the radius at m=2n is below m=n
    n, q = 8, 3
    rng = np.random.default_rng(99)
    ohat = rng.standard_normal((q, n))
    eps = {m: [] for m in (n, 2 * n)}
    for m in eps:
        for seed in range(20):
            eps[m].append(build(ohat, m, seed=seed).epsilon)
    assert np.mean(eps[2 * n]) < np.mean(eps[n])


def test_redense_objective_gradient_matches_fd(rng):
    layer, feats, _, targets = _instance(rng, j=6, n=3, q=2, m=4)
    lifted = lfp_lift(layer, feats)
    o = layer.O0.copy()

    def objective(flat):
        return loss_value(CE, lifted @ flat.reshape(o.shape).T, targets)

    g = loss_value_and_grad(CE, lifted @ o.T, targets)[1]
    analytic = (g.T @ lifted).ravel()
    flat = o.ravel()
    h = 1e-5
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (objective(up) - objective(down)) / (2 * h)
    assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


def _reference_train(layer, feats, targets, lr, epochs):
    """The head loop with Adam and the float32 correction written out by hand:
    the oracle for train()."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    y32, r32 = feats.astype(np.float32), layer.R.astype(np.float32)
    h32 = np.maximum(y32 @ r32.T, 0.0)
    base = feats @ layer.base.T
    d = np.zeros_like(layer.O0)
    m_t = np.zeros_like(d)
    v_t = np.zeros_like(d)
    curve = []
    best_d, best_loss = d.copy(), np.inf
    for t in range(epochs + 1):
        d32 = d.astype(np.float32)
        logits = base + (h32 @ (d32[:, :9] + d32[:, 9:]).T - y32 @ (d32[:, 9:] @ r32).T)
        loss = loss_value(CE, logits, targets)
        curve.append((t, loss, frobenius_norm(layer.O0 + d), loss, accuracy(logits, targets)))
        if loss < best_loss:
            best_loss, best_d = loss, d.copy()
        if t == epochs:
            break
        g32 = loss_value_and_grad(CE, logits, targets)[1].astype(np.float32)
        a = g32.T @ h32
        grad = np.hstack([a, a - (g32.T @ y32) @ r32.T]).astype(np.float64)
        m_t = beta1 * m_t + (1.0 - beta1) * grad
        v_t = beta2 * v_t + (1.0 - beta2) * grad * grad
        m_hat = m_t / (1.0 - beta1 ** (t + 1))
        v_hat = v_t / (1.0 - beta2 ** (t + 1))
        d = d - lr * (m_hat / (np.sqrt(v_hat) + eps))
        o = layer.O0 + d
        if frobenius_norm(o) > layer.epsilon * (1.0 + 1e-12):
            d = o * (layer.epsilon / frobenius_norm(o)) - layer.O0
    return best_d, curve


@pytest.mark.parametrize("lr", [1e-3, 0.5])
def test_train_matches_hand_written_adam_bitwise(rng, lr):
    layer, feats, _, targets = _instance(rng, j=50, m=9)
    trained, _, curve = train(layer, feats, targets, CE, HeadConfig(learning_rate=lr, epochs=30))
    ref_d, ref_curve = _reference_train(layer, feats, targets, lr, 30)
    assert np.array_equal(trained.delta, ref_d)
    assert [(c.epoch, c.train_loss, c.o_norm, c.eval_loss, c.eval_accuracy)
            for c in curve] == ref_curve


@pytest.mark.parametrize("kwargs", [{"learning_rate": 0.0}, {"learning_rate": -1e-3},
                                    {"epochs": -1}, {"learning_rate": float("nan")},
                                    {"learning_rate": float("inf")},
                                    {"learning_rate": float("-inf")}])
def test_head_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        HeadConfig(**kwargs)


# Both sides of the sign-split identity round differently; each entry's
# rounding is bounded by a few ulps of the sum of its products in absolute
# value, |y| |R|' (|O+| + |O-|)', so compare against that scale.
IDENTITY_RTOL = 1e-12


@given(j=st.integers(1, 12), n=st.integers(1, 6), extra=st.integers(0, 6),
       q=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       kind=st.sampled_from(["gaussian", "zero", "negative"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(j=5, n=3, extra=0, q=2, scale=1.0, kind="gaussian", seed=1)
@example(j=5, n=3, extra=0, q=2, scale=1.0, kind="zero", seed=2)
@example(j=5, n=3, extra=4, q=2, scale=1.0, kind="negative", seed=3)
def test_half_width_head_matches_explicit_lift(j, n, extra, q, scale, kind, seed):
    rng = np.random.default_rng(seed)
    feats, r = _features_and_projection(rng, j, n, n + extra, scale, kind)
    m = r.shape[0]
    ohat = rng.standard_normal((q, n))
    layer = build_with_r(ohat, r)
    o = rng.standard_normal((q, 2 * m))
    g = rng.standard_normal((j, q))
    lifted = lfp_lift(layer, feats)
    h = _positive_half(feats, r)
    assert h.dtype == np.float64
    assert np.array_equal(h, lifted[:, :m])

    abs_proj = np.abs(feats) @ np.abs(r).T
    logit_scale = abs_proj @ (np.abs(o[:, :m]) + np.abs(o[:, m:])).T
    logits = _head_logits(h, feats, r, o)
    assert np.all(np.abs(logits - lifted @ o.T) <= IDENTITY_RTOL * logit_scale)

    grad_scale = np.tile(np.abs(g).T @ abs_proj, 2)
    grad = _head_grad(g, h, feats, r)
    assert np.all(np.abs(grad - g.T @ lifted) <= IDENTITY_RTOL * grad_scale)

    # at O0 = [P | -P] the first term vanishes exactly: O+ + O- = P - P = 0
    p = layer.O0[:, :m]
    assert np.array_equal(_head_logits(h, feats, r, layer.O0), feats @ (p @ r).T)
    # and the head itself starts at the base logits, not at y (P R)'
    assert np.array_equal(predict(layer, feats), feats @ ohat.T)


def _features_and_projection(rng, j, n, m, scale, kind):
    feats = scale * rng.standard_normal((j, n))
    r = rng.standard_normal((m, n))
    if kind == "zero":
        feats = np.zeros((j, n))
    elif kind == "negative":
        # every projection is negative, so the positive half is all zero
        feats, r = -np.abs(feats), np.abs(r)
    return feats, r


def correction_bound(feats, r, delta):
    """Rounding bound of the float32 correction lift(y) delta' from train and predict.

    Each entry is a float32 sum of products whose absolute values sum to at
    most |y| |R|' (|D+| + |D-|)'. Casting y, R and delta to float32, forming
    h (n terms), the two head products (m terms each) and their difference
    each add at most one unit roundoff 2^-24 per term to first order, so the
    error stays below (n + m + 5) 2^-23 times that sum while every value is a
    normal float32.
    """
    m, n = r.shape
    scale = (np.abs(feats) @ np.abs(r).T) @ (np.abs(delta[:, :m]) + np.abs(delta[:, m:])).T
    return (n + m + 5) * 2.0 ** -23 * scale


@given(j=st.integers(1, 12), n=st.integers(1, 6), extra=st.integers(0, 6),
       q=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       delta_scale=st.sampled_from([1e-6, 1e-2, 1.0]),
       kind=st.sampled_from(["gaussian", "zero", "negative"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(j=5, n=3, extra=4, q=2, scale=1.0, delta_scale=1.0, kind="negative", seed=3)
def test_float32_correction_within_rounding_bound(j, n, extra, q, scale, delta_scale, kind,
                                                  seed):
    rng = np.random.default_rng(seed)
    feats, r = _features_and_projection(rng, j, n, n + extra, scale, kind)
    ohat = rng.standard_normal((q, n))
    layer = replace(build_with_r(ohat, r), delta=delta_scale * rng.standard_normal((q, 2 * r.shape[0])))
    y32, r32 = feats.astype(np.float32), r.astype(np.float32)
    h32 = _positive_half(y32, r32)
    assert h32.dtype == np.float32

    correction = _head_logits(h32, y32, r32, layer.delta)
    assert correction.dtype == np.float32
    exact = lfp_lift(layer, feats) @ layer.delta.T
    assert np.all(np.abs(correction - exact) <= correction_bound(feats, r, layer.delta))
    # predict adds exactly this correction to the float64 base logits
    assert np.array_equal(predict(layer, feats), feats @ ohat.T + correction)

    g = rng.standard_normal((j, q))
    grad = _head_grad(g, h32, y32, r32)
    assert grad.dtype == np.float32
    # the gradient's sums run over the J rows as well
    grad_scale = np.tile(np.abs(g).T @ (np.abs(feats) @ np.abs(r).T), 2)
    grad_tol = (j + n + 5) * 2.0 ** -23 * grad_scale
    assert np.all(np.abs(grad - g.T @ lfp_lift(layer, feats)) <= grad_tol)


@pytest.mark.parametrize("scale", [1e39, 1e-39, 1e-42])
def test_features_beyond_float32_range_keep_training(rng, scale):
    # |y| beyond float32's largest value, or below its smallest normal one,
    # with Ohat scaled the other way so the base logits are of order one
    j, n, m, q = 30, 4, 8, 3
    feats = scale * rng.standard_normal((j, n))
    targets = random_one_hot(rng, j, q)
    layer = build(rng.standard_normal((q, n)) / (10.0 * scale), m, seed=0)
    trained, report, _ = train(layer, feats, targets, CE, HeadConfig(epochs=5))
    assert (report.stop_reason, report.stopped_at) == ("completed", 5)
    assert report.guarantee_holds
    assert loss_value(CE, predict(trained, feats), targets) == report.final_loss

    # with a zero base head, predict returns the float32 correction alone,
    # and it keeps float32's relative accuracy at either end
    delta = rng.standard_normal((q, 2 * m))
    correction = predict(replace(layer, base=np.zeros((q, n)), delta=delta), feats)
    exact = lfp_lift(layer, feats) @ delta.T
    assert np.all(np.abs(correction - exact) <= correction_bound(feats, layer.R, delta))


@given(j=st.integers(1, 20), n=st.integers(1, 6), extra=st.integers(0, 6),
       q=st.integers(2, 4), cond_share=st.floats(0.01, 0.99),
       lr=st.floats(1e-300, 1.0), epochs=st.integers(0, 4),
       kind=st.sampled_from(LOSS_KINDS), huber_delta=st.floats(0.01, 2.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
@example(j=6, n=4, extra=2, q=3, cond_share=0.99, lr=1e-300, epochs=3,
         kind="softmax_cross_entropy", huber_delta=1.0, seed=0)
@example(j=6, n=4, extra=0, q=3, cond_share=0.99, lr=1.0, epochs=0,
         kind="softmax_cross_entropy", huber_delta=1.0, seed=1)
@example(j=6, n=4, extra=2, q=3, cond_share=0.5, lr=1e-2, epochs=4, kind="huber",
         huber_delta=0.25, seed=2)
def test_final_loss_never_exceeds_the_exact_base_loss(j, n, extra, q, cond_share, lr, epochs,
                                                       kind, huber_delta, seed):
    loss = Loss(kind, delta=huber_delta)
    rng = np.random.default_rng(seed)
    r = near_singular(rng, n + extra, n, cond_share * MAX_CONDITION)
    ohat = rng.standard_normal((q, n))
    feats = rng.standard_normal((j, n))
    targets = random_one_hot(rng, j, q)
    layer = build_with_r(ohat, r)
    base_logits = feats @ ohat.T
    base_loss = loss_value(loss, base_logits, targets)
    assert np.array_equal(predict(layer, feats), base_logits)

    trained, report, _ = train(layer, feats, targets, loss,
                               HeadConfig(learning_rate=lr, epochs=epochs))
    assert report.old_loss == base_loss
    assert report.guarantee_holds and report.final_loss <= base_loss
    assert loss_value(loss, predict(trained, feats), targets) == report.final_loss


def _traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_and_predict_never_hold_the_double_width_lift(rng):
    # the positive half is J x m float32; one J x m float64 array would be
    # twice that, and the full float64 lift four times
    j, n, m, q = 2000, 32, 512, 10
    feats = rng.standard_normal((j, n))
    targets = random_one_hot(rng, j, q)
    layer = build(rng.standard_normal((q, n)), m, seed=0)
    limit = 0.75 * j * m * 8
    assert _traced_peak(train, layer, feats, targets, CE, HeadConfig(epochs=3)) < limit
    assert _traced_peak(predict, layer, feats) < limit
