import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hero.nn import (
    ADAM_BLOCK, AdamState, ClassifierParams, GruBatch, GruParams, ShapeMismatchError,
    adam_step, finite_diff_check, gru_backward, gru_forward,
    sigmoid, softmax_ce, softmax_ce_backward,
)
from reference import adam_reference, gru_sequence


def flatten_gru(params):
    return np.concatenate([m.ravel() for m in params.matrices()])


def zero_gru(d):
    return GruParams(np.zeros((3 * d // 2, d)), np.zeros((3 * d // 2, d // 2)))


def unflatten_gru(params, vec):
    offset = 0
    for m in params.matrices():
        m[...] = vec[offset:offset + m.size].reshape(m.shape)
        offset += m.size


class TestGruForward:
    def test_zero_params_fix_point(self):
        rng = np.random.default_rng(0)
        params = zero_gru(6)
        trace = gru_forward(params, rng.uniform(-2, 2, (2, 4, 6)))
        np.testing.assert_array_equal(trace.h, np.zeros((2, 4, 3)))

    def test_zero_input_zero_u_gives_half_gates(self):
        rng = np.random.default_rng(1)
        params = zero_gru(6)
        for m in params.matrices()[:3]:
            m[...] = rng.uniform(-1, 1, m.shape)
        trace = gru_forward(params, np.zeros((1, 1, 6)))
        np.testing.assert_allclose(trace.r[0, 0], 0.5)
        np.testing.assert_allclose(trace.z[0, 0], 0.5)
        np.testing.assert_array_equal(trace.h[0, 0], np.zeros(3))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        params = GruParams.init(4, rng)
        inputs = rng.uniform(-1, 1, (3, 4))
        trace = gru_forward(params, inputs[None])
        expected = gru_sequence(
            tuple(m.tolist() for m in params.matrices()), inputs.tolist()
        )
        np.testing.assert_allclose(trace.h[0], expected, atol=1e-12)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(3)
        params = GruParams.init(8, rng)
        inputs = rng.uniform(-1, 1, (2, 5, 8))
        a = gru_forward(params, inputs)
        b = gru_forward(params, inputs)
        assert np.array_equal(a.h, b.h)

    def test_shape_errors(self):
        params = zero_gru(6)
        with pytest.raises(ShapeMismatchError):
            gru_forward(params, np.zeros((1, 2, 5)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(params, np.zeros((1, 0, 6)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(params, np.zeros((0, 2, 6)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(params, np.zeros((2, 6)))


def gru_loss_and_grads(params, inputs, weights):
    """Scalar objective sum_i <weights_i, h_i> and its analytic gradients."""
    trace = gru_forward(params, inputs)
    loss = float((trace.h * weights).sum())
    grads, dx = gru_backward(params, trace, weights)
    return loss, grads, dx


class TestGruBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        params = GruParams.init(6, rng)
        trace = gru_forward(params, rng.uniform(-1, 1, (2, 3, 6)))
        grads, dx = gru_backward(params, trace, np.zeros((2, 3, 3)))
        for m in grads.matrices():
            np.testing.assert_array_equal(m, np.zeros_like(m))
        np.testing.assert_array_equal(dx, np.zeros((2, 3, 6)))

    @pytest.mark.parametrize("d,steps,bound", [(2, 1, 1e-6), (8, 5, 1e-4)])
    def test_param_grads_match_finite_differences(self, d, steps, bound):
        rng = np.random.default_rng(5)
        params = GruParams.init(d, rng)
        inputs = rng.uniform(-1, 1, (1, steps, d))
        weights = rng.uniform(-1, 1, (1, steps, d // 2))
        _, grads, _ = gru_loss_and_grads(params, inputs, weights)

        work = GruParams(params.w.copy(), params.u.copy())

        def f(vec):
            unflatten_gru(work, vec)
            return float((gru_forward(work, inputs).h * weights).sum())

        err = finite_diff_check(f, flatten_gru(params), flatten_gru(grads))
        assert err < bound

    def test_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = GruParams.init(6, rng)
        inputs = rng.uniform(-1, 1, (1, 4, 6))
        weights = rng.uniform(-1, 1, (1, 4, 3))
        _, _, dx = gru_loss_and_grads(params, inputs, weights)

        def f(vec):
            return float((gru_forward(params, vec.reshape(1, 4, 6)).h * weights).sum())

        err = finite_diff_check(f, inputs.ravel(), dx.ravel())
        assert err < 1e-6

    def test_without_input_grad_param_grads_are_bit_identical(self):
        rng = np.random.default_rng(8)
        params = GruParams.init(6, rng)
        trace = gru_forward(params, rng.uniform(-1, 1, (3, 4, 6)))
        upstream = rng.uniform(-1, 1, (3, 4, 3))
        grads, dx = gru_backward(params, trace, upstream)
        only, none = gru_backward(params, trace, upstream, input_grad=False)
        assert dx.shape == (3, 4, 6) and none is None
        for a, b in zip(grads.matrices(), only.matrices()):
            np.testing.assert_array_equal(a, b)

    def test_grad_h_shape_checked(self):
        rng = np.random.default_rng(7)
        params = GruParams.init(6, rng)
        trace = gru_forward(params, rng.uniform(-1, 1, (1, 3, 6)))
        with pytest.raises(ShapeMismatchError):
            gru_backward(params, trace, np.zeros((1, 2, 3)))


class TestGruBatch:
    def test_rows_are_bit_identical_to_single_runs(self):
        rng = np.random.default_rng(20)
        params = GruParams.init(100, rng)
        inputs = rng.uniform(-1, 1, (7, 3, 100))
        batch = gru_forward(params, inputs)
        assert len(batch) == 7 * 3
        for b in range(7):
            alone = gru_forward(params, inputs[b:b + 1])
            np.testing.assert_array_equal(batch.h[b], alone.h[0])

    def test_backward_sums_per_sequence_gradients(self):
        rng = np.random.default_rng(21)
        params = GruParams.init(8, rng)
        inputs = rng.uniform(-1, 1, (4, 3, 8))
        weights = rng.uniform(-1, 1, (4, 3, 4))
        _, grads, dx = gru_loss_and_grads(params, inputs, weights)
        total = [np.zeros_like(m) for m in params.matrices()]
        for b in range(4):
            _, g, dx_b = gru_loss_and_grads(params, inputs[b:b + 1], weights[b:b + 1])
            for acc, m in zip(total, g.matrices()):
                acc += m
            np.testing.assert_allclose(dx[b], dx_b[0], atol=1e-14)
        for got, want in zip(grads.matrices(), total):
            np.testing.assert_allclose(got, want, atol=1e-13)


def stacked_pairs(rng, d, n):
    """n Bi-GRU pairs laid out as in a model's flat vector: each pair's w and
    u are (2, 3d/2, .) strided views of one block, fwd w u then bwd w u."""
    hd = d // 2
    flat = rng.uniform(-0.3, 0.3, n * 2 * 3 * hd * (d + hd))
    pairs = []
    for block in flat.reshape(n, 2, -1):
        cut = 3 * hd * d
        pairs.append(GruParams(block[:, :cut].reshape(2, 3 * hd, d), block[:, cut:].reshape(2, 3 * hd, hd)))
    return pairs


class TestSegmentedPairs:
    """A GruBatch of pairs against one single-direction call per segment and
    direction, the reverse direction fed x[:, ::-1]."""

    @pytest.mark.parametrize("steps,sizes", [(3, (1, 4, 2, 1)), (1, (3, 1, 2))])
    def test_equals_per_segment_single_direction_calls_bit_for_bit(self, steps, sizes):
        rng = np.random.default_rng(22)
        d, hd = 100, 50
        pairs = stacked_pairs(rng, d, len(sizes))
        stops = np.cumsum((0, *sizes))
        rows = [slice(a, b) for a, b in zip(stops, stops[1:])]
        batch = GruBatch(pairs, rows)
        x = rng.uniform(-1, 1, (stops[-1], steps, d))
        trace = gru_forward(batch, x)
        assert trace.h.shape == (2, stops[-1], steps, hd) and len(trace) == 2 * stops[-1] * steps
        upstream = rng.uniform(-1, 1, trace.h.shape)
        grads, dx = gru_backward(batch, trace, upstream)
        for pair, seg in zip(pairs, rows):
            fwd, bwd = GruParams(pair.w[0], pair.u[0]), GruParams(pair.w[1], pair.u[1])
            t_f, t_b = gru_forward(fwd, x[seg]), gru_forward(bwd, x[seg, ::-1])
            assert np.array_equal(trace.h[0, seg], t_f.h) and np.array_equal(trace.h[1, seg], t_b.h)
            g_f, dx_f = gru_backward(fwd, t_f, upstream[0, seg])
            g_b, dx_b = gru_backward(bwd, t_b, upstream[1, seg])
            dw, du = grads.of(seg)
            assert np.array_equal(dw[0], g_f.w) and np.array_equal(dw[1], g_b.w)
            if steps == 1:  # no step has a previous state: U gets no gradient
                assert du is None
                assert not g_f.u.any() and not g_b.u.any()
            else:
                assert np.array_equal(du[0], g_f.u) and np.array_equal(du[1], g_b.u)
            assert np.array_equal(dx[seg], dx_f + dx_b[:, ::-1])

    def test_a_pair_alone_equals_a_one_segment_batch(self):
        rng = np.random.default_rng(23)
        (pair,) = stacked_pairs(rng, 8, 1)
        x = rng.uniform(-1, 1, (3, 2, 8))
        batch = GruBatch([pair], [slice(0, 3)])
        alone, batched = gru_forward(pair, x), gru_forward(batch, x)
        assert np.array_equal(alone.h, batched.h)
        upstream = rng.uniform(-1, 1, alone.h.shape)
        grads, dx = gru_backward(pair, alone, upstream)
        segments, dx_batched = gru_backward(batch, batched, upstream)
        dw, du = segments.of(slice(0, 3))
        assert np.array_equal(grads.w, dw) and np.array_equal(grads.u, du)
        assert np.array_equal(dx, dx_batched)

    @pytest.mark.parametrize("rows", [
        [slice(0, 2), slice(3, 4)], [slice(0, 2), slice(1, 4)], [slice(0, 3)], [slice(1, 4)],
    ])
    def test_segments_must_tile_the_batch(self, rows):
        rng = np.random.default_rng(24)
        pairs = stacked_pairs(rng, 8, len(rows))
        with pytest.raises(ShapeMismatchError):
            gru_forward(GruBatch(pairs, rows), np.zeros((4, 2, 8)))


def test_sigmoid_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestSoftmaxCe:
    def test_symmetric_logits(self):
        clf = ClassifierParams(np.zeros((2, 4)), np.zeros(2))
        p, loss = softmax_ce(clf, np.zeros(4), 1)
        assert p == 0.5
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_known_logits(self):
        clf = ClassifierParams(np.zeros((2, 3)), np.array([0.0, 1.0]))
        p, loss = softmax_ce(clf, np.zeros(3), 1)
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert loss == pytest.approx(0.313262, abs=1e-6)

    def test_saturated_correct_prediction(self):
        clf = ClassifierParams(np.zeros((2, 3)), np.array([0.0, 40.0]))
        p, loss = softmax_ce(clf, np.zeros(3), 1)
        assert p > 1.0 - 1e-12
        assert 0.0 <= loss < 1e-9

    def test_loss_nonnegative_and_probs_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            clf = ClassifierParams(rng.normal(size=(2, 5)), rng.normal(size=2))
            h = rng.normal(size=5)
            y = int(rng.integers(2))
            p, loss = softmax_ce(clf, h, y)
            assert 0.0 < p < 1.0
            assert loss >= 0.0
            dw, db, dh = softmax_ce_backward(clf, h, y)
            probs = db.copy()
            probs[y] += 1.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        clf = ClassifierParams(rng.normal(size=(2, 4)), rng.normal(size=2))
        h = rng.normal(size=4)
        dw, db, dh = softmax_ce_backward(clf, h, 1)
        analytic = np.concatenate([dw.ravel(), db, dh])

        def f(vec):
            w = vec[:8].reshape(2, 4)
            b = vec[8:10]
            hh = vec[10:]
            return softmax_ce(ClassifierParams(w, b), hh, 1)[1]

        theta = np.concatenate([clf.w.ravel(), clf.b, h])
        assert finite_diff_check(f, theta, analytic) < 1e-7


class TestAdam:
    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(10)
        params = rng.normal(size=12)
        grads = rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.1, 2.0, 12)
        state = AdamState(lr=0.001)
        before = params.copy()
        adam_step(state, params, grads)
        np.testing.assert_allclose(params - before, -0.001 * np.sign(grads), rtol=1e-4)
        assert state.t == 1

    def test_zero_gradient_freezes_params_and_moments(self):
        state = AdamState(lr=0.01)
        params = np.array([1.0, -2.0])
        adam_step(state, params, np.zeros(2))
        np.testing.assert_array_equal(params, [1.0, -2.0])
        np.testing.assert_array_equal(state.m, np.zeros(2))
        np.testing.assert_array_equal(state.v, np.zeros(2))
        assert state.t == 1

    def test_quadratic_descent_matches_scalar_oracle(self):
        state = AdamState(lr=0.1)
        w = np.array([1.0])
        seen = []
        grad_history = []
        for _ in range(3):
            grad_history.append(2.0 * w[0])
            adam_step(state, w, np.array([2.0 * w[0]]))
            seen.append(w[0])
        expected = adam_reference(grad_history, lr=0.1, w0=1.0)
        np.testing.assert_allclose(seen, expected, atol=1e-12)
        assert 1.0 > seen[0] > seen[1] > seen[2] > 0.0

    def test_lr_zero_is_identity(self):
        state = AdamState(lr=0.0)
        params = np.array([3.0, -1.0])
        adam_step(state, params, np.array([5.0, -7.0]))
        np.testing.assert_array_equal(params, [3.0, -1.0])

    def test_shape_mismatch(self):
        state = AdamState(lr=0.1)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("params", [
        [1.0, 2.0], np.zeros(4, dtype=np.float32), np.zeros(8)[::2], np.broadcast_to(0.0, (4,)),
    ])
    def test_params_must_be_updatable_in_place(self, params):
        with pytest.raises(TypeError):
            adam_step(AdamState(lr=0.1), params, np.zeros(len(params)))

    def test_equals_out_of_place_formula_bit_for_bit(self):
        # Several slices plus a short last one; mostly-zero gradients, as
        # for registry keys a document does not use.
        rng = np.random.default_rng(3)
        n = 2 * ADAM_BLOCK + 1234
        params = rng.normal(size=n)
        state = AdamState(lr=0.003)
        p, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 6):
            g = np.where(rng.random(n) < 0.1, rng.normal(size=n), 0.0)
            adam_step(state, params, g)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            p = p - 0.003 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(params, p)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_step_allocates_less_than_one_parameter_vector(self):
        n = 1_000_000
        rng = np.random.default_rng(4)
        params, grads = rng.normal(size=n), rng.normal(size=n)
        state = AdamState(lr=0.001)
        adam_step(state, params, grads)  # allocates the moments and scratch
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            adam_step(state, params, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes, f"peak {peak} bytes"


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(lambda v: float(v[0] ** 2), np.array([3.0]), np.array([6.0]))
        assert err < 1e-6

    def test_sine(self):
        err = finite_diff_check(
            lambda v: math.sin(v[0]), np.array([0.5]), np.array([math.cos(0.5)])
        )
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        err = finite_diff_check(lambda v: float(v[0] ** 2), np.array([3.0]), np.array([5.5]))
        assert err > 1e-2
