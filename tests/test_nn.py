import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hero import nn
from hero.nn import (
    ADAM_BLOCK, AdamState, ClassifierParams, GruBatch, GruParams, ShapeMismatchError,
    adam_step, finite_diff_check, gru_backward, gru_forward,
    sigmoid, softmax_ce, softmax_ce_backward,
)
from reference import adam_reference, gru_sequence


def flatten_gru(params):
    return np.concatenate([m.ravel() for m in params.matrices()])


def unflatten_gru(params, vec):
    offset = 0
    for m in params.matrices():
        m[...] = vec[offset:offset + m.size].reshape(m.shape)
        offset += m.size


def zero_pair(d):
    return GruParams(np.zeros((2, 3 * d // 2, d)), np.zeros((2, 3 * d // 2, d // 2)))


def init_pair(d, rng):
    """A Bi-GRU pair: two GruParams.init draws stacked on the direction axis."""
    fwd, bwd = GruParams.init(d, rng), GruParams.init(d, rng)
    return GruParams(np.stack([fwd.w, bwd.w]), np.stack([fwd.u, bwd.u]))


def whole(pair, batch):
    """A GruBatch in which ``pair`` runs all ``batch`` rows."""
    return GruBatch([pair], [slice(0, batch)])


def zero_grads(batch):
    """Zeroed gradient buffers with the rows and pair shapes of ``batch``."""
    return GruBatch([GruParams(np.zeros(g.w.shape), np.zeros(g.u.shape)) for g in batch.grus], batch.rows)


def tiling(sizes):
    stops = np.cumsum((0, *sizes))
    return [slice(a, b) for a, b in zip(stops, stops[1:])]


class TestGruForward:
    def test_zero_params_fix_point(self):
        rng = np.random.default_rng(0)
        trace = gru_forward(whole(zero_pair(6), 2), rng.uniform(-2, 2, (2, 4, 6)))
        np.testing.assert_array_equal(trace.h, np.zeros((2, 2, 4, 3)))

    def test_zero_input_zero_u_gives_half_gates(self):
        rng = np.random.default_rng(1)
        pair = zero_pair(6)
        for m in pair.matrices()[:3]:
            m[...] = rng.uniform(-1, 1, m.shape)
        trace = gru_forward(whole(pair, 1), np.zeros((1, 1, 6)))
        np.testing.assert_allclose(trace.r[:, 0, 0], 0.5)
        np.testing.assert_allclose(trace.z[:, 0, 0], 0.5)
        np.testing.assert_array_equal(trace.h[:, 0, 0], np.zeros((2, 3)))

    def test_matches_scalar_loop_oracle(self):
        """Each direction of each segment's pair against the scalar loop;
        direction 1 reads the sequence reversed."""
        rng = np.random.default_rng(2)
        pairs, rows = [init_pair(4, rng), init_pair(4, rng)], tiling((1, 2))
        inputs = rng.uniform(-1, 1, (3, 3, 4))
        trace = gru_forward(GruBatch(pairs, rows), inputs)
        for pair, seg in zip(pairs, rows):
            for b in range(seg.start, seg.stop):
                for k, seq in enumerate((inputs[b], inputs[b, ::-1])):
                    expected = gru_sequence(tuple(m[k].tolist() for m in pair.matrices()), seq.tolist())
                    np.testing.assert_allclose(trace.h[k, b], expected, atol=1e-12)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(3)
        batch = whole(init_pair(8, rng), 2)
        inputs = rng.uniform(-1, 1, (2, 5, 8))
        a = gru_forward(batch, inputs)
        b = gru_forward(batch, inputs)
        assert np.array_equal(a.h, b.h)

    def test_shape_errors(self):
        batch = whole(zero_pair(6), 1)
        with pytest.raises(ShapeMismatchError):
            gru_forward(batch, np.zeros((1, 2, 5)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(batch, np.zeros((1, 0, 6)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(batch, np.zeros((0, 2, 6)))
        with pytest.raises(ShapeMismatchError):
            gru_forward(batch, np.zeros((2, 6)))


def gru_loss_and_grads(batch, inputs, weights, grads=None):
    """Scalar objective sum_{k,i} <weights_{k,i}, h_{k,i}> and its analytic
    gradients, the weights' added into ``grads`` (new zeroed buffers when
    not given)."""
    trace = gru_forward(batch, inputs)
    loss = float((trace.h * weights).sum())
    grads = zero_grads(batch) if grads is None else grads
    dx = gru_backward(batch, trace, weights, grads)
    return loss, grads, dx


class TestGruBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        batch = whole(init_pair(6, rng), 2)
        trace = gru_forward(batch, rng.uniform(-1, 1, (2, 3, 6)))
        grads = zero_grads(batch)
        dx = gru_backward(batch, trace, np.zeros((2, 2, 3, 3)), grads)
        for m in grads.grus[0].matrices():
            np.testing.assert_array_equal(m, np.zeros_like(m))
        np.testing.assert_array_equal(dx, np.zeros((2, 3, 6)))

    @pytest.mark.parametrize("d,steps,bound", [(2, 1, 1e-6), (8, 5, 1e-4)])
    def test_param_grads_match_finite_differences(self, d, steps, bound):
        rng = np.random.default_rng(5)
        pair = init_pair(d, rng)
        inputs = rng.uniform(-1, 1, (1, steps, d))
        weights = rng.uniform(-1, 1, (2, 1, steps, d // 2))
        _, grads, _ = gru_loss_and_grads(whole(pair, 1), inputs, weights)

        work = GruParams(pair.w.copy(), pair.u.copy())

        def f(vec):
            unflatten_gru(work, vec)
            return float((gru_forward(whole(work, 1), inputs).h * weights).sum())

        err = finite_diff_check(f, flatten_gru(pair), flatten_gru(grads.grus[0]))
        assert err < bound

    def test_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        batch = whole(init_pair(6, rng), 1)
        inputs = rng.uniform(-1, 1, (1, 4, 6))
        weights = rng.uniform(-1, 1, (2, 1, 4, 3))
        _, _, dx = gru_loss_and_grads(batch, inputs, weights)

        def f(vec):
            return float((gru_forward(batch, vec.reshape(1, 4, 6)).h * weights).sum())

        err = finite_diff_check(f, inputs.ravel(), dx.ravel())
        assert err < 1e-6

    def test_without_input_grad_param_grads_are_bit_identical(self):
        rng = np.random.default_rng(8)
        rows = tiling((1, 2))
        batch = GruBatch([init_pair(6, rng), init_pair(6, rng)], rows)
        trace = gru_forward(batch, rng.uniform(-1, 1, (3, 4, 6)))
        upstream = rng.uniform(-1, 1, (2, 3, 4, 3))
        grads, only = zero_grads(batch), zero_grads(batch)
        dx = gru_backward(batch, trace, upstream, grads)
        assert dx.shape == (3, 4, 6)
        assert gru_backward(batch, trace, upstream, only, input_grad=False) is None
        for a, b in zip(grads.grus, only.grus):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.u, b.u)

    def test_grad_h_shape_checked(self):
        rng = np.random.default_rng(7)
        batch = whole(init_pair(6, rng), 1)
        trace = gru_forward(batch, rng.uniform(-1, 1, (1, 3, 6)))
        for shape in ((2, 1, 2, 3), (1, 3, 3), (1, 1, 3, 3)):
            with pytest.raises(ShapeMismatchError):
                gru_backward(batch, trace, np.zeros(shape), zero_grads(batch))

    def test_grads_must_match_the_parameter_batch(self):
        rng = np.random.default_rng(9)
        pairs, rows = [init_pair(6, rng), init_pair(6, rng)], tiling((1, 2))
        batch = GruBatch(pairs, rows)
        trace = gru_forward(batch, rng.uniform(-1, 1, (3, 2, 6)))
        upstream = rng.uniform(-1, 1, (2, 3, 2, 3))
        good = zero_grads(batch).grus
        for grads in (
            GruBatch(good, tiling((2, 1))),                          # other rows
            GruBatch(good[:1], rows[:1]),                            # a segment short
            GruBatch([good[0], zero_pair(8)], rows),                 # another width
            GruBatch([good[0], GruParams(good[1].w[0], good[1].u[0])], rows),  # no direction axis
        ):
            with pytest.raises(ShapeMismatchError):
                gru_backward(batch, trace, upstream, grads)
        assert all(not g.w.any() and not g.u.any() for g in good)


class TestGruBatch:
    def test_rows_are_bit_identical_to_single_runs(self):
        rng = np.random.default_rng(20)
        pair = init_pair(100, rng)
        inputs = rng.uniform(-1, 1, (7, 3, 100))
        batch = gru_forward(whole(pair, 7), inputs)
        assert len(batch) == 2 * 7 * 3
        for b in range(7):
            alone = gru_forward(whole(pair, 1), inputs[b:b + 1])
            np.testing.assert_array_equal(batch.h[:, b], alone.h[:, 0])

    def test_backward_sums_per_sequence_gradients(self):
        rng = np.random.default_rng(21)
        pair = init_pair(8, rng)
        inputs = rng.uniform(-1, 1, (4, 3, 8))
        weights = rng.uniform(-1, 1, (2, 4, 3, 4))
        _, grads, dx = gru_loss_and_grads(whole(pair, 4), inputs, weights)
        total = zero_grads(whole(pair, 1))  # each call adds its sequence's gradients
        for b in range(4):
            _, _, dx_b = gru_loss_and_grads(whole(pair, 1), inputs[b:b + 1], weights[:, b:b + 1], total)
            np.testing.assert_allclose(dx[b], dx_b[0], atol=1e-14)
        (got,), (want,) = grads.grus, total.grus
        np.testing.assert_allclose(got.w, want.w, atol=1e-13)
        np.testing.assert_allclose(got.u, want.u, atol=1e-13)


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


def run_batch(pairs, rows, x, upstream):
    """Forward and backward of one GruBatch into zeroed buffers: the trace,
    each segment's (dW, dU) and dx."""
    batch = GruBatch(pairs, rows)
    trace = gru_forward(batch, x)
    grads = zero_grads(batch)
    dx = gru_backward(batch, trace, upstream, grads)
    return trace, [(g.w, g.u) for g in grads.grus], dx


def assert_grads_equal(got, want):
    (dw, du), (dw_want, du_want) = got, want
    assert np.array_equal(dw, dw_want) and np.array_equal(du, du_want)


class TestSegmentedPairs:
    """A GruBatch of several segments against one one-segment call per
    segment, and direction 1 against direction 0 of the swapped pair."""

    @pytest.mark.parametrize("steps,sizes", [(3, (1, 4, 2, 1)), (1, (3, 1, 2))])
    def test_equals_per_segment_calls_bit_for_bit(self, steps, sizes):
        rng = np.random.default_rng(22)
        d, hd = 100, 50
        pairs, rows = stacked_pairs(rng, d, len(sizes)), tiling(sizes)
        x = rng.uniform(-1, 1, (sum(sizes), steps, d))
        upstream = rng.uniform(-1, 1, (2, sum(sizes), steps, hd))
        trace, grads, dx = run_batch(pairs, rows, x, upstream)
        assert trace.h.shape == (2, sum(sizes), steps, hd) and len(trace) == 2 * sum(sizes) * steps
        for pair, seg, got in zip(pairs, rows, grads):
            n = seg.stop - seg.start
            t_seg, (g_seg,), dx_seg = run_batch([pair], [slice(0, n)], x[seg], upstream[:, seg])
            assert np.array_equal(trace.h[:, seg], t_seg.h)
            if steps == 1:  # no step has a previous state: U gets no gradient
                assert not got[1].any()
            assert_grads_equal(got, g_seg)
            assert np.array_equal(dx[seg], dx_seg)

    @pytest.mark.parametrize("steps,sizes", [(1, (1,)), (1, (3, 1, 2)), (4, (1,)), (4, (2, 1, 3))])
    def test_direction_one_is_direction_zero_of_the_swapped_pair(self, steps, sizes):
        """P' = (P.w[::-1], P.u[::-1]) shares P's memory. Direction k of P on
        x is direction 1 - k of P' on x[:, ::-1], bit for bit: h, each
        segment's weight gradients, and dx read back in time."""
        rng = np.random.default_rng(25)
        d, hd = 100, 50
        pairs, rows = stacked_pairs(rng, d, len(sizes)), tiling(sizes)
        swapped = [GruParams(p.w[::-1], p.u[::-1]) for p in pairs]
        assert all(np.shares_memory(p.w, q.w) and np.shares_memory(p.u, q.u) for p, q in zip(pairs, swapped))
        x = rng.uniform(-1, 1, (sum(sizes), steps, d))
        upstream = rng.uniform(-1, 1, (2, sum(sizes), steps, hd))
        trace, grads, dx = run_batch(pairs, rows, x, upstream)
        t_swap, g_swap, dx_swap = run_batch(swapped, rows, x[:, ::-1], upstream[::-1])
        assert np.array_equal(trace.h[1], t_swap.h[0]) and np.array_equal(trace.h[0], t_swap.h[1])
        for (dw, du), (dw_swap, du_swap) in zip(grads, g_swap):
            assert np.array_equal(dw, dw_swap[::-1])
            assert np.array_equal(du, du_swap[::-1])
            assert du.any() == du_swap.any() == (steps > 1)
        assert np.array_equal(dx, dx_swap[:, ::-1])

    def test_strided_pair_views_equal_contiguous_copies(self):
        """The kernels read a pair through any strides: a model's pair, two
        strided views of one block, gives the bits of contiguous copies."""
        rng = np.random.default_rng(23)
        (pair,) = stacked_pairs(rng, 8, 1)
        assert not pair.w.flags.c_contiguous
        copy = GruParams(np.ascontiguousarray(pair.w), np.ascontiguousarray(pair.u))
        x = rng.uniform(-1, 1, (3, 2, 8))
        upstream = rng.uniform(-1, 1, (2, 3, 2, 4))
        t_view, (g_view,), dx_view = run_batch([pair], [slice(0, 3)], x, upstream)
        t_copy, (g_copy,), dx_copy = run_batch([copy], [slice(0, 3)], x, upstream)
        assert np.array_equal(t_view.h, t_copy.h)
        assert_grads_equal(g_view, g_copy)
        assert np.array_equal(dx_view, dx_copy)

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


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever the host has."""
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads that threading.Thread starts, in order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


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

    @pytest.mark.parametrize("n, threads", [(2 * ADAM_BLOCK + 1234, 0), (40 * ADAM_BLOCK + 777, 1)],
                             ids=["serial", "split"])
    def test_equals_out_of_place_formula_bit_for_bit(self, n, threads, two_cpus, thread_starts):
        # Several slices plus a short last one; mostly-zero gradients, as
        # for registry keys a document does not use.
        rng = np.random.default_rng(3)
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
            assert state.t == t
        assert len(thread_starts) == 5 * threads

    @pytest.mark.parametrize("parts", [2, 3])
    def test_parts_give_the_serial_bytes(self, parts, monkeypatch, thread_starts):
        # Every part runs at once on its own scratch, more parts than cores
        # and with the interpreter switching threads as often as it can.
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
        n = 40 * ADAM_BLOCK + 777
        rng = np.random.default_rng(5)
        start = rng.normal(size=n)
        grads = [np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0) for _ in range(3)]
        results = []
        for count in (1, parts):
            monkeypatch.setattr(nn, "_ADAM_PARTS", count)
            state, params = AdamState(lr=0.01), start.copy()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for g in grads:
                    adam_step(state, params, g)
            finally:
                sys.setswitchinterval(interval)
            results.append((params.tobytes(), state.m.tobytes(), state.v.tobytes(), state.t))
        assert results[0] == results[1]
        assert len(thread_starts) == 3 * (parts - 1)

    @pytest.mark.parametrize("n, cpus", [
        (45_202, 2), (nn._ADAM_PARTS * nn._ADAM_MIN_PART_BLOCKS * ADAM_BLOCK - 1, 2), (40 * ADAM_BLOCK, 1),
    ], ids=["unified-model", "below-threshold", "one-cpu"])
    def test_runs_on_the_calling_thread(self, n, cpus, monkeypatch):
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

        def no_thread(*args, **kwargs):
            raise AssertionError("adam_step started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        params, state = np.ones(n), AdamState(lr=0.1)
        adam_step(state, params, np.ones(n))
        np.testing.assert_allclose(params, 0.9)

    def test_worker_exception_reaches_the_caller(self, two_cpus, monkeypatch):
        run_range = nn._adam_range

        def failing(*args):
            if args[-2] > 0:  # lo: the worker's range
                raise FloatingPointError("worker")
            run_range(*args)

        monkeypatch.setattr(nn, "_adam_range", failing)
        n = 40 * ADAM_BLOCK
        before = threading.active_count()
        state = AdamState(lr=0.1)
        with pytest.raises(FloatingPointError, match="worker"):
            adam_step(state, np.ones(n), np.ones(n))
        assert state.t == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("parts", [1, 2])
    def test_step_allocates_less_than_one_parameter_vector(self, parts, two_cpus, thread_starts, monkeypatch):
        monkeypatch.setattr(nn, "_ADAM_PARTS", parts)
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
        assert len(thread_starts) == 2 * (parts - 1)


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
