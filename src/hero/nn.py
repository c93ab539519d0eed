"""Minimal float64 numeric kernel: bidirectional GRU, softmax cross-entropy,
Adam, and a central-finite-difference gradient checker.

The GRU over a sequence x_1..x_T (each of width d, hidden width d/2):

    r_i = sigmoid(W_r x_i + U_r h_{i-1})
    z_i = sigmoid(W_z x_i + U_z h_{i-1})
    c_i = tanh(W_h x_i + U_h (h_{i-1} * r_i))
    h_i = (1 - z_i) * h_{i-1} + z_i * c_i,      h_0 = 0

There are no bias terms. The six matrices, the only learnable tensors, are
stored stacked by gate as W = [W_r; W_z; W_h] and U = [U_r; U_z; U_h], and
the kernels multiply by W and U as stored.

The kernels take one form: a GruBatch, B equal-length sequences whose rows
run in segments, each segment with its own bidirectional pair. Both
directions run in the same call, direction 1 over each sequence reversed;
only the matrix products loop over segments. The forward kernel reads its
sequences direction-stacked, as the caller gathered them: one row per
(sequence, step) for each direction, direction 1's steps reversed. It runs
every product as a stack of GEMMs of exactly GEMM_ROWS (4) rows. A GEMM of
one fixed shape computes each of its rows with the same operations in the
same order, whatever the other rows hold and wherever the row sits in the
block (tests/test_nn.py checks this BLAS property for every product shape
the kernel runs), so a sequence's result is bit-identical whatever else
shares its batch. A GEMM over the whole batch would not keep that: its row
count, and with it the kernel's blocking, would vary with the batch.

The backward kernel runs the recurrence and the input gradient, each
segment's products over its own rows, and writes every row's
pre-activation gradients into the caller's buffer. It adds no weight
gradients: gru_weight_grads and gru_recurrent_grads form a pair's dW and
dU afterwards, each from one GEMM over every row the pair ran, in whatever
batches the caller ran them.

Adam updates a flat vector in place, one cache-sized slice at a time. Above
a size threshold the vector is cut into up to two contiguous parts of whole
slices, each updated on its own thread, and every element gets the same
bits as on one thread.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

PROB_CLAMP = 1e-12
# Rows of every GEMM in gru_forward. Of 2, 4 and 8, 4 ran a news-sized
# tree's forward batches fastest over unified and attribute-specific sharing
# together (8 is a little faster unified, 11% slower attribute-specific).
GEMM_ROWS = 4


class ShapeMismatchError(ValueError):
    pass


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): unlike 1 / (1 + exp(-x)) it cannot overflow."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class GruParams:
    """The GRU's matrices stacked by gate, rows r, z, h: w is [W_r; W_z; W_h],
    (3d/2, d), and u is [U_r; U_z; U_h], (3d/2, d/2). A leading axis of 2 on
    both, (2, 3d/2, d) and (2, 3d/2, d/2), makes the bidirectional pair the
    kernels run: [0] reads each sequence left to right and [1] reads it
    right to left. A pair's ``fwd`` and ``bwd`` are writable views of the
    two directions."""

    w: np.ndarray
    u: np.ndarray

    @property
    def w_r(self) -> np.ndarray:
        return self.w[..., :self.u.shape[-1], :]

    @property
    def fwd(self) -> "GruParams":
        return GruParams(self.w[0], self.u[0])

    @property
    def bwd(self) -> "GruParams":
        return GruParams(self.w[1], self.u[1])

    def copy(self) -> "GruParams":
        return GruParams(self.w.copy(), self.u.copy())

    def matrices(self) -> tuple[np.ndarray, ...]:
        """The six gate matrices as views: W_r W_z W_h U_r U_z U_h."""
        return (*np.split(self.w, 3, axis=-2), *np.split(self.u, 3, axis=-2))


@dataclass(frozen=True)
class GruBatch:
    """A batch whose rows run in segments, each with its own bidirectional
    pair: grus[j] runs rows[j]. The slices tile the batch in order, and the
    pairs share one shape."""

    grus: Sequence[GruParams]
    rows: Sequence[slice]

    @property
    def input_dim(self) -> int:
        return self.grus[0].w.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.grus[0].u.shape[-1]


def _segments(params: GruBatch, batch: int) -> list[tuple[np.ndarray, np.ndarray, slice]]:
    """(w, u, rows) per segment, w and u with the direction axis."""
    grus, rows = params.grus, params.rows
    stops = [0, *(r.stop for r in rows)]
    if len(grus) != len(rows) or [r.start for r in rows] != stops[:-1] or stops[-1] != batch:
        raise ShapeMismatchError(f"segments {list(rows)} do not tile a batch of {batch}")
    return [(g.w, g.u, r) for g, r in zip(grus, rows)]


@dataclass
class GruTrace:
    """Per-step activations of a batch, kept for backprop; [k, b, i] is step
    i+1 of sequence b in direction k, and direction 1 holds the steps over
    each sequence reversed."""

    r: np.ndarray       # (2, B, T, d/2)
    z: np.ndarray
    hhat: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        """Cell evaluations: B * T per direction."""
        return math.prod(self.h.shape[:-1])


def _blocks(a: np.ndarray, start: int, count: int) -> np.ndarray:
    """Rows start .. start + count of a (2, N, ...) array, rounded up to
    whole blocks: a (2, blocks, GEMM_ROWS, ...) view."""
    n = -(-count // GEMM_ROWS)
    return a[:, start:start + n * GEMM_ROWS].reshape(2, n, GEMM_ROWS, *a.shape[2:])


def gru_forward(params: GruBatch, inputs: np.ndarray, steps: int) -> GruTrace:
    """Run each segment's pair over its rows of B sequences of ``steps``
    d-wide vectors, keeping all activations. Only the matrix products loop
    over segments; the gate arithmetic runs once per step for both
    directions and every segment.

    ``inputs`` holds the sequences direction-stacked, (2, B * steps +
    GEMM_ROWS - 1, d): row b * steps + i of [0] is step i + 1 of sequence
    b, and of [1] step steps - i, each sequence reversed for direction 1.
    The last GEMM_ROWS - 1 rows are slack, read but never used; they must
    hold finite values.

    Every product is a stack of GEMM_ROWS-row GEMMs, one np.matmul per
    segment for both directions. A segment's blocks start at its first row,
    and its last block runs on past the segment: over rows of the next
    segment, which that segment's own products overwrite, or over the slack
    rows (and the zeroed rows each state buffer keeps past its end). A
    row's bits depend on neither its neighbours in a block nor its place
    there.
    """
    xs, pad = inputs, GEMM_ROWS - 1
    if not isinstance(xs, np.ndarray) or xs.dtype != np.float64 or xs.ndim != 3 or xs.shape[0] != 2:
        raise ShapeMismatchError(f"inputs must be a (2, rows, d) float64 array, got {np.shape(xs)}")
    if steps < 1 or xs.shape[1] <= pad or (xs.shape[1] - pad) % steps:
        raise ShapeMismatchError(f"{xs.shape[1]} input rows are not sequences of {steps} steps and the slack")
    if xs.shape[2] != params.input_dim:
        raise ShapeMismatchError(f"input width {xs.shape[2]} != parameter width {params.input_dim}")
    batch, hd = (xs.shape[1] - pad) // steps, params.hidden_dim
    segments = _segments(params, batch)
    # The input contributions do not depend on the recurrence. The output
    # buffer holds pre-activations and is turned into [r, z, hhat] in place.
    gates = np.empty((2, batch * steps + pad, 3 * hd))
    for w, _, rows in segments:
        start, n = rows.start * steps, (rows.stop - rows.start) * steps
        np.matmul(_blocks(xs, start, n), w.swapaxes(1, 2)[:, None], out=_blocks(gates, start, n))
    gates = gates[:, :batch * steps].reshape(2, batch, steps, 3 * hd)
    h = np.empty((2, batch + pad, steps, hd))
    if steps > 1:
        # Per segment, the blocks of each product's input (the state with
        # each step's on a leading axis, and the gated state) and output,
        # with U_rz^T and U_h^T of each direction shaped to broadcast over
        # the blocks.
        h[:, batch:] = 0.0
        recurrent, gated = np.empty((2, batch + pad, 2 * hd)), np.zeros((2, batch + pad, hd))
        rz_products, h_products = [], []
        for _, u, rows in segments:
            start, n = rows.start, rows.stop - rows.start
            rz_products.append((_blocks(h, start, n).transpose(3, 0, 1, 2, 4),
                                u[:, :2 * hd].swapaxes(1, 2)[:, None], _blocks(recurrent, start, n)))
            h_products.append((_blocks(gated, start, n),
                               u[:, 2 * hd:].swapaxes(1, 2)[:, None], _blocks(recurrent[..., :hd], start, n)))
        recurrent, gated = recurrent[:, :batch], gated[:, :batch]
    h = h[:, :batch]
    for i in range(steps):
        a_rz, a_h, h_i = gates[:, :, i, :2 * hd], gates[:, :, i, 2 * hd:], h[:, :, i]
        h_prev = h[:, :, i - 1]
        if i:  # h_0 = 0, so the first step has no recurrent terms
            for states, u_rz, out in rz_products:
                np.matmul(states[i - 1], u_rz, out=out)
            a_rz += recurrent
        r_i, z_i = sigmoid(a_rz, out=a_rz)[..., :hd], a_rz[..., hd:]
        if i:
            np.multiply(h_prev, r_i, out=gated)
            for blocks, u_h, out in h_products:
                np.matmul(blocks, u_h, out=out)
            a_h += recurrent[..., :hd]
        c_i = np.tanh(a_h, out=a_h)
        np.multiply(z_i, c_i, out=h_i)
        if i:  # h_i += (1 - z_i) * h_prev
            carry = np.subtract(1.0, z_i, out=gated)
            carry *= h_prev
            h_i += carry
    return GruTrace(gates[..., :hd], gates[..., hd:2 * hd], gates[..., 2 * hd:], h)


def gru_backward(
    params: GruBatch, trace: GruTrace, grad_h, da: np.ndarray, input_grad: bool = True
) -> np.ndarray | None:
    """Exact reverse-mode pass through the recurrence given an upstream
    gradient for every h_i of both directions.

    Writes the pre-activation gradients [r, z, hhat] of every row into
    ``da``, a writable (2, B * T, 3d/2) array whose rows are those of the
    forward pass's stacked inputs, for gru_weight_grads and
    gru_recurrent_grads.
    Returns a (B, T, d) array of gradients w.r.t. the sequences (the two
    directions summed, direction 1 read back in time), or None without
    ``input_grad`` (inputs that are constants).
    """
    gh = np.asarray(grad_h, dtype=np.float64)
    if gh.shape != trace.h.shape:
        raise ShapeMismatchError(f"grad_h shape {gh.shape} != trace shape {trace.h.shape}")
    _, batch, steps, hd = gh.shape
    segments = _segments(params, batch)
    if da.shape != (2, batch * steps, 3 * hd):
        raise ShapeMismatchError(f"da shape {da.shape} != {(2, batch * steps, 3 * hd)}")
    da = da.reshape(2, batch, steps, 3 * hd)  # splits an axis: always a view
    dgated, recurrent = np.empty((2, 2, batch, hd))
    g = gh[:, :, -1]
    for i in range(steps - 1, -1, -1):
        r_i, z_i, c_i = trace.r[:, :, i], trace.z[:, :, i], trace.hhat[:, :, i]
        da[:, :, i, 2 * hd:] = dah = g * z_i * (1.0 - c_i * c_i)
        if i == 0:  # h_0 = 0 is a constant: the reset gate gets no gradient
            da[:, :, 0, :hd] = 0.0
            da[:, :, 0, hd:2 * hd] = g * c_i * z_i * (1.0 - z_i)
            break
        h_prev = trace.h[:, :, i - 1]
        da[:, :, i, hd:2 * hd] = g * (c_i - h_prev) * z_i * (1.0 - z_i)
        for _, u, rows in segments:  # gradient w.r.t. h_prev * r
            np.matmul(dah[:, rows], u[:, 2 * hd:], out=dgated[:, rows])
        da[:, :, i, :hd] = dgated * h_prev * r_i * (1.0 - r_i)
        for _, u, rows in segments:
            np.matmul(da[:, rows, i, :2 * hd], u[:, :2 * hd], out=recurrent[:, rows])
        g = gh[:, :, i - 1] + (g * (1.0 - z_i) + dgated * r_i + recurrent)
    if not input_grad:
        return None
    d = params.input_dim
    dx = np.empty((2, batch, steps, d))
    for w, _, rows in segments:
        np.matmul(da[:, rows].reshape(2, -1, 3 * hd), w, out=dx[:, rows].reshape(2, -1, d))
    return dx[0] + dx[1][:, ::-1]


def gru_weight_grads(grads: GruParams, da: np.ndarray, inputs: np.ndarray) -> None:
    """Write one pair's dW, summed over every row it ran, into ``grads.w``
    ((2, 3d/2, d)): dW = da^T x for both directions in one stacked
    np.matmul, from the (2, n, 3d/2) pre-activation gradients and the
    (2, n, d) direction-stacked inputs of the same rows."""
    np.matmul(da.swapaxes(1, 2), inputs, out=grads.w)


def gru_recurrent_grads(grads: GruParams, da: np.ndarray, states: np.ndarray) -> None:
    """Write one pair's dU into ``grads.u`` ((2, 3d/2, d/2)) from the rows
    past their sequence's first step (h_0 = 0 gives the first step no U
    gradient): their (2, m, 3d/2) pre-activation gradients, and their
    (2, m, d) states [h_prev, h_prev * r]. dU_rz = da_rz^T h_prev and
    dU_h = da_h^T (h_prev * r), each one stacked np.matmul."""
    hd = grads.u.shape[-1]
    np.matmul(da[..., :2 * hd].swapaxes(1, 2), states[..., :hd], out=grads.u[:, :2 * hd])
    np.matmul(da[..., 2 * hd:].swapaxes(1, 2), states[..., hd:], out=grads.u[:, 2 * hd:])


@dataclass
class ClassifierParams:
    """Two-logit linear head: w is (2, d), b is (2,)."""

    w: np.ndarray
    b: np.ndarray

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.w.copy(), self.b.copy())


def softmax_ce(clf: ClassifierParams, h: np.ndarray, y: int) -> tuple[float, float]:
    """Class-1 probability and cross-entropy loss for label y in {0, 1}.

    Ties the loss to clamped probabilities so it stays finite when the
    prediction saturates.
    """
    logits = clf.w @ h + clf.b
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    p_fake = float(exps[1] / exps.sum())
    p = min(max(p_fake, PROB_CLAMP), 1.0 - PROB_CLAMP)
    loss = -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
    return p_fake, loss


def softmax_ce_backward(
    clf: ClassifierParams, h: np.ndarray, y: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, dh) of the unclamped softmax cross-entropy."""
    logits = clf.w @ h + clf.b
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    probs = exps / exps.sum()
    dlogits = probs.copy()
    dlogits[y] -= 1.0
    return np.outer(dlogits, h), dlogits, clf.w.T @ dlogits


# Elements per slice of an Adam step: the slice of each operand and the two
# scratch slices (1.5 MB) stay in a core's cache between the step's
# elementwise operations.
ADAM_BLOCK = 32768
# A step splits into at most this many parts, and only when each part gets at
# least _ADAM_MIN_PART_BLOCKS whole slices: below that, starting a thread
# costs more than the part saves.
_ADAM_PARTS = 2
_ADAM_MIN_PART_BLOCKS = 4


@dataclass
class AdamState:
    """Moment accumulators for one flat parameter vector, plus the scratch
    that adam_step reuses from step to step: two slices per part."""

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False)


def _adam_parts(size: int) -> int:
    """How many parts a step over ``size`` elements runs in."""
    if size < _ADAM_PARTS * _ADAM_MIN_PART_BLOCKS * ADAM_BLOCK or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(_ADAM_PARTS, len(os.sched_getaffinity(0)))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of ``params``, in place.

    ``params`` must be a contiguous float64 array; the moments live in
    ``state``. The vector is updated slice by slice, each slice with the
    elementwise operations, in the order, of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        params -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, so the result is
    bit-identical to evaluating those whole-vector expressions, without
    allocating full-size temporaries.

    A vector of at least ``_ADAM_PARTS * _ADAM_MIN_PART_BLOCKS`` slices is
    cut into contiguous ranges of whole slices, at most ``_ADAM_PARTS`` (2)
    and no more than the CPUs the process may run on. The calling thread
    updates the first range and a thread started for this step each other
    one, each range with its own scratch, so every element gets the same
    bits whichever thread computes it. ``state.t`` advances once, before
    the ranges start, and an exception in a started thread is raised here
    once all of them have finished.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64
            and params.flags.c_contiguous and params.flags.writeable):
        raise TypeError("params must be a writeable, contiguous float64 array")
    g = np.asarray(grads, dtype=np.float64)
    if params.shape != g.shape:
        raise ShapeMismatchError(f"params {params.shape} vs grads {g.shape}")
    p, g = params.reshape(-1), g.reshape(-1)
    if state.m is None:
        # calloc, not a memset: each part faults in its own pages.
        state.m = np.zeros(p.size)
        state.v = np.zeros(p.size)
    elif state.m.shape != p.shape:
        raise ShapeMismatchError(f"moment shape {state.m.shape} vs params {p.shape}")
    parts = _adam_parts(p.size)
    if state.scratch is None or len(state.scratch) < parts:
        state.scratch = np.empty((parts, 2, min(ADAM_BLOCK, p.size)))
    state.t += 1
    operands = (state.m, state.v, g, p, state.lr, state.t)
    if parts == 1:
        _adam_range(*operands, state.scratch[0], 0, p.size)
        return
    # Imported here so that commands which take no large step (predict) skip it.
    from concurrent.futures import ThreadPoolExecutor

    blocks = -(-p.size // ADAM_BLOCK)
    cuts = [min(p.size, blocks * i // parts * ADAM_BLOCK) for i in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = [pool.submit(_adam_range, *operands, state.scratch[i], cuts[i], cuts[i + 1])
                for i in range(1, parts)]
        _adam_range(*operands, state.scratch[0], cuts[0], cuts[1])
    for part in rest:
        part.result()


def _adam_range(m_all, v_all, g, p, lr, t, scratch, lo, hi) -> None:
    """Step ``t`` of adam_step over elements [lo, hi) of the vectors, one
    slice at a time; ``lo`` is a multiple of ADAM_BLOCK, and so is ``hi``
    unless it is the vectors' end. It runs on started threads too, so it
    calls numpy only: the benchmark's span tracer assumes one thread."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for start in range(lo, hi, ADAM_BLOCK):
        cut = slice(start, start + ADAM_BLOCK)
        m, v, gs, ps = m_all[cut], v_all[cut], g[cut], p[cut]
        a, b = scratch[:, :ps.size]
        m *= b1
        np.multiply(gs, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(gs, 1.0 - b2, out=a)
        a *= gs
        v += a
        np.divide(v, c2, out=a)  # sqrt(v_hat) + eps
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, c1, out=b)  # lr * m_hat
        b *= lr
        b /= a
        ps -= b


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grads: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Worst relative error between analytic gradients and central differences.

    ``f`` is called with a perturbed copy of the flat parameter vector; the
    per-coordinate error is |a - n| / max(1e-8, |a| + |n|).
    """
    theta = np.array(params, dtype=np.float64)
    analytic = np.asarray(analytic_grads, dtype=np.float64)
    if theta.shape != analytic.shape:
        raise ShapeMismatchError(f"params {theta.shape} vs grads {analytic.shape}")
    worst = 0.0
    for i in range(theta.size):
        orig = theta.flat[i]
        theta.flat[i] = orig + step
        f_plus = f(theta)
        theta.flat[i] = orig - step
        f_minus = f(theta)
        theta.flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = analytic.flat[i]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    return worst
