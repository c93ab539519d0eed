"""Minimal float64 numeric kernel: GRU cell, softmax cross-entropy, Adam,
and a central-finite-difference gradient checker.

The GRU over a sequence x_1..x_T (each of width d, hidden width d/2):

    r_i = sigmoid(W_r x_i + U_r h_{i-1})
    z_i = sigmoid(W_z x_i + U_z h_{i-1})
    c_i = tanh(W_h x_i + U_h (h_{i-1} * r_i))
    h_i = (1 - z_i) * h_{i-1} + z_i * c_i,      h_0 = 0

There are no bias terms. The six matrices, the only learnable tensors, are
stored stacked by gate as W = [W_r; W_z; W_h] and U = [U_r; U_z; U_h], and
the kernels multiply by W and U as stored.

The GRU kernels run a batch of B equal-length sequences at once, as
(B, T, d) arrays. The forward kernel computes each row's matrix products on
its own, so a sequence's result is bit-identical whatever else shares its
batch; a single GEMM over the batch would make the last bits of a row
depend on the other rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PROB_CLAMP = 1e-12


class ShapeMismatchError(ValueError):
    pass


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): unlike 1 / (1 + exp(-x)) it cannot overflow."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _rowwise(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T with every row of x multiplied on its own (a stacked matmul)."""
    return np.matmul(x[..., None, :], w.T)[..., 0, :]


@dataclass
class GruParams:
    """The GRU's matrices stacked by gate, rows r, z, h: w is [W_r; W_z; W_h],
    (3d/2, d), and u is [U_r; U_z; U_h], (3d/2, d/2)."""

    w: np.ndarray
    u: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.u.shape[1]

    @property
    def w_r(self) -> np.ndarray:
        return self.w[:self.hidden_dim]

    @classmethod
    def init(cls, d: int, rng: np.random.Generator) -> "GruParams":
        """Uniform init in +-1/sqrt(fan-in)."""
        if d % 2:
            raise ShapeMismatchError(f"input width must be even, got {d}")
        sw, su = 1.0 / math.sqrt(d), 1.0 / math.sqrt(d // 2)
        return cls(rng.uniform(-sw, sw, (3 * d // 2, d)), rng.uniform(-su, su, (3 * d // 2, d // 2)))

    @classmethod
    def zeros(cls, d: int) -> "GruParams":
        return cls(np.zeros((3 * d // 2, d)), np.zeros((3 * d // 2, d // 2)))

    def copy(self) -> "GruParams":
        return GruParams(self.w.copy(), self.u.copy())

    def matrices(self) -> tuple[np.ndarray, ...]:
        """The six gate matrices as views: W_r W_z W_h U_r U_z U_h."""
        return (*np.split(self.w, 3), *np.split(self.u, 3))


@dataclass
class GruTrace:
    """Per-step activations of a batch, kept for backprop; [b, i] is step i+1
    of sequence b."""

    inputs: np.ndarray  # (B, T, d)
    r: np.ndarray       # (B, T, d/2)
    z: np.ndarray
    hhat: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        """Cell evaluations: B * T."""
        return self.h.shape[0] * self.h.shape[1]


def gru_forward(params: GruParams, inputs) -> GruTrace:
    """Run the GRU over B sequences of T d-wide vectors, keeping all activations."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ShapeMismatchError(f"inputs must be a non-empty (B, T, d) array, got {x.shape}")
    if x.shape[2] != params.input_dim:
        raise ShapeMismatchError(f"input width {x.shape[2]} != parameter width {params.input_dim}")
    batch, steps, hd = x.shape[0], x.shape[1], params.hidden_dim
    # The input contributions do not depend on the recurrence. The buffer
    # holds pre-activations and is turned into [r, z, hhat] in place.
    gates = _rowwise(x, params.w)
    u_rz, u_h = params.u[:2 * hd], params.u[2 * hd:]
    h = np.empty((batch, steps, hd))
    for i in range(steps):
        a_rz, a_h, h_i = gates[:, i, :2 * hd], gates[:, i, 2 * hd:], h[:, i]
        if i:  # h_0 = 0, so the first step has no recurrent terms
            a_rz += _rowwise(h[:, i - 1], u_rz)
        r_i, z_i = sigmoid(a_rz, out=a_rz)[:, :hd], a_rz[:, hd:]
        if i:
            a_h += _rowwise(h[:, i - 1] * r_i, u_h)
        c_i = np.tanh(a_h, out=a_h)
        np.multiply(z_i, c_i, out=h_i)
        if i:
            h_i += (1.0 - z_i) * h[:, i - 1]
    return GruTrace(x, gates[..., :hd], gates[..., hd:2 * hd], gates[..., 2 * hd:], h)


def gru_backward(
    params: GruParams, trace: GruTrace, grad_h, input_grad: bool = True
) -> tuple[GruParams, np.ndarray | None]:
    """Exact reverse-mode pass given an upstream gradient for every h_i.

    Returns the gradients of w and u, in their layout (a GruParams) and
    summed over the batch, and a (B, T, d) array of gradients w.r.t. the
    inputs, or None without ``input_grad`` (inputs that are constants).
    """
    gh = np.asarray(grad_h, dtype=np.float64)
    if gh.shape != trace.h.shape:
        raise ShapeMismatchError(f"grad_h shape {gh.shape} != trace shape {trace.h.shape}")
    batch, steps, hd = gh.shape
    u_rz, u_h = params.u[:2 * hd], params.u[2 * hd:]
    da = np.empty((batch, steps, 3 * hd))  # pre-activation gradients [r, z, hhat]
    g = gh[:, -1]
    for i in range(steps - 1, -1, -1):
        r_i, z_i, c_i = trace.r[:, i], trace.z[:, i], trace.hhat[:, i]
        da[:, i, 2 * hd:] = dah = g * z_i * (1.0 - c_i * c_i)
        if i == 0:  # h_0 = 0 is a constant: the reset gate gets no gradient
            da[:, 0, :hd] = 0.0
            da[:, 0, hd:2 * hd] = g * c_i * z_i * (1.0 - z_i)
            break
        h_prev = trace.h[:, i - 1]
        da[:, i, hd:2 * hd] = g * (c_i - h_prev) * z_i * (1.0 - z_i)
        dgated = dah @ u_h  # gradient w.r.t. h_prev * r
        da[:, i, :hd] = dgated * h_prev * r_i * (1.0 - r_i)
        g = gh[:, i - 1] + (g * (1.0 - z_i) + dgated * r_i + da[:, i, :2 * hd] @ u_rz)
    rows = batch * steps
    dw = da.reshape(rows, 3 * hd).T @ trace.inputs.reshape(rows, -1)
    # h_prev = 0 at the first step, so only later steps reach the U matrices.
    later = da[:, 1:].reshape(-1, 3 * hd)
    h_prev = trace.h[:, :-1].reshape(-1, hd)
    du = np.empty((3 * hd, hd))
    np.matmul(later[:, :2 * hd].T, h_prev, out=du[:2 * hd])
    np.matmul(later[:, 2 * hd:].T, h_prev * trace.r[:, 1:].reshape(-1, hd), out=du[2 * hd:])
    grads = GruParams(dw, du)
    if not input_grad:
        return grads, None
    dx = da.reshape(rows, 3 * hd) @ params.w
    return grads, dx.reshape(batch, steps, -1)


@dataclass
class ClassifierParams:
    """Two-logit linear head: w is (2, d), b is (2,)."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros(cls, d: int) -> "ClassifierParams":
        return cls(np.zeros((2, d)), np.zeros(2))

    @classmethod
    def init(cls, d: int, rng: np.random.Generator) -> "ClassifierParams":
        s = 1.0 / math.sqrt(d)
        return cls(rng.uniform(-s, s, (2, d)), rng.uniform(-s, s, 2))

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
# scratch slices stay in cache between the step's elementwise operations.
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """Moment accumulators for one flat parameter vector, plus the scratch
    that adam_step reuses from step to step."""

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False)


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
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64
            and params.flags.c_contiguous and params.flags.writeable):
        raise TypeError("params must be a writeable, contiguous float64 array")
    g = np.asarray(grads, dtype=np.float64)
    if params.shape != g.shape:
        raise ShapeMismatchError(f"params {params.shape} vs grads {g.shape}")
    p, g = params.reshape(-1), g.reshape(-1)
    if state.m is None:
        state.m = np.zeros_like(p)
        state.v = np.zeros_like(p)
        state.scratch = np.empty((2, min(ADAM_BLOCK, p.size)))
    elif state.m.shape != p.shape:
        raise ShapeMismatchError(f"moment shape {state.m.shape} vs params {p.shape}")
    state.t += 1
    b1, b2, lr, eps = 0.9, 0.999, state.lr, 1e-8
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for start in range(0, p.size, ADAM_BLOCK):
        cut = slice(start, start + ADAM_BLOCK)
        m, v, gs, ps = state.m[cut], state.v[cut], g[cut], p[cut]
        a, b = state.scratch[:, :ps.size]
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
