"""Correctness checks run outside the timed windows.

Each checker takes the program's output as an argument and compares it with
an independent expectation, so the self-test can hand it a wrong output and
see the failure counted. Tolerances match the test suite's: 1e-10 against
the reference encoder, 1e-4 relative for gradients, exact equality for
checkpoint round-trips and CLI output, 1e-9 relative for Welch t and dof
and 1e-6 for p-values against numerical integration.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from hero import nn
from hero.ling_tree import iter_nodes
from hero.model import encode_document

from reference import encode_reference

ENCODE_ATOL = 1e-10
GRAD_RTOL = 1e-4
WELCH_RTOL = 1e-9
P_ATOL = 1e-6


class Checks:
    """Tally of check outcomes; every failure is kept with its detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_encoding(checks: Checks, h_doc, params, tree, table) -> bool:
    """The document vector against the pure-Python recursive oracle."""
    ref = np.array(encode_reference(params, tree, table))
    diff = float(np.max(np.abs(np.asarray(h_doc) - ref)))
    return checks.record("encode_reference", diff < ENCODE_ATOL, f"max |diff| {diff:.3e}")


def param_arrays(params):
    for pair in params.registry.values():
        for gru in (pair.fwd, pair.bwd):
            yield from gru.matrices()
    yield params.classifier.w
    yield params.classifier.b


def _loss(params, tree, table, y) -> float:
    return nn.softmax_ce(params.classifier, encode_document(params, tree, table).h_doc, y)[1]


def check_gradient(checks: Checks, grads, params, tree, table, y, seed: int, step: float = 1e-5) -> bool:
    """Directional central difference of the loss along a seeded unit
    direction that leans on the analytic gradient (so the projection is
    large), compared with the analytic directional derivative."""
    rng = np.random.default_rng(seed)
    g = [np.array(a) for a in param_arrays(grads)]
    noise = [rng.standard_normal(a.shape) for a in g]
    g_norm = math.sqrt(sum(float(np.vdot(a, a)) for a in g)) or 1.0
    n_norm = math.sqrt(sum(float(np.vdot(a, a)) for a in noise))
    v = [a / g_norm + b / n_norm for a, b in zip(g, noise)]
    v_norm = math.sqrt(sum(float(np.vdot(a, a)) for a in v))
    v = [a / v_norm for a in v]
    analytic = sum(float(np.vdot(a, b)) for a, b in zip(g, v))

    targets = list(param_arrays(params))
    saved = [a.copy() for a in targets]
    try:
        for a, d in zip(targets, v):
            a += step * d
        plus = _loss(params, tree, table, y)
        for a, orig, d in zip(targets, saved, v):
            a[...] = orig - step * d
        minus = _loss(params, tree, table, y)
    finally:
        for a, orig in zip(targets, saved):
            a[...] = orig
    numeric = (plus - minus) / (2.0 * step)
    rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
    return checks.record("gradient_fd", rel < GRAD_RTOL, f"relative error {rel:.3e}")


def check_roundtrip(checks: Checks, before, after) -> bool:
    """Predictions of a reloaded checkpoint must be bit-identical."""
    ok = list(before) == list(after)
    return checks.record("checkpoint_roundtrip", ok, f"{before[:3]} vs {after[:3]}")


def check_predict(checks: Checks, returncode: int, stdout: str, expected: float) -> bool:
    """One ``hero predict``: exit 0 and the in-process probability, exactly."""
    try:
        got = float(stdout.strip())
    except ValueError:
        got = None
    ok = returncode == 0 and got == expected
    return checks.record("predict_output", ok, f"exit {returncode}, printed {stdout.strip()!r}, expected {expected!r}")


def _depth(root) -> int:
    best, stack = 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in node.children)
    return best


ROW_VALUES = {
    "node_count": lambda tree: sum(1 for _ in iter_nodes(tree.root)),
    "leaf_count": lambda tree: sum(1 for n in iter_nodes(tree.root) if not n.children),
    "depth": lambda tree: _depth(tree.root),
}


def _t_two_sided_p():
    try:
        import scipy  # noqa: F401  (the reference integrates with scipy)
    except ImportError:
        return None
    from reference import t_two_sided_p_reference

    return t_two_sided_p_reference


def check_welch(checks: Checks, report, docs) -> None:
    """Recompute a few corpus-report rows from the Welch formulas."""
    rows = {row.statistic: row for row in report.rows}
    p_ref = _t_two_sided_p()
    for name, value in ROW_VALUES.items():
        fake = [value(d.tree) for d in docs if d.y == 1]
        true = [value(d.tree) for d in docs if d.y == 0]
        sa = statistics.variance(fake) / len(fake)
        sb = statistics.variance(true) / len(true)
        t = (statistics.fmean(fake) - statistics.fmean(true)) / math.sqrt(sa + sb)
        dof = (sa + sb) ** 2 / (sa * sa / (len(fake) - 1) + sb * sb / (len(true) - 1))
        row = rows.get(name)
        ok = (
            row is not None and row.t is not None
            and math.isclose(row.t, t, rel_tol=WELCH_RTOL, abs_tol=1e-12)
            and math.isclose(row.dof, dof, rel_tol=WELCH_RTOL)
            and (p_ref is None or abs(row.p_value - p_ref(t, dof)) < P_ATOL)
        )
        detail = "missing row" if row is None else f"t {row.t!r} vs {t!r}, dof {row.dof!r} vs {dof!r}"
        checks.record(f"welch:{name}", ok, detail)
