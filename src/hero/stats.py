"""Per-tree structural statistics and fake-vs-true population comparison.

Shape conventions: depth counts edges on the longest root-to-leaf path,
width counts nodes per depth level, and child counts are taken over internal
nodes. Group comparison uses Welch's unequal-variance t-test with
Welch-Satterthwaite degrees of freedom and a two-sided p-value computed
through the regularized incomplete beta function.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields

from .ling_tree import LingTree, NodeKind


class StatsError(ValueError):
    pass


class ZeroVarianceError(StatsError):
    pass


class TooFewSamplesError(StatsError):
    pass


class SingleClassCorpusError(StatsError):
    pass


KIND_ORDER = ("RR", "EDU", "SYNTAX", "WORD")


@dataclass
class TreeStats:
    """All structural measurements of one document tree.

    ``label_proportions`` shares the total across RR/EDU/syntax labels with
    all word leaves pooled under "WORD", so the values sum to 1; the four
    ``kind_proportions`` do as well.
    """

    node_count: int
    leaf_count: int
    depth: int
    max_width: int
    avg_width: float
    avg_leaf_depth: float
    avg_children: float
    max_children: int
    kind_proportions: dict[str, float]
    label_proportions: dict[str, float]
    discourse_size: int
    discourse_max_width: int
    discourse_depth: int
    syntax_size_mean: float
    syntax_size_max: int
    syntax_width_mean: float
    syntax_width_max: int
    syntax_depth_mean: float
    syntax_depth_max: int

    def as_numbers(self) -> dict[str, float]:
        """Flat numeric view used to line statistics up across a corpus."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, dict):
                out[field.name] = float(value)
        for kind in KIND_ORDER:
            out[f"kind_prop:{kind}"] = self.kind_proportions[kind]
        for label, value in self.label_proportions.items():
            out[f"label_prop:{label}"] = value
        return out


def compute_tree_stats(tree: LingTree) -> TreeStats:
    """Measure the whole tree, its discourse skeleton and each EDU's syntax
    forest in one pre-order walk.

    RR and EDU nodes sit above every syntax node, so a discourse node's depth
    in the tree is its depth in the skeleton, whose leaves are the EDUs. Each
    walk entry carries the node-per-depth counts of the EDU forest it lies in
    (None on the discourse level); a forest's roots are its shallowest nodes.
    """
    kind_counts = dict.fromkeys(KIND_ORDER, 0)
    label_counts: dict[str, int] = {}
    widths: dict[int, int] = {}
    discourse_widths: dict[int, int] = {}
    forests: list[dict[int, int]] = []
    internal = child_total = max_children = leaf_depth_total = 0
    stack: list[tuple] = [(tree.root, 0, None)]
    while stack:
        node, depth, forest = stack.pop()
        kind_counts[node.kind.value] += 1
        key = "WORD" if node.kind is NodeKind.WORD else node.label
        label_counts[key] = label_counts.get(key, 0) + 1
        widths[depth] = widths.get(depth, 0) + 1
        if forest is not None:
            forest[depth] = forest.get(depth, 0) + 1
        else:
            discourse_widths[depth] = discourse_widths.get(depth, 0) + 1
            if node.kind is NodeKind.EDU:
                forest = {}
                forests.append(forest)
        n_children = len(node.children)
        if n_children:
            internal += 1
            child_total += n_children
            max_children = max(max_children, n_children)
            stack.extend((child, depth + 1, forest) for child in reversed(node.children))
        else:
            leaf_depth_total += depth
    total = sum(kind_counts.values())
    max_depth = max(widths)
    sizes = [sum(f.values()) for f in forests]
    forest_widths = [max(f.values()) for f in forests]
    forest_depths = [max(f) - min(f) for f in forests]
    return TreeStats(
        node_count=total,
        leaf_count=kind_counts["WORD"],
        depth=max_depth,
        max_width=max(widths.values()),
        avg_width=total / (max_depth + 1),
        avg_leaf_depth=leaf_depth_total / (total - internal),
        avg_children=child_total / internal,
        max_children=max_children,
        kind_proportions={k: v / total for k, v in kind_counts.items()},
        label_proportions={k: v / total for k, v in label_counts.items()},
        discourse_size=sum(discourse_widths.values()),
        discourse_max_width=max(discourse_widths.values()),
        discourse_depth=max(discourse_widths),
        syntax_size_mean=sum(sizes) / len(forests),
        syntax_size_max=max(sizes),
        syntax_width_mean=sum(forest_widths) / len(forests),
        syntax_width_max=max(forest_widths),
        syntax_depth_mean=sum(forest_depths) / len(forests),
        syntax_depth_max=max(forest_depths),
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter, eps, tiny = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction only on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, dof: float) -> float:
    """Two-sided tail probability of Student's t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise StatsError(f"degrees of freedom must be positive, got {dof}")
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


@dataclass
class WelchResult:
    t: float
    dof: float
    p_value: float
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    n_a: int
    n_b: int


def compare_groups(group_a, group_b) -> WelchResult:
    """Welch's unequal-variance t-test between two samples.

    Raises TooFewSamplesError below 2 per group and ZeroVarianceError when
    both groups are constant (the statistic is undefined).
    """
    a = [float(v) for v in group_a]
    b = [float(v) for v in group_b]
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise TooFewSamplesError(f"need >= 2 samples per group, got {n_a} and {n_b}")
    mean_a = sum(a) / n_a
    mean_b = sum(b) / n_b
    var_a = sum((v - mean_a) ** 2 for v in a) / (n_a - 1)
    var_b = sum((v - mean_b) ** 2 for v in b) / (n_b - 1)
    sa, sb = var_a / n_a, var_b / n_b
    if sa + sb == 0.0:
        detail = "equal means" if mean_a == mean_b else "different means"
        raise ZeroVarianceError(f"both groups are constant ({detail}); t is undefined")
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    return WelchResult(t, dof, t_two_sided_p(t, dof), mean_a, mean_b, var_a, var_b, n_a, n_b)


@dataclass
class ComparisonRow:
    statistic: str
    fake_mean: float
    true_mean: float
    t: float | None
    dof: float | None
    p_value: float | None
    degenerate: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CorpusReport:
    rows: list[ComparisonRow]

    def to_csv(self) -> str:
        """One header and one row per statistic; floats by repr, a missing
        t, dof or p as an empty cell. A cell holding a comma, quote or line
        break (a ``label_prop:,`` row) is quoted, so every row has 6 cells."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["statistic", "fake_mean", "true_mean", "t", "dof", "p_value"])
        for row in self.rows:
            cells = [row.statistic, repr(row.fake_mean), repr(row.true_mean)]
            for value in (row.t, row.dof, row.p_value):
                cells.append("" if value is None else repr(value))
            writer.writerow(cells)
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps([row.as_dict() for row in self.rows], sort_keys=True, indent=2)


def corpus_report(docs) -> CorpusReport:
    """Compare every tree statistic between fake and true documents.

    Statistics are aligned by name across the corpus; a label missing from a
    tree counts as proportion 0 there. Rows where both groups are constant
    are emitted as degenerate (empty t/dof/p).
    """
    fake = [doc for doc in docs if doc.y == 1]
    true = [doc for doc in docs if doc.y == 0]
    if not fake or not true:
        raise SingleClassCorpusError("need both fake and true documents")
    fake_stats = [compute_tree_stats(doc.tree).as_numbers() for doc in fake]
    true_stats = [compute_tree_stats(doc.tree).as_numbers() for doc in true]

    names = list(dict.fromkeys(k for s in fake_stats + true_stats for k in s))
    fixed = [n for n in names if not n.startswith("label_prop:")]
    labels = sorted(n for n in names if n.startswith("label_prop:"))
    rows = []
    for name in fixed + labels:
        f_vals = [s.get(name, 0.0) for s in fake_stats]
        t_vals = [s.get(name, 0.0) for s in true_stats]
        fake_mean = sum(f_vals) / len(f_vals)
        true_mean = sum(t_vals) / len(t_vals)
        try:
            w = compare_groups(f_vals, t_vals)
            rows.append(ComparisonRow(name, fake_mean, true_mean, w.t, w.dof, w.p_value))
        except ZeroVarianceError:
            rows.append(ComparisonRow(name, fake_mean, true_mean, None, None, None, True))
    return CorpusReport(rows)
