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
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import chain
from operator import attrgetter, itemgetter

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


_SCALAR_FIELDS = tuple(
    f.name for f in fields(TreeStats) if f.name not in ("kind_proportions", "label_proportions")
)
_scalar_values = attrgetter(*_SCALAR_FIELDS)
_kind_values = itemgetter(*KIND_ORDER)
# The statistics every tree has: the scalar fields, then the kind proportions.
_FIXED_NAMES = (*_SCALAR_FIELDS, *(f"kind_prop:{kind}" for kind in KIND_ORDER))
_LABEL_PREFIX = "label_prop:"


def _fixed_values(tree_stats: TreeStats) -> tuple[float, ...]:
    return (*map(float, _scalar_values(tree_stats)), *_kind_values(tree_stats.kind_proportions))


_WORD, _EDU = NodeKind.WORD, NodeKind.EDU
_children = attrgetter("children")


def compute_tree_stats(tree: LingTree) -> TreeStats:
    """Measure the whole tree, its discourse skeleton and each EDU's syntax
    forest.

    One pre-order pass feeds the label keys to a ``Counter``, which keeps
    them in first-seen order. Then list passes, one level at a time, walk
    the discourse skeleton and each EDU's forest: they give the widths,
    depths, leaf depths and child counts. The tree must hold
    ``validate_tree``'s invariants, as every parsed or generated tree does:
    RR and EDU nodes sit above every syntax node, so a discourse node's
    depth in the tree is its depth in the skeleton, whose leaves are the
    EDUs; and the leaves are exactly the word nodes.
    """
    root = tree.root
    keys = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.kind is _WORD:
            keys.append("WORD")
        else:
            keys.append(node.label)
            stack += node.children[::-1]
    total = len(keys)

    discourse_widths, forests = [], []
    max_children = 0
    level = [root]
    while level:
        discourse_widths.append(len(level))
        below = []
        for node in level:
            max_children = max(max_children, len(node.children))
            if node.kind is _EDU:
                forests.append((len(discourse_widths), node.children))
            else:
                below += node.children
        level = below

    # A forest's level list holds its nodes at one depth of the whole tree.
    widths = discourse_widths.copy()
    leaves = leaf_depth_total = 0
    sizes, forest_widths, forest_depths = [], [], []
    for depth, level in forests:
        forest = []
        while level:
            if depth == len(widths):
                widths.append(0)
            widths[depth] += len(level)
            forest.append(len(level))
            kids = list(map(_children, level))
            n_leaves = kids.count(())
            leaves += n_leaves
            leaf_depth_total += depth * n_leaves
            if n_leaves < len(level):
                max_children = max(max_children, *map(len, kids))
            level = list(chain.from_iterable(kids))
            depth += 1
        sizes.append(sum(forest))
        forest_widths.append(max(forest))
        forest_depths.append(len(forest) - 1)
    edus = len(forests)
    discourse_size = sum(discourse_widths)
    kind_counts = (discourse_size - edus, edus, total - discourse_size - leaves, leaves)
    return TreeStats(
        node_count=total,
        leaf_count=leaves,
        depth=len(widths) - 1,
        max_width=max(widths),
        avg_width=total / len(widths),
        avg_leaf_depth=leaf_depth_total / leaves,
        avg_children=(total - 1) / (total - leaves),  # every node but the root is a child
        max_children=max_children,
        kind_proportions={k: v / total for k, v in zip(KIND_ORDER, kind_counts)},
        label_proportions={k: v / total for k, v in Counter(keys).items()},
        discourse_size=discourse_size,
        discourse_max_width=max(discourse_widths),
        discourse_depth=len(discourse_widths) - 1,
        syntax_size_mean=sum(sizes) / edus,
        syntax_size_max=max(sizes),
        syntax_width_mean=sum(forest_widths) / edus,
        syntax_width_max=max(forest_widths),
        syntax_depth_mean=sum(forest_depths) / edus,
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
    a = list(map(float, group_a))
    b = list(map(float, group_b))
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
        return json.dumps([asdict(row) for row in self.rows], sort_keys=True, indent=2)


def corpus_report(docs) -> CorpusReport:
    """Compare every tree statistic between fake and true documents.

    Each statistic gets a column with one value per document, fake ones
    first, filled in one pass per document; a label missing from a tree
    counts as proportion 0 there. Rows list the scalar statistics in
    TreeStats field order, then the kind proportions in KIND_ORDER, then the
    label proportions sorted by name. A tested row takes its means from
    compare_groups, which sums the same floats in the same order. Rows where
    both groups are constant are emitted as degenerate (empty t/dof/p).
    """
    fake = [doc for doc in docs if doc.y == 1]
    true = [doc for doc in docs if doc.y == 0]
    if not fake or not true:
        raise SingleClassCorpusError("need both fake and true documents")
    per_doc = [compute_tree_stats(doc.tree) for doc in fake + true]
    columns = dict(zip(_FIXED_NAMES, map(list, zip(*map(_fixed_values, per_doc)))))
    label_columns = {}
    for i, tree_stats in enumerate(per_doc):
        for label, value in tree_stats.label_proportions.items():
            column = label_columns.get(label)
            if column is None:
                column = label_columns[label] = [0.0] * len(per_doc)
            column[i] = value
    for label in sorted(label_columns):
        columns[_LABEL_PREFIX + label] = label_columns[label]

    n_fake = len(fake)
    rows = []
    for name, column in columns.items():
        f_vals, t_vals = column[:n_fake], column[n_fake:]
        try:
            w = compare_groups(f_vals, t_vals)
            rows.append(ComparisonRow(name, w.mean_a, w.mean_b, w.t, w.dof, w.p_value))
        except ZeroVarianceError:
            fake_mean, true_mean = sum(f_vals) / len(f_vals), sum(t_vals) / len(t_vals)
            rows.append(ComparisonRow(name, fake_mean, true_mean, None, None, None, True))
    return CorpusReport(rows)
