"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain Python (lists, floats,
explicit recursion) rather than reusing the package's numpy code paths, so
agreement is evidence of correctness rather than of shared bugs.
"""

import math


def _dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gru_sequence(mats, inputs):
    """Scalar-loop GRU: mats is (w_r, w_z, w_h, u_r, u_z, u_h) as nested lists.

    Returns the list of hidden states h_1..h_T (lists of floats).
    """
    w_r, w_z, w_h, u_r, u_z, u_h = mats
    hd = len(w_r)
    h = [0.0] * hd
    out = []
    for x in inputs:
        r = [_sigmoid(_dot(w_r[j], x) + _dot(u_r[j], h)) for j in range(hd)]
        z = [_sigmoid(_dot(w_z[j], x) + _dot(u_z[j], h)) for j in range(hd)]
        gated = [h[j] * r[j] for j in range(hd)]
        c = [math.tanh(_dot(w_h[j], x) + _dot(u_h[j], gated)) for j in range(hd)]
        h = [(1.0 - z[j]) * h[j] + z[j] * c[j] for j in range(hd)]
        out.append(h)
    return out


def _gru_mats(gru_params):
    return tuple(m.tolist() for m in gru_params.matrices())


def encode_reference(params, tree, table):
    """Recursive document encoder; must agree with hero.model.encode_document.

    Mirrors the contract only: bottom-up, each internal node is the mean over
    child positions of [forward GRU state (+) backward GRU state], with the
    mode-specific parameter choice, and ablations replace parts with plain
    word / EDU averaging.
    """
    from hero.ling_tree import Level, NodeKind
    from hero.model import (
        AblationMode, SharingMode, DISCOURSE_KEY, SYNTAX_KEY,
        UNIFIED_KEY, UNK_RR, UNK_SYNTAX,
    )

    d = params.d

    def embed(token):
        vec = table.vectors.get(token)
        if vec is None:
            vec = table.vectors.get(token.lower())
        if vec is None:
            return [0.0] * d
        return vec.tolist()

    def key_for(node):
        if params.mode is SharingMode.UNIFIED:
            return UNIFIED_KEY
        if params.mode is SharingMode.LEVEL_SPECIFIC:
            child = node.children[0]
            return DISCOURSE_KEY if child.level is Level.DISCOURSE else SYNTAX_KEY
        if node.kind is NodeKind.RR:
            return node.label if node.label in params.registry else UNK_RR
        label = node.children[0].label if node.kind is NodeKind.EDU else node.label
        return label if label in params.registry else UNK_SYNTAX

    def aggregate(node, child_vecs):
        pair = params.registry[key_for(node)]
        fwd = gru_sequence(_gru_mats(pair.fwd), child_vecs)
        bwd = gru_sequence(_gru_mats(pair.bwd), list(reversed(child_vecs)))
        k = len(child_vecs)
        hd = d // 2
        total = [0.0] * d
        for i in range(k):
            joined = fwd[i] + bwd[k - 1 - i]  # backward state at position i
            for j in range(d):
                total[j] += joined[j]
        return [v / k for v in total]

    def mean(vectors):
        k = len(vectors)
        return [sum(v[j] for v in vectors) / k for j in range(d)]

    def words_below(node):
        if node.kind is NodeKind.WORD:
            return [embed(node.label)]
        out = []
        for child in node.children:
            out.extend(words_below(child))
        return out

    def full_encode(node):
        if node.kind is NodeKind.WORD:
            return embed(node.label)
        return aggregate(node, [full_encode(c) for c in node.children])

    ablation = params.ablation
    if ablation is AblationMode.NO_STRUCTURE:
        return mean(words_below(tree.root))
    if ablation is AblationMode.NO_DISCOURSE:
        edus = _edus(tree.root)
        return mean([full_encode(e) for e in edus])
    if ablation is AblationMode.NO_SYNTAX:
        def disc_encode(node):
            if node.kind is NodeKind.EDU:
                return mean(words_below(node))
            return aggregate(node, [disc_encode(c) for c in node.children])
        return disc_encode(tree.root)
    return full_encode(tree.root)


def _edus(node):
    from hero.ling_tree import NodeKind

    if node.kind is NodeKind.EDU:
        return [node]
    out = []
    for child in node.children:
        out.extend(_edus(child))
    return out


def tree_stats_reference(tree):
    """Recursive tree statistics; must agree with hero.stats.compute_tree_stats.

    Returns every TreeStats field by name. The whole tree, a pruned copy of
    the discourse skeleton (EDUs made childless) and each EDU's syntax forest
    are measured separately, each by its own recursion.
    """
    from hero.ling_tree import NodeKind, TreeNode

    def pre_order(node):
        out = [node]
        for child in node.children:
            out.extend(pre_order(child))
        return out

    def count_levels(node, depth, per_depth, leaf_depths):
        per_depth[depth] = per_depth.get(depth, 0) + 1
        if not node.children:
            leaf_depths.append(depth)
        for child in node.children:
            count_levels(child, depth + 1, per_depth, leaf_depths)

    def shape(roots):
        per_depth, leaf_depths = {}, []
        for root in roots:
            count_levels(root, 0, per_depth, leaf_depths)
        size = sum(per_depth.values())
        depth = max(per_depth)
        return {
            "size": size, "max_width": max(per_depth.values()), "depth": depth,
            "avg_width": size / (depth + 1),
            "avg_leaf_depth": sum(leaf_depths) / len(leaf_depths),
        }

    def prune(node):
        if node.kind is NodeKind.EDU:
            return TreeNode(node.label, node.kind, ())
        return TreeNode(node.label, node.kind, tuple(prune(c) for c in node.children))

    nodes = pre_order(tree.root)
    total = len(nodes)
    kinds = {kind: 0 for kind in ("RR", "EDU", "SYNTAX", "WORD")}
    labels = {}
    for node in nodes:
        kinds[node.kind.value] += 1
        key = "WORD" if node.kind is NodeKind.WORD else node.label
        labels[key] = labels.get(key, 0) + 1
    child_counts = [len(n.children) for n in nodes if n.children]
    whole = shape([tree.root])
    discourse = shape([prune(tree.root)])
    forests = [shape(edu.children) for edu in _edus(tree.root)]

    def mean(key):
        return sum(f[key] for f in forests) / len(forests)

    return {
        "node_count": total,
        "leaf_count": kinds["WORD"],
        "depth": whole["depth"],
        "max_width": whole["max_width"],
        "avg_width": whole["avg_width"],
        "avg_leaf_depth": whole["avg_leaf_depth"],
        "avg_children": sum(child_counts) / len(child_counts),
        "max_children": max(child_counts),
        "kind_proportions": {k: v / total for k, v in kinds.items()},
        "label_proportions": {k: v / total for k, v in labels.items()},
        "discourse_size": discourse["size"],
        "discourse_max_width": discourse["max_width"],
        "discourse_depth": discourse["depth"],
        "syntax_size_mean": mean("size"),
        "syntax_size_max": max(f["size"] for f in forests),
        "syntax_width_mean": mean("max_width"),
        "syntax_width_max": max(f["max_width"] for f in forests),
        "syntax_depth_mean": mean("depth"),
        "syntax_depth_max": max(f["depth"] for f in forests),
    }


def adam_reference(grads_in_order, lr, beta1=0.9, beta2=0.999, eps=1e-8, w0=0.0):
    """Scalar Adam on one weight given the gradient at each step."""
    w, m, v = w0, 0.0, 0.0
    history = []
    for t, g in enumerate(grads_in_order, 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(w)
    return history


def f1_reference(labels, preds, positive):
    """Per-class F1 from first principles."""
    tp = sum(1 for y, p in zip(labels, preds) if y == positive and p == positive)
    fp = sum(1 for y, p in zip(labels, preds) if y != positive and p == positive)
    fn = sum(1 for y, p in zip(labels, preds) if y == positive and p != positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def macro_f1_reference(labels, preds):
    return (f1_reference(labels, preds, 1) + f1_reference(labels, preds, 0)) / 2.0


def micro_f1_reference(labels, preds):
    """Pooled-count F1 over both classes."""
    tp = fp = fn = 0
    for cls in (0, 1):
        for y, p in zip(labels, preds):
            if y == cls and p == cls:
                tp += 1
            elif y != cls and p == cls:
                fp += 1
            elif y == cls and p != cls:
                fn += 1
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def auc_reference(labels, scores):
    """Quadratic-time pairwise AUC with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def t_two_sided_p_reference(t, dof):
    """Two-sided t-distribution tail mass by adaptive numerical integration."""
    from scipy import integrate

    log_norm = (
        math.lgamma((dof + 1.0) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )

    def density(u):
        return math.exp(log_norm - (dof + 1.0) / 2.0 * math.log1p(u * u / dof))

    middle, _ = integrate.quad(density, -abs(t), abs(t), epsabs=1e-13, epsrel=1e-12)
    return 1.0 - middle
