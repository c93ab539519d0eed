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


# How far gru_forward may stray from gru_forward_rowwise, and an h_doc
# encoded with one from the same h_doc encoded with the other. Both sum each
# product of k <= 100 terms of magnitude < 1 (inputs in [-1, 1], weights
# within 1/sqrt(fan-in)), each in its own order: the sums differ by at most
# about 2 * k * eps * sum|terms| < 1e-13. The gates are 1-Lipschitz and the
# recurrent weights shrink what they carry, so neither the steps nor the
# tree's levels amplify that difference by much.
ROWWISE_ATOL = 1e-12


def _rowwise(x, wt, out):
    """out = x @ wt with every row of x multiplied on its own (a stacked
    matmul)."""
    import numpy as np

    np.matmul(x[..., None, :], wt, out=out[..., None, :])


def stack_inputs(x):
    """B sequences of T d-wide vectors, (B, T, d), in the layout
    hero.nn.gru_forward reads: (2, B * T + GEMM_ROWS - 1, d), direction 0's
    rows in (sequence, step) order, direction 1's with each sequence's steps
    reversed, then zeroed slack rows. Returns it with T."""
    import numpy as np

    from hero.nn import GEMM_ROWS

    x = np.asarray(x, dtype=np.float64)
    batch, steps, d = x.shape
    xs = np.zeros((2, batch * steps + GEMM_ROWS - 1, d))
    xs[0, :batch * steps] = x.reshape(-1, d)
    xs[1, :batch * steps] = x[:, ::-1].reshape(-1, d)
    return xs, steps


def gru_forward_rowwise(params, inputs, steps):
    """hero.nn.gru_forward as it was before its products ran as fixed-size
    GEMM blocks: one matrix-vector product per row. Its arithmetic is the
    kernel's except for the products' summation order, so the two agree to
    within rounding. Takes the kernel's direction-stacked inputs, and reads
    direction 0's rows only."""
    import numpy as np

    from hero.nn import GEMM_ROWS, GruTrace, ShapeMismatchError, _segments, sigmoid

    pad = GEMM_ROWS - 1
    if inputs.ndim != 3 or inputs.shape[0] != 2 or steps < 1 or (inputs.shape[1] - pad) % steps:
        raise ShapeMismatchError(f"inputs {inputs.shape} are not stacked sequences of {steps} steps")
    if inputs.shape[2] != params.input_dim:
        raise ShapeMismatchError(f"input width {inputs.shape[2]} != parameter width {params.input_dim}")
    batch, hd = (inputs.shape[1] - pad) // steps, params.hidden_dim
    x = inputs[0, :batch * steps].reshape(batch, steps, -1)
    segments = _segments(params, batch)
    # The input contributions do not depend on the recurrence. The buffer
    # holds pre-activations and is turned into [r, z, hhat] in place.
    gates = np.empty((2, batch, steps, 3 * hd))
    for w, _, rows in segments:
        for k, x_k in enumerate((x, x[:, ::-1])):
            _rowwise(x_k[rows], w[k].T, gates[k, rows])
    h = np.empty((2, batch, steps, hd))
    if steps > 1:
        # Per segment, U_rz^T and U_h^T of each direction, shaped to
        # broadcast over the rows of a (2, B, d/2) step; scratch for the
        # recurrent products and the gated state.
        recurrence = [(rows, u[:, :2 * hd].swapaxes(1, 2)[:, None], u[:, 2 * hd:].swapaxes(1, 2)[:, None])
                      for _, u, rows in segments]
        recurrent, gated = np.empty((2, batch, 2 * hd)), np.empty((2, batch, hd))
    for i in range(steps):
        a_rz, a_h, h_i = gates[:, :, i, :2 * hd], gates[:, :, i, 2 * hd:], h[:, :, i]
        h_prev = h[:, :, i - 1]
        if i:  # h_0 = 0, so the first step has no recurrent terms
            for rows, u_rz, _ in recurrence:
                _rowwise(h_prev[:, rows], u_rz, recurrent[:, rows])
            a_rz += recurrent
        r_i, z_i = sigmoid(a_rz, out=a_rz)[..., :hd], a_rz[..., hd:]
        if i:
            np.multiply(h_prev, r_i, out=gated)
            for rows, _, u_h in recurrence:
                _rowwise(gated[:, rows], u_h, recurrent[:, rows, :hd])
            a_h += recurrent[..., :hd]
        c_i = np.tanh(a_h, out=a_h)
        np.multiply(z_i, c_i, out=h_i)
        if i:  # h_i += (1 - z_i) * h_prev
            carry = np.subtract(1.0, z_i, out=gated)
            carry *= h_prev
            h_i += carry
    return GruTrace(gates[..., :hd], gates[..., hd:2 * hd], gates[..., 2 * hd:], h)


def init_reference(d, n_keys, rng, random_classifier):
    """hero.model.init_model's flat vector by its old per-matrix loop: key by
    key, the fwd then the bwd GRU, each its w (fan-in d) then its u (fan-in
    d/2) as one rng.uniform(-s, s, shape) with s = 1/sqrt(fan-in); then the
    classifier's w and b the same way at 1/sqrt(d), or zeros."""
    import numpy as np

    sw, su = 1 / math.sqrt(d), 1 / math.sqrt(d / 2)
    drawn = []
    for _ in range(2 * n_keys):
        drawn.append(rng.uniform(-sw, sw, (3 * d // 2, d)))
        drawn.append(rng.uniform(-su, su, (3 * d // 2, d // 2)))
    if random_classifier:
        drawn += [rng.uniform(-sw, sw, (2, d)), rng.uniform(-sw, sw, 2)]
    else:
        drawn.append(np.zeros(2 * d + 2))
    return np.concatenate([a.ravel() for a in drawn])


def _gru_mats(gru_params):
    return tuple(m.tolist() for m in gru_params.matrices())


def encode_reference(params, tree, table):
    """Recursive document encoder; must agree with hero.model.encode_document.

    Mirrors the contract only: bottom-up, each internal node is the mean over
    child positions of [forward GRU state (+) backward GRU state], with the
    mode-specific parameter choice, and ablations replace parts with plain
    word / EDU averaging.
    """
    from hero.ling_tree import NodeKind
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
            return DISCOURSE_KEY if child.kind in (NodeKind.RR, NodeKind.EDU) else SYNTAX_KEY
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


def compile_reference(trees, params):
    """One walk over all the trees of a chunk; must agree field by field with
    hero.model.compile_tree, which compiles each tree alone and merges.
    Consecutive trees compile into one schedule until their node rows reach
    CHUNK_ROWS; internal nodes of all the trees of a schedule group by
    (height, child count), then registry key, in first-seen order, and a
    stable sort by height orders the batches."""
    import numpy as np

    from hero.ling_tree import NodeKind
    from hero.model import (
        CHUNK_ROWS, UNK_RR, UNK_SYNTAX, _ABLATION_PLANS, Batch, Schedule, _aggregator_key,
    )

    gru_kinds, mean_kinds, doc_kind = _ABLATION_PLANS[params.ablation]
    pending = iter(trees)
    while True:
        height = []  # per row: a row is the node's place in the post-order walk
        groups = {}  # (height, child count) -> registry key -> (parent rows, child rows)
        words, means, documents, unk = [], [], [], []

        def visit(node, document):
            """Give the subtree's nodes the next free rows, children first;
            return the node's row and the rows of the words below it."""
            visited = [visit(child, document) for child in node.children]
            i = len(height)
            height.append(0)
            below = [w for _, rows in visited for w in rows]
            if node.kind is NodeKind.WORD:
                words.append(i)
                below = [i]
            elif node.kind in mean_kinds:
                means.append((i, below))
            if node.kind is doc_kind:
                document.append(i)
            if node.kind in gru_kinds:
                kids = [row for row, _ in visited]
                height[i] = 1 + max(height[c] for c in kids)
                key = _aggregator_key(params, node)
                unk[-1] += key in (UNK_SYNTAX, UNK_RR)
                parents, children = groups.setdefault((height[i], len(kids)), {}).setdefault(key, ([], []))
                parents.append(i)
                children.extend(kids)
            return i, below

        for tree in pending:
            unk.append(0)
            document = []
            visit(tree.root, document)
            if doc_kind is None:
                document = [len(height) - 1]
            documents.append(np.array(document, dtype=np.intp))
            if len(height) >= CHUNK_ROWS:
                break
        if not documents:
            return
        batches = []
        for (h, k), by_key in sorted(groups.items(), key=lambda group: group[0][0]):
            parents, children, rows = [], [], []
            for segment_parents, segment_children in by_key.values():
                rows.append(slice(len(parents), len(parents) + len(segment_parents)))
                parents += segment_parents
                children += segment_children
            batches.append(Batch(h, tuple(by_key), tuple(rows), np.array(parents, dtype=np.intp),
                                 np.array(children, dtype=np.intp).reshape(-1, k), h > 1))
        yield Schedule(len(height), np.array(words, dtype=np.intp), means, batches, documents, unk)


def parse_reference(text, doc_id=""):
    """The index-walking parse loop; must agree with hero.ling_tree.parse_sexpr
    on every input: the same tree node by node, or the same exception type
    and message. A node's kind comes from its label when it closes."""
    import sys

    from hero.ling_tree import (
        EmptyNodeError, KindViolationError, LingTree, NodeKind, TreeNode, UnbalancedParensError,
        _check_children, _kind_of_label, _tokenize,
    )

    tokens = [*map(sys.intern, _tokenize(text))]
    if not tokens:
        raise EmptyNodeError("empty input; expected one bracketed tree")
    # Each stack frame is [label, collected children].
    stack = []
    root = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if root is not None:
            raise UnbalancedParensError("content after the root node closes")
        if tok == "(":
            if i + 1 >= len(tokens) or tokens[i + 1] in "()":
                raise EmptyNodeError("'(' must be followed by a label")
            stack.append([tokens[i + 1], []])
            i += 2
        elif tok == ")":
            if not stack:
                raise UnbalancedParensError("unexpected ')'")
            label, children = stack.pop()
            if not children:
                raise EmptyNodeError(f"node {label!r} has no children")
            kind = _kind_of_label(label)
            kids = tuple(children)
            _check_children(label, kind, kids)
            node = TreeNode(label, kind, kids)
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
            i += 1
        else:
            if not stack:
                raise UnbalancedParensError(f"bare token {tok!r} outside any node")
            stack[-1][1].append(TreeNode(tok, NodeKind.WORD))
            i += 1
    if stack:
        raise UnbalancedParensError(f"{len(stack)} unclosed '('")
    if root.kind not in (NodeKind.RR, NodeKind.EDU):
        raise KindViolationError(
            f"root must be an RR or EDU node, got {root.kind.value} ({root.label!r})"
        )
    return LingTree(root, doc_id)


def tree_equal(a, b):
    """Structural equality: same labels, kinds and child shapes."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.label != y.label or x.kind is not y.kind or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


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


def corpus_report_reference(docs):
    """Per-row Welch report over tree_stats_reference; returns (CSV text,
    JSON text) that must equal hero.stats.corpus_report's byte for byte.

    Each document becomes one name -> value dict: the scalar statistics as
    floats, the four kind proportions, then its labels. A row lines one name
    up across the documents (a label missing from a tree counts 0) and runs
    Welch's test with the textbook sums; rows come scalars and kinds first,
    then labels sorted by name. Only the two-sided p-value is taken from
    hero.stats: t_two_sided_p has its own integration oracle.
    """
    import json

    from hero.stats import t_two_sided_p

    def numbers(tree):
        ref = tree_stats_reference(tree)
        out = {name: float(value) for name, value in ref.items() if not isinstance(value, dict)}
        for kind in ("RR", "EDU", "SYNTAX", "WORD"):
            out["kind_prop:" + kind] = ref["kind_proportions"][kind]
        for label, value in ref["label_proportions"].items():
            out["label_prop:" + label] = value
        return out

    def cell(value):
        if value is None:
            return ""
        text = value if isinstance(value, str) else repr(value)
        if any(c in text for c in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    fake = [numbers(doc.tree) for doc in docs if doc.y == 1]
    true = [numbers(doc.tree) for doc in docs if doc.y == 0]
    names = list(dict.fromkeys(name for row in fake + true for name in row))
    fixed = [name for name in names if not name.startswith("label_prop:")]
    labels = sorted(name for name in names if name.startswith("label_prop:"))
    rows = []
    for name in fixed + labels:
        a = [row.get(name, 0.0) for row in fake]
        b = [row.get(name, 0.0) for row in true]
        mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
        var_a = sum((v - mean_a) ** 2 for v in a) / (len(a) - 1)
        var_b = sum((v - mean_b) ** 2 for v in b) / (len(b) - 1)
        sa, sb = var_a / len(a), var_b / len(b)
        row = {"statistic": name, "fake_mean": mean_a, "true_mean": mean_b,
               "t": None, "dof": None, "p_value": None, "degenerate": sa + sb == 0.0}
        if not row["degenerate"]:
            row["t"] = (mean_a - mean_b) / math.sqrt(sa + sb)
            row["dof"] = (sa + sb) ** 2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
            row["p_value"] = t_two_sided_p(row["t"], row["dof"])
        rows.append(row)
    header = ("statistic", "fake_mean", "true_mean", "t", "dof", "p_value")
    lines = [",".join(header)] + [",".join(cell(row[key]) for key in header) for row in rows]
    return "".join(line + "\n" for line in lines), json.dumps(rows, sort_keys=True, indent=2)


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
