"""Hierarchical linguistic trees and their bracketed s-expression format.

A document tree stacks two levels. Rhetorical-relation (RR) nodes and EDU
nodes form the discourse level; constituency labels (POS and phrase tags)
with word leaves form the syntax level below each EDU. Example::

    (NS-elaboration (EDU (S (NP (NNP Obama)) (VP (VBD spoke))))
                    (EDU (S (NP (PRP He)) (VP (VBD left)))))

Nodes are written ``( LABEL child ... )``; a bare token is a word leaf.
``-LRB-`` / ``-RRB-`` are the conventional stand-ins for literal parentheses
inside tokens and are kept verbatim, so serialization round-trips exactly.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field
from typing import Iterator

EDU_LABEL = "EDU"
RR_PREFIXES = ("NN-", "NS-", "SN-")
_NUCLEARITY = frozenset("NS")


class TreeError(ValueError):
    """Malformed s-expression input or an invalid tree structure."""


class UnbalancedParensError(TreeError):
    pass


class EmptyNodeError(TreeError):
    pass


class KindViolationError(TreeError):
    pass


class UnknownRRPrefixError(TreeError):
    pass


class NodeKind(enum.Enum):
    RR = "RR"
    EDU = "EDU"
    SYNTAX = "SYNTAX"
    WORD = "WORD"


@dataclass(eq=False, slots=True)
class TreeNode:
    """One vertex; ``children`` keeps document word order. Identity-hashed.

    Slotted, so a node carries no ``__dict__``; parse_sexpr interns every
    label, so nodes with the same label share one string, and it gives every
    occurrence of a word one shared leaf (see _WORDS). So no code changes a
    built node, and a tree may hold one leaf at several places: a node's row
    in a walk is its position in that walk, never its identity."""

    label: str
    kind: NodeKind
    children: tuple["TreeNode", ...] = ()


@dataclass(eq=False, slots=True)
class LingTree:
    root: TreeNode
    doc_id: str = ""
    # hero.model.compile_tree's (routing, schedule); no code changes a built tree.
    compiled: tuple | None = field(default=None, init=False, repr=False)


# Which child kinds each internal kind may carry.
_ALLOWED_CHILDREN = {
    NodeKind.RR: (NodeKind.RR, NodeKind.EDU),
    NodeKind.EDU: (NodeKind.SYNTAX,),
    NodeKind.SYNTAX: (NodeKind.SYNTAX, NodeKind.WORD),
}


def _kind_of_label(label: str) -> NodeKind:
    """Classify an internal-node label. RR labels carry a nuclearity prefix."""
    if label == EDU_LABEL:
        return NodeKind.EDU
    if label.startswith(RR_PREFIXES):
        return NodeKind.RR
    # A nuclearity-looking prefix that is not NN/NS/SN (i.e. SS-) is a typo in
    # the relation label, not a constituency tag.
    if len(label) > 2 and label[2] == "-" and set(label[:2]) <= _NUCLEARITY:
        raise UnknownRRPrefixError(
            f"label {label!r} has nuclearity-like prefix {label[:3]!r}; "
            "expected one of NN-, NS-, SN-"
        )
    return NodeKind.SYNTAX


def _check_children(label: str, kind: NodeKind, children: tuple[TreeNode, ...]) -> None:
    allowed = _ALLOWED_CHILDREN[kind]
    for child in children:
        if child.kind not in allowed:
            raise KindViolationError(
                f"{kind.value} node {label!r} cannot have a "
                f"{child.kind.value} child ({child.label!r})"
            )


# A token is a parenthesis or a maximal run of anything else but whitespace.
_tokenize = re.compile(r"[()]|[^\s()]+").findall


# label -> (kind, the child kinds it allows), filled by _classify as labels
# are first met; capped, so a corpus of made-up labels cannot grow it forever.
_LABELS: dict[str, tuple[NodeKind, tuple[NodeKind, ...]]] = {}
_LABELS_MAX = 4096


def _classify(label: str) -> tuple[NodeKind, tuple[NodeKind, ...]]:
    kind = _kind_of_label(label)
    entry = kind, _ALLOWED_CHILDREN[kind]
    if len(_LABELS) < _LABELS_MAX:
        _LABELS[label] = entry
    return entry


# word -> the one leaf all its occurrences share, filled by _leaf as words are
# first met; capped like _LABELS, and a word past the cap gets a fresh leaf
# for each occurrence.
_WORDS: dict[str, TreeNode] = {}
_WORDS_MAX = 1 << 15


def _leaf(word: str) -> TreeNode:
    leaf = TreeNode(word, NodeKind.WORD)
    if len(_WORDS) < _WORDS_MAX:
        _WORDS[word] = leaf
    return leaf


def parse_sexpr(text: str, doc_id: str = "") -> LingTree:
    """Parse one bracketed tree and validate its structure.

    Node kinds are inferred from labels ("EDU", nuclearity-prefixed RR
    labels, everything else syntax; bare tokens are words) and the level
    stratification is enforced while building. Every label and word is
    passed through sys.intern, so a token repeated within a document or
    across documents is held as one string, and a word's occurrences share
    one leaf node.

    Raises UnbalancedParensError, EmptyNodeError, KindViolationError or
    UnknownRRPrefixError on bad input.
    """
    tokens = map(sys.intern, _tokenize(text))
    known = _LABELS.get
    shared = _WORDS.get
    # The open node's label and children; the stack holds those of the nodes
    # around it, and (None, None) stands for outside the root.
    label, kids = None, None
    stack: list[tuple] = []
    root: TreeNode | None = None
    for tok in tokens:
        if tok == "(":
            stack.append((label, kids))
            label, kids = next(tokens, ")"), []  # a missing label reads as ")"
            if label == "(" or label == ")":
                raise EmptyNodeError("'(' must be followed by a label")
        elif tok == ")":
            if kids is None:
                raise UnbalancedParensError("unexpected ')'")
            if not kids:
                raise EmptyNodeError(f"node {label!r} has no children")
            kind, allowed = known(label) or _classify(label)
            for child in kids:
                if child.kind not in allowed:  # raises for the first such child
                    _check_children(label, kind, kids)
            node = TreeNode(label, kind, tuple(kids))
            label, kids = stack.pop()
            if kids is None:
                root = node
                break
            kids.append(node)
        elif kids is None:
            raise UnbalancedParensError(f"bare token {tok!r} outside any node")
        else:
            kids.append(shared(tok) or _leaf(tok))
    if root is None:
        if kids is None:
            raise EmptyNodeError("empty input; expected one bracketed tree")
        raise UnbalancedParensError(f"{len(stack)} unclosed '('")
    if next(tokens, None) is not None:
        raise UnbalancedParensError("content after the root node closes")
    if root.kind not in (NodeKind.RR, NodeKind.EDU):
        raise KindViolationError(
            f"root must be an RR or EDU node, got {root.kind.value} ({root.label!r})"
        )
    return LingTree(root, doc_id)


def validate_tree(tree: LingTree) -> None:
    """Re-check all structural invariants of a programmatically built tree."""
    if tree.root.kind not in (NodeKind.RR, NodeKind.EDU):
        raise KindViolationError(f"root must be RR or EDU, got {tree.root.kind.value}")
    for node in iter_nodes(tree.root):
        if node.kind is NodeKind.WORD:
            if node.children:
                raise KindViolationError(f"word leaf {node.label!r} has children")
            continue
        if not node.children:
            raise EmptyNodeError(f"{node.kind.value} node {node.label!r} has no children")
        if _kind_of_label(node.label) is not node.kind:
            raise KindViolationError(
                f"label {node.label!r} does not match kind {node.kind.value}"
            )
        _check_children(node.label, node.kind, node.children)


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Pre-order traversal, children left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def post_order(root: TreeNode) -> list[TreeNode]:
    """All nodes with every child listed before its parent."""
    out: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


def serialize_sexpr(tree: LingTree) -> str:
    """Canonical single-space bracketed form; inverse of parse_sexpr."""
    done: list[str] = []  # the rendered subtrees whose parent the walk has not reached
    for node in post_order(tree.root):
        if node.kind is NodeKind.WORD:
            done.append(node.label)
        else:
            cut = len(done) - len(node.children)
            inner = " ".join(done[cut:])
            del done[cut:]
            done.append(f"({node.label} {inner})")
    return done[0]


def leaf_words(tree: LingTree) -> list[str]:
    """The document's words, left to right."""
    return [n.label for n in iter_nodes(tree.root) if n.kind is NodeKind.WORD]
