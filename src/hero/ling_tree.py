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
from dataclasses import dataclass
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


class Level(enum.Enum):
    DISCOURSE = "DISCOURSE"
    SYNTAX = "SYNTAX"


@dataclass(eq=False)
class TreeNode:
    """One vertex; ``children`` keeps document word order. Identity-hashed."""

    label: str
    kind: NodeKind
    children: tuple["TreeNode", ...] = ()

    @property
    def level(self) -> Level:
        if self.kind in (NodeKind.RR, NodeKind.EDU):
            return Level.DISCOURSE
        return Level.SYNTAX


@dataclass(eq=False)
class LingTree:
    root: TreeNode
    doc_id: str = ""


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


def parse_sexpr(text: str, doc_id: str = "") -> LingTree:
    """Parse one bracketed tree and validate its structure.

    Node kinds are inferred from labels ("EDU", nuclearity-prefixed RR
    labels, everything else syntax; bare tokens are words) and the level
    stratification is enforced while building.

    Raises UnbalancedParensError, EmptyNodeError, KindViolationError or
    UnknownRRPrefixError on bad input.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise EmptyNodeError("empty input; expected one bracketed tree")
    # Each stack frame is [label, collected children].
    stack: list[list] = []
    root: TreeNode | None = None
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
    assert root is not None
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
    rendered: dict[TreeNode, str] = {}
    for node in post_order(tree.root):
        if node.kind is NodeKind.WORD:
            rendered[node] = node.label
        else:
            inner = " ".join(rendered[c] for c in node.children)
            rendered[node] = f"({node.label} {inner})"
    return rendered[tree.root]


def leaf_words(tree: LingTree) -> list[str]:
    """The document's words, left to right."""
    return [n.label for n in iter_nodes(tree.root) if n.kind is NodeKind.WORD]


def edu_nodes(tree: LingTree) -> list[TreeNode]:
    """EDU nodes in document order."""
    return [n for n in iter_nodes(tree.root) if n.kind is NodeKind.EDU]


def tree_equal(a: TreeNode, b: TreeNode) -> bool:
    """Structural equality: same labels, kinds and child shapes."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.label != y.label or x.kind is not y.kind or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True
