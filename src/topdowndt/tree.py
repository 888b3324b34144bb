"""Persistent binary decision trees over boolean or thresholded real features.

Two tree flavors share one node representation:

  * binary mode: internal nodes query 1[x_i = +1]; no coordinate repeats
    along a root-to-leaf path.
  * real mode: internal nodes query 1[x_i >= theta]; coordinates may repeat
    with different thresholds.

Trees are immutable values.  split() returns a new tree sharing structure
with the old one, but it walks every leaf to find its target and
re-validates the whole result, so one call costs O(size).  Growth
therefore records its splits by node id instead (the root is 0, and step
i makes children 2i - 1 and 2i), and from_splits() assembles the labeled
tree from that record once, in one pass, validated once by the
DecisionTree constructor (grower.tree_at).
A PartialTree has unlabeled leaves; split() returns one.  leaf_views()
is the one walk that reads a binary-mode tree against a truth table;
distance() sums it, the distance of a PartialTree being that of its
f-completion (each leaf labeled by the majority of f on its subcube).

Every node knows its leaf count (Internal caches it outside the dataclass
fields), so size() is O(1) and path_of() recovers the preorder id of the
leaf it reaches in O(depth).

Size always means number of leaves.  Leaf ids are DFS preorder positions
(hi child before lo child), recomputed on the current tree; they are the
deterministic tie-breaking order used by the growers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterator, Sequence, Union

from .boolfn import BoolFunc, SubcubeView, derived_rng, from_dnf


@dataclass(frozen=True)
class Leaf:
    label: int | None = None
    _size: ClassVar[int] = 1

    def __post_init__(self):
        if self.label not in (None, 0, 1):
            raise ValueError(f"leaf label must be 0, 1, or None, got {self.label}")


@dataclass(frozen=True)
class Internal:
    coord: int
    theta: float | None
    hi: "Node"
    lo: "Node"

    def __post_init__(self):
        if self.coord < 1:
            raise ValueError(f"query coordinate must be >= 1, got {self.coord}")
        if self.theta != self.theta:  # NaN: x >= theta is false for every x
            raise ValueError("threshold must not be NaN")
        # leaf count of the subtree: not a field, so it stays out of eq, hash and repr
        object.__setattr__(self, "_size", self.hi._size + self.lo._size)


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class PathStep:
    """One edge on a root-to-leaf path: which query, which side was taken."""

    coord: int
    theta: float | None
    side: int  # +1 for the hi branch, -1 for lo

    def __post_init__(self):
        if self.side not in (-1, 1):
            raise ValueError("side must be -1 or +1")


@dataclass(frozen=True)
class LeafInfo:
    leaf_id: int
    path: tuple[PathStep, ...]
    node: Leaf

    @property
    def depth(self) -> int:
        return len(self.path)


def _check(root: Node, labeled: bool) -> None:
    """One walk: every leaf labeled (with labeled unset, none), one query
    mode, and no coordinate repeated on a binary-mode path."""
    mode = None
    stack: list[tuple[Node, tuple[int, ...]]] = [(root, ())]
    while stack:
        node, path_coords = stack.pop()
        if isinstance(node, Leaf):
            if labeled and node.label is None:
                raise ValueError("DecisionTree leaves must all be labeled")
            if not labeled and node.label is not None:
                raise ValueError("PartialTree leaves must be unlabeled")
            continue
        is_real = node.theta is not None
        if mode is None:
            mode = is_real
        elif mode != is_real:
            raise ValueError("tree mixes binary and thresholded queries")
        if not is_real and node.coord in path_coords:
            raise ValueError(f"coordinate {node.coord} repeats on a binary-mode path")
        path_coords += (node.coord,)
        stack.append((node.lo, path_coords))
        stack.append((node.hi, path_coords))


class _TreeBase:
    root: Node
    _labeled: ClassVar[bool]  # whether every leaf carries a label, or none does

    def __init__(self, root: Node):
        _check(root, self._labeled)
        object.__setattr__(self, "root", root)

    @property
    def is_real(self) -> bool:
        return isinstance(self.root, Internal) and self.root.theta is not None

    def __eq__(self, other):
        return type(self) is type(other) and self.root == other.root

    def __hash__(self):
        return hash((type(self).__name__, self.root))


class PartialTree(_TreeBase):
    """Tree whose leaves are unlabeled placeholders."""

    _labeled = False


class DecisionTree(_TreeBase):
    """Tree with every leaf labeled 0 or 1."""

    _labeled = True


Tree = Union[PartialTree, DecisionTree]


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def _walk_leaves(root: Node):
    stack: list[tuple[Node, tuple[PathStep, ...]]] = [(root, ())]
    leaf_id = 0
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            yield LeafInfo(leaf_id, path, node)
            leaf_id += 1
        else:
            # push lo first so the hi child pops first: preorder is hi-then-lo
            stack.append((node.lo, path + (PathStep(node.coord, node.theta, -1),)))
            stack.append((node.hi, path + (PathStep(node.coord, node.theta, +1),)))


def leaves(t: Tree) -> list[LeafInfo]:
    """All leaves in DFS preorder; index in this list is the leaf id."""
    return list(_walk_leaves(t.root))


def size(t: Tree) -> int:
    return t.root._size


def depth_and_coords(t: Tree) -> tuple[int, list[int]]:
    """t's depth and the sorted coordinates its internal nodes query, in one
    walk over the internal nodes."""
    depth, coords = 0, set()
    stack = [(t.root, 1)]  # (node, depth of the leaves just below it if it is internal)
    while stack:
        node, d = stack.pop()
        if isinstance(node, Internal):
            coords.add(node.coord)
            depth = max(depth, d)
            stack += ((node.hi, d + 1), (node.lo, d + 1))
    return depth, sorted(coords)


def path_of(t: Tree, x: Sequence) -> LeafInfo:
    """Walk the tree on input x and return the leaf reached, with its path."""
    node = t.root
    path: list[PathStep] = []
    leaf_id = 0
    while isinstance(node, Internal):
        v = x[node.coord - 1]
        if node.theta is None:
            side = 1 if v == 1 else -1
        else:
            side = 1 if v >= node.theta else -1
        path.append(PathStep(node.coord, node.theta, side))
        if side == 1:
            node = node.hi
        else:
            leaf_id += node.hi._size  # preorder visits the whole hi subtree first
            node = node.lo
    return LeafInfo(leaf_id, tuple(path), node)


def evaluate(t: DecisionTree, x: Sequence) -> int:
    node = t.root
    while isinstance(node, Internal):
        v = x[node.coord - 1]
        if node.theta is None:
            node = node.hi if v == 1 else node.lo
        else:
            node = node.hi if v >= node.theta else node.lo
    return node.label


# ---------------------------------------------------------------------------
# growth edits
# ---------------------------------------------------------------------------


def split(t: PartialTree, leaf_id: int, coord: int, theta: float | None = None) -> PartialTree:
    """Replace the identified leaf with a query node over two fresh leaves.

    Binary mode forbids re-querying a coordinate already on the leaf's path.
    A one-off edit: it costs O(size), so growth builds through from_splits.
    """
    infos = leaves(t)
    if not 0 <= leaf_id < len(infos):
        raise ValueError(f"no leaf with id {leaf_id} (tree has {len(infos)} leaves)")
    info = infos[leaf_id]
    if theta is None:
        for step in info.path:
            if step.coord == coord:
                raise ValueError(f"coordinate {coord} already queried on this path")
    replacement = Internal(coord, theta, Leaf(), Leaf())
    return PartialTree(_rebuild(t.root, info.path, replacement))


def _rebuild(node: Node, path: tuple[PathStep, ...], replacement: Node) -> Node:
    if not path:
        assert isinstance(node, Leaf)
        return replacement
    step, rest = path[0], path[1:]
    assert isinstance(node, Internal) and node.coord == step.coord
    if step.side == 1:
        return Internal(node.coord, node.theta, _rebuild(node.hi, rest, replacement), node.lo)
    return Internal(node.coord, node.theta, node.hi, _rebuild(node.lo, rest, replacement))


def from_splits(
    splits: Sequence[tuple[int, int, float | None]], labels: Sequence[int]
) -> DecisionTree:
    """The tree that splits grow from a single leaf, labeled node by node.

    Nodes are numbered as they are made: the root is 0, and splits[i - 1],
    step i's (node, coord, theta), turns that open node into a query over
    its hi child 2i - 1 and its lo child 2i.  labels[v] is node v's label,
    read where v stays a leaf.  One pass over the node ids builds the
    tree, and the DecisionTree constructor validates it once, rejecting a
    coordinate repeated on a binary path.
    """
    made = 2 * len(splits) + 1
    if len(labels) != made:
        raise ValueError(f"{len(splits)} splits make {made} nodes but {len(labels)} labels")
    queries: list = [None] * made  # queries[v]: (coord, theta, hi child) once v is split
    for i, (v, coord, theta) in enumerate(splits, start=1):
        if not 0 <= v < 2 * i - 1:
            raise ValueError(f"split {i} names node {v}, which is not made yet")
        if queries[v] is not None:
            raise ValueError(f"split {i} names node {v}, which is already split")
        queries[v] = (coord, theta, 2 * i - 1)

    # bottom-up in descending id, so no depth reaches the recursion limit:
    # the step i that splits v makes its children 2i - 1 and 2i, above v
    nodes: list = [None] * made
    for v in range(made - 1, -1, -1):
        q = queries[v]
        if q is None:
            nodes[v] = Leaf(labels[v])
        else:
            coord, theta, hi = q
            nodes[v] = Internal(coord, theta, nodes[hi], nodes[hi + 1])
    return DecisionTree(nodes[0])


# ---------------------------------------------------------------------------
# reading a tree against a truth table: exact distance, materialization
# ---------------------------------------------------------------------------


def leaf_views(t: Tree, f: BoolFunc) -> Iterator[tuple[Leaf, int, SubcubeView]]:
    """Yield (leaf, depth, view) for every leaf in DFS preorder, view being f
    on the leaf's subcube; one walk, one SubcubeView.split per internal node."""
    if t.is_real:
        raise ValueError("leaf views apply to binary-mode trees")
    stack: list[tuple[Node, int, SubcubeView]] = [(t.root, 0, SubcubeView.of_function(f))]
    while stack:
        node, d, view = stack.pop()
        if isinstance(node, Leaf):
            yield node, d, view
        else:
            if not 1 <= node.coord <= f.n:
                raise ValueError(f"coordinate {node.coord} out of range for arity {f.n}")
            hi, lo = view.split(node.coord)
            stack.append((node.lo, d + 1, lo))
            stack.append((node.hi, d + 1, hi))


def distance(g: Tree, f: BoolFunc) -> Fraction:
    """Pr[g(x) != f(x)] under uniform x, exactly.

    For a PartialTree this is the distance of its f-completion, i.e. the
    sum over leaves of 2^-depth * bias(f restricted to the leaf).
    """
    count = 0
    for leaf, _, view in leaf_views(g, f):
        if leaf.label is None:
            count += view.error_count()  # best-label error: the f-completion
        else:
            count += view.size - view.ones if leaf.label == 1 else view.ones
    return Fraction(count, 1 << f.n)


def to_boolfunc(g: DecisionTree, n: int) -> BoolFunc:
    """Materialize a binary-mode tree as a truth table on n coordinates: the
    OR of its 1-leaves' paths, each a term of signed literals."""
    if g.is_real:
        raise ValueError("to_boolfunc() applies to binary-mode trees")
    ones = [info.path for info in _walk_leaves(g.root) if info.node.label == 1]
    return from_dnf(n, [[s.coord * s.side for s in path] for path in ones])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _node_to_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"label": node.label}
    d = {"q": node.coord}
    if node.theta is not None:
        d["theta"] = node.theta
    d["hi"] = _node_to_json(node.hi)
    d["lo"] = _node_to_json(node.lo)
    return d


def to_json(t: Tree) -> dict:
    return _node_to_json(t.root)


def to_json_text(t: Tree) -> str:
    """json.dumps(to_json(t), indent=2, sort_keys=True), written without
    recursion, so a tree of any depth serializes: an internal node's keys
    sort as hi, lo, q, theta."""
    out = []
    stack: list = [(t.root, "")]  # (node, its indent) or text, popped in order
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, pad = item
        inner = pad + "  "
        if isinstance(node, Leaf):
            out.append(f'{{\n{inner}"label": {json.dumps(node.label)}\n{pad}}}')
            continue
        tail = f',\n{inner}"q": {json.dumps(node.coord)}'
        if node.theta is not None:
            tail += f',\n{inner}"theta": {json.dumps(node.theta)}'
        out.append(f'{{\n{inner}"hi": ')
        stack += (f"{tail}\n{pad}}}", (node.lo, inner), f',\n{inner}"lo": ', (node.hi, inner))
    return "".join(out)


# ---------------------------------------------------------------------------
# random monotone trees
# ---------------------------------------------------------------------------


def chain_tree(terms: Sequence[Sequence[int]]) -> DecisionTree:
    """Decision tree for an OR of ANDs of positive literals.

    Each term is tested coordinate by coordinate; a failed literal falls
    through to the remaining terms.  Coordinates already decided on the
    path are not re-tested, so paths stay repeat-free and terms sharing
    coordinates do not blow the tree up needlessly.
    """

    def build(idx: int, fixed: dict[int, int]) -> Node:
        if idx == len(terms):
            return Leaf(0)
        live = []
        for c in terms[idx]:
            v = fixed.get(c)
            if v == -1:
                return build(idx + 1, fixed)  # term already falsified
            if v != 1:
                live.append(c)
        if not live:
            return Leaf(1)  # term already satisfied

        def walk(pos: int, fx: dict[int, int]) -> Node:
            if pos == len(live):
                return Leaf(1)
            c = live[pos]
            return Internal(
                c,
                None,
                walk(pos + 1, {**fx, c: 1}),
                build(idx + 1, {**fx, c: -1}),
            )

        return walk(0, fixed)

    return DecisionTree(build(0, {}))


def random_monotone_tree(n: int, max_leaves: int, seed: int) -> DecisionTree:
    """Random monotone decision tree with at most max_leaves leaves.

    Samples a random positive DNF of 1 to 4 terms, each of width 1 to 4, and
    keeps its chain tree when the leaf count fits the budget; positive
    literals make the computed function monotone by construction.
    """
    if max_leaves < 2:
        raise ValueError(f"a chain tree has at least 2 leaves, got max_leaves={max_leaves}")
    rng = derived_rng(seed, "monotone-tree")
    while True:
        m = rng.randint(1, 4)
        terms = []
        for _ in range(m):
            width = rng.randint(1, min(4, n))
            terms.append(tuple(sorted(rng.sample(range(1, n + 1), width))))
        t = chain_tree(terms)
        if size(t) <= max_leaves:
            return t
