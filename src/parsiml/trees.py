"""Unrooted leaf-labeled trees with explicit edge sets.

Leaves are the vertices 1..n and each leaf's label is its vertex id, so a
character vector is indexed by ``ch[v - 1]`` at leaf v; internal vertices use
ids n+1 and up. Every :class:`Tree` is a tree: construction refuses any
graph that is not one, so no kernel sees a malformed graph. Trees are
immutable after construction and every operation in this module is a pure
function, so concurrent use needs no coordination.

Canonical serialization: the tree is rooted at the internal vertex adjacent
to leaf 1 (for two leaves, at leaf 1 itself) and children are sorted
recursively by the smallest leaf in their subtree. Two trees describe the
same topology exactly when their canonical Newick strings match.

Every traversal is a postorder plan from one builder, :func:`_postorder`, the
only code that builds an adjacency: a :class:`Tree` stores its sorted edges
and their degree count. :meth:`Tree.rooted_plan` caches plans per anchor and
``parsimony.mp_search`` runs the builder once per search, on the 3-leaf star
as a bare edge list, and derives every later plan from its parent's. Both
exhaustive walks live here, over topologies and over a character's extensions.
"""

from __future__ import annotations

from collections import Counter

Edge = tuple[int, int]

DEFAULT_TOPOLOGY_CAP = 8
EXTENSION_CAP = 24  # internal vertices: 2^24 extensions


class NewickError(ValueError):
    """Malformed Newick input. ``position`` is the offending character index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class TopologyCapError(ValueError):
    """Enumeration request above the configured leaf cap."""


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


def _postorder(edges, anchor: int) -> tuple:
    """Postorder plan of the tree ``edges`` form, hanging from ``anchor``.

    Shaped as :meth:`Tree.rooted_plan` returns it, each child's edge given
    by its index in ``edges``. Neighbours are visited in edge order, so
    sorted edges give sorted neighbours. Raises ValueError on an anchor
    that is not a vertex, a cycle, or a vertex the walk cannot reach.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    if anchor not in adj:
        raise ValueError(f"anchor {anchor!r} is not a vertex of the tree")
    parent: dict[int, tuple[int, int] | None] = {anchor: None}
    preorder = []
    stack = [anchor]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for w, i in adj[v]:
            if w not in parent:
                parent[w] = (v, i)
                stack.append(w)
    if len(edges) != len(preorder) - 1:  # a cycle or an unreached part
        raise ValueError("the edges do not form one tree")
    children: dict[int, list] = {v: [] for v in preorder}
    for v in preorder[1:]:
        p, i = parent[v]
        children[p].append((v, i))
    return tuple((v, tuple(children[v])) for v in reversed(preorder))


class Tree:
    """An unrooted tree whose leaves are the vertices 1..n.

    Parameters
    ----------
    n : int
        Number of leaves. Vertex v in 1..n is the leaf labeled v; every
        other vertex is internal. Vertex ids must be positive.
    edges : iterable of (int, int)
        Undirected edges; orientation and order are irrelevant.

    Construction raises ValueError unless the edges form one tree whose
    leaves 1..n have degree 1 and whose internal vertices have degree >= 3.
    Leaf degrees are checked before the canonical :meth:`rooted_plan` walk
    (its anchor hangs off leaf 1), which refuses a cycle or a split graph.
    """

    __slots__ = ("n", "edges", "_degree", "_canonical", "_plans")

    def __init__(self, n: int, edges):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("leaf count must be positive")
        self.edges: tuple[Edge, ...] = tuple(sorted(
            _normalize_edge(int(u), int(v)) for u, v in edges))
        if not self.edges:
            raise ValueError("a tree needs at least one edge")
        for e, f in zip(self.edges, self.edges[1:]):
            if e == f:
                raise ValueError(f"duplicate edge {e}")
        if self.edges[0][0] < 1:  # the least id opens the first sorted edge
            raise ValueError(f"vertex id {self.edges[0][0]} is not positive")
        self._degree = dict(Counter(v for edge in self.edges for v in edge))
        for v in range(1, self.n + 1):  # before the walk, anchored at leaf 1
            degree = self._degree.get(v, 0)
            if degree != 1:
                raise ValueError(f"leaf {v} has degree {degree}, expected 1")
        self._canonical: str | None = None
        self._plans: dict = {}
        self.rooted_plan()  # refuses a cycle or a disconnected graph
        for v, degree in self._degree.items():
            if v > self.n and degree < 3:
                raise ValueError(f"internal degree-{degree} vertex {v}: "
                                 f"an internal vertex needs degree >= 3")

    # -- structure queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._degree)

    def degree(self, v: int) -> int:
        return self._degree[v]

    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self._degree if v > self.n))

    def canonical_root(self) -> int:
        """Vertex anchoring the canonical orientation: leaf 1's neighbour,
        which ends the first sorted edge (leaf 1 is the least vertex), or
        leaf 1 itself in the two-leaf tree, which has no internal vertex."""
        return 1 if self.n == 2 else self.edges[0][1]

    def rooted_plan(self, anchor: int | None = None):
        """Postorder traversal rooted at ``anchor``.

        Returns a tuple of ``(vertex, children)`` pairs in postorder, where
        ``children`` is a tuple of ``(child_vertex, edge_index)``. Cached per
        anchor; the plan is shared by the scoring and likelihood code.
        Raises ValueError on an anchor that is not a vertex.
        """
        if anchor is None:
            anchor = self.canonical_root()
        plan = self._plans.get(anchor)
        if plan is None:
            plan = self._plans[anchor] = _postorder(self.edges, anchor)
        return plan

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Tree({canonical_newick(self)!r})"


def canonical_newick(tree: Tree) -> str:
    """Serialize in canonical form (see the module docstring)."""
    if tree._canonical is not None:
        return tree._canonical
    if tree.n == 2:
        tree._canonical = "(1,2);"
        return tree._canonical
    # (smallest leaf, text) per vertex along the plan: no recursion depth
    sub: dict[int, tuple[int, str]] = {}
    for v, children in tree.rooted_plan():
        if v <= tree.n:
            sub[v] = (v, str(v))
            continue
        parts = sorted(sub[c] for c, _ in children)
        sub[v] = (parts[0][0], "(" + ",".join(p[1] for p in parts) + ")")
    text = sub[tree.canonical_root()][1] + ";"
    tree._canonical = text
    return text


def parse_newick(text: str) -> Tree:
    """Parse Newick text over integer labels into an unrooted tree.

    Labels must be exactly 1..n for n = number of leaves. A root written
    with two children (the usual serialization of an unrooted binary tree)
    is spliced away so no degree-2 vertex survives. Multifurcations are
    allowed anywhere. One pass with an explicit stack: depth is unbounded.
    """
    pos = 0
    end = len(text)

    def skip_ws():
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def fail(message: str):
        raise NewickError(message, pos)

    labels: list[int] = []
    # a leaf is its label (>= 0); the j-th group to close is -j, later n + j
    edges: list[Edge] = []
    open_groups: list[list[int]] = []
    groups = 0
    while True:
        skip_ws()
        if pos >= end:
            fail("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            open_groups.append([])
            continue
        start = pos
        while pos < end and text[pos].isdigit():
            pos += 1
        if pos == start:
            fail(f"expected a leaf label or '(', found {text[pos]!r}")
        node = int(text[start:pos])
        labels.append(node)
        while open_groups:
            open_groups[-1].append(node)
            skip_ws()
            if pos < end and text[pos] == ",":
                pos += 1
                break
            if pos >= end or text[pos] != ")":
                fail("expected ',' or ')'")
            pos += 1
            children = open_groups.pop()
            if len(children) < 2:
                fail("group with a single child")
            groups += 1
            node = -groups
            edges.extend((c, node) for c in children)
        else:
            break  # no group left open: the root is complete
    skip_ws()
    if pos >= end or text[pos] != ";":
        fail("expected ';'")
    pos += 1
    skip_ws()
    if pos != end:
        fail(f"trailing content after ';': {text[pos:].strip()!r}")
    if node >= 0:
        raise NewickError("a tree needs at least two leaves")

    n = len(labels)
    seen: set[int] = set()
    for lab in labels:
        if lab in seen:
            raise NewickError(f"duplicate leaf label {lab}")
        seen.add(lab)
    for lab in labels:
        if not 1 <= lab <= n:
            raise NewickError(f"unknown label {lab}: labels must be 1..{n}")

    if len(children) == 2:
        # splice the degree-2 root away; its two edges were added last
        edges[-2:] = [tuple(children)]
    return Tree(n, [(u if u > 0 else n - u, v if v > 0 else n - v)
                    for u, v in edges])


def enumerate_topologies(n: int, cap: int = DEFAULT_TOPOLOGY_CAP,
                         prune=None):
    """Yield every unrooted binary topology on leaves 1..n exactly once.

    Generation is by leaf insertion: each topology on 1..m extends to
    2m-3 topologies on 1..m+1 by subdividing an edge, and every topology
    arises from exactly one parent, so the stream is duplicate-free with
    (2n-5)!! trees in a deterministic order.

    ``prune``, when given, is called with the edge list of every tree on
    the way, partial (leaves 1..m, internal vertices n+1..n+m-2) or
    complete, before it is extended or yielded; a true return skips that
    tree and every tree grown from it. The lists grow in depth-first
    order, and every list after the first, the star on leaves 1..3 around
    n+1, ends with the tail (u, w), (w, v), (w, m): leaf m hangs from the
    new vertex w on the parent's edge (u, v), spelled as the parent spells
    it. The parent is the last tree on 1..m-1 that was not skipped.
    """
    if n < 3:
        raise ValueError("topology enumeration needs n >= 3")
    if n > cap:
        raise TopologyCapError(
            f"n={n} exceeds the enumeration cap ({cap}); "
            f"pass a larger cap explicitly to proceed")

    def grow(edges: list[Edge], next_leaf: int, next_internal: int):
        if prune is not None and prune(edges):
            return
        if next_leaf > n:
            yield Tree(n, edges)
            return
        for i in range(len(edges)):
            u, v = edges[i]
            w = next_internal
            grown = edges[:i] + edges[i + 1:] + [(u, w), (w, v), (w, next_leaf)]
            yield from grow(grown, next_leaf + 1, next_internal + 1)

    yield from grow([(1, n + 1), (2, n + 1), (3, n + 1)], 4, n + 2)


def _extensions(tree: Tree, ch, oracle: str):
    """Each of the 2^m states of the m internal vertices (vertex j, sorted,
    takes bit j of a count) beside the leaves' ``ch``, as one dict reused."""
    internal = tree.internal_vertices()
    if len(internal) > EXTENSION_CAP:
        raise ValueError(f"{len(internal)} internal vertices exceeds the "
                         f"{oracle} cap ({EXTENSION_CAP})")
    state = {v: ch[v - 1] for v in range(1, tree.n + 1)}
    slots = tuple(enumerate(internal))
    for bits in range(1 << len(internal)):
        for j, v in slots:
            state[v] = (bits >> j) & 1
        yield state


def topology_count(n: int) -> int:
    """(2n-5)!! for n >= 3: the number of unrooted binary topologies."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    count = 1
    for m in range(3, n + 1):
        count *= max(1, 2 * m - 5)
    return count
