"""Minimum-flip (parsimony) scoring and exact search for the best tree.

The score of a character on a tree is the smallest number of edges whose
endpoints differ, over all ways of assigning states to the internal
vertices. The fast path runs one majority rule at every vertex, on every
pattern at once, bit j of a Python int standing for pattern j; the
brute-force path, kept as an independent oracle, is a minimum over
``trees._extensions``. Both take their characters through
``characters._check_character``. The fast path walks plans from
``trees._postorder``; the branch and bound plans only the 3-leaf star,
grafts each kept tree's plan from its parent's, and scores its children
from one flat pass of flip masks, weighed past a popcount cut.
"""

from __future__ import annotations

from parsiml.characters import DataMatrix, _check_character
from parsiml.trees import (DEFAULT_TOPOLOGY_CAP, Tree, _extensions,
                           _postorder, canonical_newick, enumerate_topologies)


class _PatternMasks:
    """The patterns of a matrix over n leaves as bitmasks, bit j for pattern j.

    ``ones[v]`` (``zeros[v]``) holds the patterns with state 1 (0) at leaf
    v. Multiplicities are bit-sliced: ``slices`` pairs each bit position b
    with the patterns whose multiplicity has bit b set, so the weight of a
    set of patterns is the sum of popcount(mask & slice) << b, an exact
    integer whatever its size.
    """

    __slots__ = ("n", "full", "zeros", "ones", "slices")

    def __init__(self, n: int, patterns):
        self.n = n
        self.full = (1 << len(patterns)) - 1
        self.ones = [0] * (n + 1)
        for j, (ch, _) in enumerate(patterns):
            for v, s in enumerate(ch, 1):
                if s:
                    self.ones[v] |= 1 << j
        self.zeros = [self.full & ~m for m in self.ones]
        mults = [int(m) for _, m in patterns]
        self.slices = []
        for b in range(max(mults, default=0).bit_length()):
            mask = sum(1 << j for j, m in enumerate(mults) if m >> b & 1)
            if mask:
                self.slices.append((b, mask))

    def weight(self, mask: int) -> int:
        """Summed multiplicity of the patterns in ``mask``."""
        return sum((mask & s).bit_count() << b for b, s in self.slices)

    def score(self, plan) -> int:
        """Weighted flip score of a tree along a postorder ``plan``."""
        return sum(map(self.weight, self.misses(plan)))

    def insertion_masks(self, plan, leaf: int) -> dict:
        """Per edge of a binary tree, keyed as the plan's child slots carry
        it, the patterns that pay one more flip once ``leaf`` hangs there.

        ``plan`` is the tree's postorder from leaf 1. Down, each vertex c
        gets the Fitch set D_c of its subtree; up, the set A_c of the rest of
        the tree, in lists indexed by vertex id (< 2n). A new vertex on c's
        edge pays a flip where the leaf's state is outside S = D_c & A_c, or
        D_c | A_c where they are disjoint: where S is one state (both0 ^
        both1), not the leaf's (both1 ^ its 1s).
        """
        full, zeros, ones = self.full, self.zeros, self.ones
        down0, down1 = zeros + [0] * self.n, ones + [0] * self.n
        up0, up1 = [0] * len(down0), [0] * len(down0)
        for v, children in plan[:-1]:
            if children:
                (c, _), (d, _) = children
                both0, both1 = down0[c] & down0[d], down1[c] & down1[d]
                miss = full ^ (both0 | both1)
                down0[v], down1[v] = both0 | miss, both1 | miss
        lone = ones[leaf]
        (top, edge), = plan[-1][1]
        up0[top], up1[top] = zeros[1], ones[1]
        both0, both1 = down0[top] & zeros[1], down1[top] & ones[1]
        masks = {edge: (both0 ^ both1) & (both1 ^ lone)}
        for v, children in plan[-2::-1]:
            if children:
                a0, a1 = up0[v], up1[v]
                for (c, edge), (d, _) in (children, children[::-1]):
                    both0, both1 = down0[d] & a0, down1[d] & a1
                    miss = full ^ (both0 | both1)
                    up0[c] = s0 = both0 | miss
                    up1[c] = s1 = both1 | miss
                    both0, both1 = down0[c] & s0, down1[c] & s1
                    masks[edge] = (both0 ^ both1) & (both1 ^ lone)
        return masks

    def misses(self, plan) -> list[int]:
        """Masks of the patterns paying a flip, one mask per flip paid.

        The majority rule of :func:`fitch_score` on every pattern at once.
        ``plan`` is shaped like :meth:`Tree.rooted_plan`: (vertex, children)
        pairs, children first, each child a (vertex, edge) pair whose edge
        slot is not read. The tree may be partial: its leaves are whichever
        of 1..n it holds. A leaf hangs one child at most, so with its own
        state as one more set a leaf root counts exactly as any vertex.
        """
        full, n, zeros, ones = self.full, self.n, self.zeros, self.ones
        sets: dict[int, tuple[int, int]] = {}
        misses = []  # each mask pays one flip per pattern in it
        for v, children in plan:
            if not children:
                sets[v] = (zeros[v], ones[v])
                continue
            kids = [sets[c] for c, _ in children]
            if v <= n:
                kids.append((zeros[v], ones[v]))
            # at_s[t]: the patterns where at least t sets hold s
            at0 = [full]
            at1 = [full]
            for k0, k1 in kids:
                at0.append(0)
                at1.append(0)
                for t in range(len(at0) - 1, 0, -1):
                    at0[t] |= at0[t - 1] & k0
                    at1[t] |= at1[t - 1] & k1
            lose0 = at1[1] & ~at0[1]
            lose1 = at0[1] & ~at1[1]
            for t in range(2, len(at0)):
                misses.append(full & ~(at0[t] | at1[t]))
                lose0 |= at1[t] & ~at0[t]
                lose1 |= at0[t] & ~at1[t]
            sets[v] = (full & ~lose0, full & ~lose1)
        return misses


def fitch_score(tree: Tree, ch) -> int:
    """Minimum number of state flips for one character, exactly.

    Bottom-up from the canonical root, one majority rule (Hartigan 1973) at
    every vertex: it keeps the states held by the most of its sets, its
    children's and, at a leaf, its own state, and pays a flip per set
    outside that majority. With two sets this is Fitch's intersect-else-union
    rule; with more, the count keeps the result the true minimum.
    """
    return pattern_scores(tree, [ch])[0]


def pattern_scores(tree: Tree, patterns) -> list[int]:
    """:func:`fitch_score` of every pattern, from one bitmask pass."""
    patterns = [(_check_character(ch, tree.n), 1) for ch in patterns]
    misses = _PatternMasks(tree.n, patterns).misses(tree.rooted_plan())
    return [sum(m >> j & 1 for m in misses) for j in range(len(patterns))]


def brute_force_score(tree: Tree, ch) -> int:
    """Exact minimum over all 2^(internal vertices) extensions, independent
    of :func:`fitch_score` and used to cross-check it."""
    ch = _check_character(ch, tree.n)
    best = None
    for state in _extensions(tree, ch, "brute-force"):
        flips = 0
        for u, v in tree.edges:
            if state[u] != state[v]:
                flips += 1
        if best is None or flips < best:
            best = flips
    return best


def parsimony_score(tree: Tree, data: DataMatrix) -> int:
    """Multiplicity-weighted flip count of a whole matrix on one tree."""
    if data.n != tree.n:
        raise ValueError(f"matrix has {data.n} leaves, tree has {tree.n}")
    return _PatternMasks(data.n, data.patterns).score(tree.rooted_plan())


def _edge_plan(edges) -> tuple:
    """The postorder of the tree ``edges`` form, hanging from leaf 1, with
    each child slot carrying its edge as ``edges`` spells it."""
    return tuple((v, tuple((c, edges[i]) for c, i in children))
                 for v, children in _postorder(edges, 1))


def _graft(plan, edge, w: int, leaf: int) -> list:
    """``plan`` with ``leaf`` hung from a new vertex w on ``edge`` (u, v):
    w takes the child's slot and holds the child and the leaf, along edges
    spelled (u, w), (w, v) and (w, leaf) as the grower spells them."""
    u, v = edge
    for at, (p, children) in enumerate(plan):
        for i, (c, e) in enumerate(children):
            if e == edge:
                above, below = ((u, w), (w, v)) if p == u else ((w, v), (u, w))
                children = children[:i] + ((w, above),) + children[i + 1:]
                return [*plan[:at], (leaf, ()),
                        (w, ((c, below), (leaf, (w, leaf)))),
                        (p, children), *plan[at + 1:]]


def mp_search(data: DataMatrix,
              cap: int = DEFAULT_TOPOLOGY_CAP) -> tuple[int, list[Tree]]:
    """Exact minimum over all binary topologies, by branch and bound.

    Trees grow by leaf insertion in the order of :func:`enumerate_topologies`
    (Hendy & Penny 1982). Adding a leaf never lowers the flip score, so a
    partial tree on leaves 1..m scoring above the best complete tree so far
    has no optimal completion and is cut; one that ties is kept, so every
    optimum is found. The first incumbent is greedy: each leaf after the
    3-leaf star goes on its cheapest edge. A kept partial tree is also cut
    when its score plus the least price of leaf m+1 exceeds the incumbent,
    since every completion holds one of its children. Only the star is
    planned from scratch: a kept partial tree's plan is its parent's with
    one edge subdivided, one flat pass masks the patterns leaf m+1 makes
    pay a flip on each edge, and a child scores its parent's plus its edge's
    weight; the look-ahead weighs only trees the least popcount, a lower
    bound (multiplicities are >= 1), keeps. Returns the best score and every
    tree attaining it (exact integers, so ties are exact), in canonical order.
    """
    n = data.n
    masks = _PatternMasks(n, data.patterns)
    best = scored = 0
    # per leaf count m < n: the score of the last partial tree on 1..m to
    # survive, its plan, and what inserting leaf m+1 on each edge adds
    parents: dict[int, tuple] = {}

    def bound(edges) -> bool:
        nonlocal best, scored
        m = (len(edges) + 3) // 2
        if m == 3:  # the star, handed over once the grower accepted n
            plan = _edge_plan(edges)
            scored = best = masks.score(plan)
            greedy = plan
            for leaf in range(4, n + 1):
                flips = masks.insertion_masks(greedy, leaf)
                # the cheapest edge, ties going to the first in plan order
                edge = min((e for _, kids in greedy for _, e in kids),
                           key=lambda e: masks.weight(flips[e]))
                best += masks.weight(flips[edge])
                greedy = _graft(greedy, edge, n + leaf - 2, leaf)
        else:
            # the grower's tail (u,w),(w,v),(w,m) subdivided the parent's
            # edge (u,v): a child is scored from its parent, and planned
            # from it only if it may grow
            (u, w), (_, v), _ = edges[-3:]
            parent, plan, costs = parents[m - 1]
            scored = parent + costs[u, v]
            if scored > best:
                return True
            if m < n:
                plan = _graft(plan, (u, v), w, m)
        if m < n:
            flips = masks.insertion_masks(plan, m + 1)
            if scored + min(map(int.bit_count, flips.values())) > best:
                return True
            costs = {e: masks.weight(mask) for e, mask in flips.items()}
            if scored + min(costs.values()) > best:
                return True
            parents[m] = scored, plan, costs
        return False

    optima: list[Tree] = []
    for tree in enumerate_topologies(n, cap, prune=bound):
        # ``scored`` is the score of this complete tree, never above
        # ``best``: the generator bounds each tree right before it yields it
        if scored < best:
            best, optima = scored, []
        optima.append(tree)
    optima.sort(key=canonical_newick)
    return best, optima
