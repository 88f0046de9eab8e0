"""Minimum-flip (parsimony) scoring and exhaustive search for the best tree.

The score of a character on a tree is the smallest number of edges whose
endpoints differ, over all ways of assigning states to the internal
vertices. The fast path is a one-pass set rule; the brute-force path
enumerates every internal assignment and is kept as an independent oracle.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from parsiml.characters import Character, DataMatrix
from parsiml.trees import (DEFAULT_TOPOLOGY_CAP, Tree, canonical_newick,
                           enumerate_topologies)

BRUTE_FORCE_CAP = 24


def _check_length(tree: Tree, ch) -> Character:
    ch = tuple(int(s) for s in ch)
    if len(ch) != tree.n:
        raise ValueError(
            f"character has {len(ch)} states, tree has {tree.n} leaves")
    return ch


def fitch_score(tree: Tree, ch) -> int:
    """Minimum number of state flips for one character, exactly.

    Bottom-up over the tree anchored at the canonical root: each vertex keeps
    the set of states attained by the largest number of child subtrees, and
    pays one flip per child falling outside that majority. On binary trees
    this is the classical intersect-else-union rule; on multifurcations the
    majority count is what keeps the result equal to the true minimum.
    """
    ch = _check_length(tree, ch)
    if tree.n == 2:
        return int(ch[0] != ch[1])
    masks = {}
    cost = 0
    for v, children in tree.rooted_plan():
        if not children:
            masks[v] = 1 << ch[v - 1]
        else:
            zeros = ones = 0
            for c, _ in children:
                m = masks[c]
                zeros += m & 1
                ones += m >> 1
            best = zeros if zeros >= ones else ones
            cost += len(children) - best
            masks[v] = (1 if zeros == best else 0) | (2 if ones == best else 0)
    return cost


def brute_force_score(tree: Tree, ch, cap: int = BRUTE_FORCE_CAP) -> int:
    """Exact minimum by enumerating all 2^(internal vertices) extensions.

    Independent of :func:`fitch_score`; used to cross-check it.
    """
    ch = _check_length(tree, ch)
    internal = tree.internal_vertices()
    m = len(internal)
    if m > cap:
        raise ValueError(
            f"{m} internal vertices exceeds the brute-force cap ({cap})")
    state = {v: ch[v - 1] for v in range(1, tree.n + 1)}
    best = None
    for bits in range(1 << m):
        for j, v in enumerate(internal):
            state[v] = (bits >> j) & 1
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
    return sum(mult * fitch_score(tree, ch) for ch, mult in data.patterns)


def mp_search(data: DataMatrix, cap: int = DEFAULT_TOPOLOGY_CAP,
              n_jobs: int = 1) -> tuple[int, list[Tree]]:
    """Exhaustive minimum over all binary topologies.

    Returns the best score and every tree attaining it (scores are exact
    integers, so ties are exact), in canonical order.
    """
    topologies = list(enumerate_topologies(data.n, cap))
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            scores = list(pool.map(lambda t: parsimony_score(t, data), topologies))
    else:
        scores = [parsimony_score(t, data) for t in topologies]
    best = min(scores)
    optima = [t for t, s in zip(topologies, scores) if s == best]
    optima.sort(key=canonical_newick)
    return best, optima
