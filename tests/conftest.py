import math
import random
from fractions import Fraction

import numpy as np
import pytest

from parsiml import DataMatrix, Tree, parse_newick
from parsiml.characters import _check_character
from parsiml.likelihood import _pattern_logs


@pytest.fixture
def quartet():
    """The 12|34 split on four leaves."""
    return parse_newick("((1,2),(3,4));")


@pytest.fixture
def two_leaf():
    return parse_newick("(1,2);")


@pytest.fixture
def quartet_matrix():
    """Two characters whose best trees tie: 12|34 scores 1+2, 13|24 scores 2+1."""
    return DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 1, 0, 1)])


def caterpillar(n: int) -> Tree:
    """The maximally unbalanced binary topology on leaves 1..n (n >= 4)."""
    internal = list(range(n + 1, 2 * n - 1))
    edges = [(1, internal[0]), (2, internal[0])]
    for idx in range(1, len(internal)):
        edges.append((internal[idx - 1], internal[idx]))
        edges.append((idx + 2, internal[idx]))
    edges.append((internal[-1], n))
    return Tree(n, edges)


def complement(ch):
    """Flip every state; both scores are invariant under it."""
    return tuple(1 - s for s in ch)


def is_binary(tree: Tree) -> bool:
    """True when every internal vertex has degree exactly 3."""
    return all(tree.degree(v) == 3 for v in tree.internal_vertices())


def pattern_log_likelihoods(tree: Tree, probs, patterns) -> list[float]:
    """ln f of each pattern at one edge vector, through the library's one
    path to ln f; -inf only for a pattern some p_e = 0 rules out."""
    patterns = [_check_character(ch, tree.n) for ch in patterns]
    return next(_pattern_logs(tree, [probs.vector(tree)], patterns))


def all_characters(n: int):
    """Every binary character on n leaves, in numeric order."""
    for bits in range(1 << n):
        yield tuple((bits >> i) & 1 for i in range(n))


def exact_cost(tree: Tree, vec, data: DataMatrix) -> float:
    """-sum of N_chi ln f_chi from the likelihood DP in exact rationals.

    Each float p is m / 2^e, so with D the largest such denominator every
    edge factor is an integer over D and each pattern value an exact
    Fraction. Only the final logarithm rounds: log1p of f - 1 near f = 1,
    log of numerator minus log of denominator elsewhere.
    """
    fracs = [Fraction(p) for p in vec]
    den = max(f.denominator for f in fracs)
    flip = [f.numerator * (den // f.denominator) for f in fracs]
    plan = tree.rooted_plan()
    root = plan[-1][0]
    total = 0.0
    for ch, mult in data.patterns:
        down = {}
        for v, children in plan:
            if not children:
                down[v] = (1 - ch[v - 1], ch[v - 1])
                continue
            like0 = like1 = 1
            for c, ei in children:
                c0, c1 = down[c]
                p, stay = flip[ei], den - flip[ei]
                like0 *= stay * c0 + p * c1
                like1 *= p * c0 + stay * c1
            down[v] = (like0, like1)
        f = Fraction(sum(down[root]), den ** len(vec))
        if f == 0:
            return math.inf
        if f > Fraction(1, 2):
            ln_f = math.log1p(f - 1)
        else:
            ln_f = math.log(f.numerator) - math.log(f.denominator)
        total -= mult * ln_f
    return total


def random_tree(n: int, seed: int) -> Tree:
    """A seeded binary tree on leaves 1..n, grown by random leaf insertion."""
    if n == 2:
        return Tree(2, [(1, 2)])
    rng = random.Random(seed)
    edges = [(1, n + 1), (2, n + 1), (3, n + 1)]
    for leaf, mid in zip(range(4, n + 1), range(n + 2, 2 * n - 1)):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, mid), (mid, v), (leaf, mid)]
    return Tree(n, edges)


def scalar_pattern_value(plan, vec, ch) -> float:
    """One pattern's likelihood by the plain scalar recursion.

    The reference the batched ``likelihood.pattern_values`` must match bit
    for bit: the same operations in the same order, one float at a time.
    """
    down = {}
    root = plan[-1][0]
    for v, children in plan:
        if not children:
            down[v] = (1.0, 0.0) if ch[v - 1] == 0 else (0.0, 1.0)
            continue
        like0 = like1 = 1.0
        for c, ei in children:
            c0, c1 = down[c]
            p = vec[ei]
            stay = 1.0 - p
            like0 *= stay * c0 + p * c1
            like1 *= p * c0 + stay * c1
        down[v] = (like0, like1)
    like0, like1 = down[root]
    if root <= len(ch):
        return like0 if ch[root - 1] == 0 else like1
    return like0 + like1


def reference_rooted_plan(tree: Tree, anchor: int):
    """Postorder plan by the stack walk ``Tree.rooted_plan`` first used.

    The reference the shared traversal builder must reproduce exactly:
    vertex order, child order and edge indices.
    """
    neighbors = {}
    for u, v in tree.edges:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    parent = {anchor: None}
    preorder = []
    stack = [anchor]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for w in sorted(neighbors[v]):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    children = {v: [] for v in preorder}
    for v in preorder:
        p = parent[v]
        if p is not None:
            children[p].append((v, tree.edges.index((min(p, v), max(p, v)))))
    return tuple((v, tuple(children[v])) for v in reversed(preorder))


def fourier_pattern_values(tree: Tree, vec) -> np.ndarray:
    """Every pattern's likelihood by Hadamard conjugation, a second oracle.

    With theta_e = 1 - 2 p_e, f(chi) = 2^(1-n) times the sum over leaf sets
    A of even size of (-1)^|chi & A| times the product of theta_e over the
    edges e whose split parts A oddly (Hendy & Penny 1989; Szekely, Steel &
    Erdos 1993). One Walsh-Hadamard transform gives all 2^n values, entry
    sum(ch[i] << i) for pattern ch, so the order is ``all_characters``'.
    It reads only the splits of ``tree.edges``: no plan, no DP. The signed
    sum cancels for small f, so compare it where f is moderate.
    """
    n = tree.n
    neighbors = {}
    for u, v in tree.edges:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    size = 1 << n
    parity = np.zeros(size, dtype=np.uint8)
    for bit in range(n):
        parity[1 << bit:2 << bit] = parity[:1 << bit] ^ 1
    masks = np.arange(size)
    spectrum = (parity == 0).astype(float)  # A of odd size weighs nothing
    for (u, v), p in zip(tree.edges, vec):
        split, seen, stack = 0, {u, v}, [v]  # the leaves on v's side
        while stack:
            w = stack.pop()
            if w <= n:
                split |= 1 << (w - 1)
            for x in neighbors[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        spectrum *= np.where(parity[masks & split], 1.0 - 2.0 * p, 1.0)
    half = 1
    while half < size:
        pairs = spectrum.reshape(-1, 2, half)
        pairs[:] = np.stack((pairs[:, 0] + pairs[:, 1],
                             pairs[:, 0] - pairs[:, 1]), axis=1)
        half *= 2
    return spectrum * 2.0 ** (1 - n)
