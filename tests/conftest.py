import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from parsiml import DataMatrix, Tree, parse_newick
from parsiml.characters import _check_character
from parsiml.likelihood import _pattern_logs, modified_logliks
from parsiml.mlopt import _INV_GOLDEN, SCALAR_TOL
from parsiml.reduction import normalized_costs


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


def normalized_cost(tree: Tree, probs, padded) -> float:
    """The library's normalized cost at one ``EdgeProbs``: the padded
    dataset cost divided by ln(k + N_c); >= 0, +inf propagates."""
    return next(normalized_costs(tree, [probs.vector(tree)], padded))


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


def cost(weights, at0, at1, x: float) -> float:
    """-sum of w * ln((1-x) f0 + x f1) over aligned weights and values.

    The edge optimizer's 1-D objective, given the pattern values at p_e = 0
    and p_e = 1 and a trial x. It sums as :func:`modified_logliks` does, so
    at x = 0, with no value below the normal range, the two agree bit for
    bit. Any zero blended value makes the cost +inf. With
    :func:`golden_section_minimize` it is the reference
    ``mlopt._edge_solve`` must match bit for bit.
    """
    stay = 1.0 - x
    total = 0.0
    for w, f0, f1 in zip(weights, at0, at1):
        f = stay * f0 + x * f1
        if f <= 0.0:
            return math.inf
        total -= w * math.log(f)
    # roundoff guard: each value is <= 1 exactly, so the true total is
    # non-negative
    return total if total > 0.0 else 0.0


def golden_section_minimize(f, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal-ish scalar on [lo, hi] without derivatives.

    The endpoints are evaluated explicitly so boundary minima come out
    exact (p = 0 and p = 1/2 matter here), and the returned point is the
    best ever evaluated, not the midpoint of the final bracket.
    """
    a, b = float(lo), float(hi)
    span = b - a
    x1 = b - _INV_GOLDEN * span
    x2 = a + _INV_GOLDEN * span
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > SCALAR_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    for x in (lo, hi):
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def reference_edge_solve(weights, at0, at1) -> tuple[float, float]:
    """The 1-D edge solve as the reference computes it."""
    return golden_section_minimize(lambda t: cost(weights, at0, at1, t),
                                   0.0, 0.5)


def grid_minimum(tree: Tree, data: DataMatrix):
    """Best cost on a product grid over [0, 1/2]^edges, then refined.

    Steps 1/8, then 1/64 and 1/512 on a box of one old step around the
    incumbent. Exponential in the edge count; meant for at most five edges.
    The optimizer's oracle on small instances.
    """
    n_edges = len(tree.edges)

    def sweep(axes):
        best_vec, best_val = None, math.inf
        points = list(itertools.product(*axes))
        for point, val in zip(points, modified_logliks(tree, points, data)):
            if val < best_val:
                best_vec, best_val = list(point), val
        return best_vec, best_val

    def axis(center: float, half_width: float, step: float) -> list[float]:
        lo = max(0.0, center - half_width)
        hi = min(0.5, center + half_width)
        count = int(round((hi - lo) / step))
        return [lo + j * step for j in range(count + 1)]

    step = 0.125
    best_vec, best_val = sweep([axis(0.25, 0.25, step)] * n_edges)
    for _ in range(2):
        new_step = step / 8
        axes = [axis(best_vec[i], step / 2.0, new_step) for i in range(n_edges)]
        best_vec, best_val = sweep(axes)
        step = new_step
    return best_vec, best_val
