"""Metamorphic checks: renaming the leaves or complementing the states poses
the same problem, so the answers must map onto each other.

Relabelling moves each topology to another enumeration index, and so to
another fit seed, and reorders the sorted patterns, and so the cost's sum.
Tie sets, MP optima and flip scores must therefore map exactly, costs to
1e-12 relative, and the reported ``ml_tree`` is not compared: it may change
between members of a tie set.
"""

import math
import random

import numpy as np
import pytest

from parsiml import (DataMatrix, OptimizerConfig, Tree, canonical_newick,
                     enumerate_topologies, ml_search, mp_search,
                     pad_constant_sites, parsimony_score, random_instance)
from parsiml.likelihood import pattern_values

from conftest import all_characters, complement, random_tree

REL_COST = 1e-12


def _rename(tree: Tree, leaf_map: dict) -> Tree:
    """``tree`` with leaf v renamed leaf_map[v]; internal ids kept."""
    return Tree(tree.n, [tuple(leaf_map.get(x, x) for x in edge)
                         for edge in tree.edges])


def _relabel(data: DataMatrix, perm) -> DataMatrix:
    """Leaf i+1 of the result carries the states of leaf perm[i]+1."""
    return DataMatrix(data.n, tuple(sorted(
        (tuple(ch[p] for p in perm), mult) for ch, mult in data.patterns)))


def _names(trees, leaf_map) -> set:
    return {canonical_newick(_rename(t, leaf_map)) for t in trees}


@pytest.mark.parametrize("n", range(2, 9))
def test_complement_keeps_every_pattern_value_bit_for_bit(n):
    # the DP's two states swap exactly, since IEEE addition commutes
    tree = random_tree(n, n)
    rng = np.random.default_rng(n)
    edges = len(tree.edges)
    vecs = [rng.uniform(0, 0.5, edges), rng.uniform(0, 1e-3, edges),
            np.full(edges, 1e-40), np.full(edges, 1e-300),
            rng.choice([0.0, 0.5, 1e-300, 0.25], edges)]
    patterns = list(all_characters(n))[:64]
    flipped = [complement(ch) for ch in patterns]
    anchors = {tree.canonical_root(), 1, max(tree.vertices)}
    for anchor in sorted(anchors):
        plan = tree.rooted_plan(anchor)
        here = pattern_values(plan, vecs, patterns)
        there = pattern_values(plan, vecs, flipped)
        assert ([x.hex() for x in here.ravel().tolist()]
                == [x.hex() for x in there.ravel().tolist()])


@pytest.mark.parametrize("s", range(4))
def test_relabelling_maps_the_searches_onto_each_other(s):
    base = random_instance(5, 3 + s % 4, s)
    padded = pad_constant_sites(base, 0.5).padded
    config = OptimizerConfig(seed=s)
    best, ties = ml_search(padded, config)
    score, optima = mp_search(base)
    topologies = list(enumerate_topologies(5))
    for r in range(2):
        perm = random.Random(10 * s + r).sample(range(5), 5)
        back = {i + 1: p + 1 for i, p in enumerate(perm)}  # new leaf -> old
        there = {p + 1: i + 1 for i, p in enumerate(perm)}  # old leaf -> new
        renamed = _relabel(base, perm)
        best_r, ties_r = ml_search(pad_constant_sites(renamed, 0.5).padded,
                                   config)
        assert _names(ties_r, back) == _names(ties, {})
        assert math.isclose(best_r.value, best.value, rel_tol=REL_COST)
        score_r, optima_r = mp_search(renamed)
        assert score_r == score
        assert _names(optima_r, back) == _names(optima, {})
        for tree in topologies:
            assert (parsimony_score(_rename(tree, there), renamed)
                    == parsimony_score(tree, base))
