import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsiml import (DataMatrix, EdgeProbs, char_likelihood_exhaustive,
                     char_likelihood_pruning, complement,
                     enumerate_topologies, fitch_score, is_constant,
                     modified_loglik, pad_constant_sites, parse_probs,
                     pattern_likelihoods, random_instance, write_probs)
from parsiml.likelihood import (CHUNK, _log_pattern_value, cost,
                                modified_logliks, pattern_log_likelihoods,
                                pattern_values)
from parsiml.trees import parse_newick

from conftest import (all_characters, caterpillar, exact_cost, random_tree,
                      scalar_pattern_value)


def random_probs(tree, rng):
    return EdgeProbs.from_vector(tree, rng.uniform(0.0, 0.5, len(tree.edges)))


class TestEdgeProbs:
    @pytest.mark.parametrize("bad", [-0.1, 0.5000001, 1.0])
    def test_out_of_range_rejected(self, bad, two_leaf):
        with pytest.raises(ValueError, match="outside"):
            EdgeProbs({(1, 2): bad})

    def test_missing_edge_reported(self, quartet):
        probs = EdgeProbs({(1, 5): 0.1})
        with pytest.raises(ValueError, match="missing"):
            probs.vector(quartet)

    def test_vector_aligned_with_edges(self, quartet):
        probs = EdgeProbs.from_vector(quartet, [0.0, 0.1, 0.2, 0.3, 0.4])
        assert probs.vector(quartet) == [0.0, 0.1, 0.2, 0.3, 0.4]

    def test_uniform(self, quartet):
        assert EdgeProbs.uniform(quartet, 0.25).vector(quartet) == [0.25] * 5


class TestPerCharacter:
    def test_single_edge_flip(self, two_leaf):
        probs = EdgeProbs.uniform(two_leaf, 0.25)
        assert char_likelihood_pruning(two_leaf, probs, (0, 1)) == 0.25
        assert char_likelihood_exhaustive(two_leaf, probs, (0, 1)) == 0.25

    def test_frozen_probability_no_flips(self, quartet):
        probs = EdgeProbs.uniform(quartet, 0.0)
        assert char_likelihood_pruning(quartet, probs, (0, 0, 0, 0)) == 1.0
        assert char_likelihood_exhaustive(quartet, probs, (0, 0, 0, 0)) == 1.0

    def test_quartet_hand_sum(self, quartet):
        # the four internal assignments contribute p(1-p)^4, 2 p^2(1-p)^3, p^5
        probs = EdgeProbs.uniform(quartet, 0.1)
        expected = 0.1 * 0.9 ** 4 + 2 * 0.1 ** 2 * 0.9 ** 3 + 0.1 ** 5
        assert char_likelihood_exhaustive(quartet, probs, (0, 0, 1, 1)) == \
            pytest.approx(expected, rel=1e-14)
        assert char_likelihood_pruning(quartet, probs, (0, 0, 1, 1)) == \
            pytest.approx(expected, rel=1e-14)

    def test_pruning_matches_exhaustive_on_quartets(self):
        rng = np.random.default_rng(42)
        for tree in enumerate_topologies(4):
            for _ in range(5):
                probs = random_probs(tree, rng)
                for ch in all_characters(4):
                    slow = char_likelihood_exhaustive(tree, probs, ch)
                    fast = char_likelihood_pruning(tree, probs, ch)
                    assert fast == pytest.approx(slow, rel=1e-12)

    def test_anchor_invariance(self):
        tree = caterpillar(5)
        rng = np.random.default_rng(7)
        probs = random_probs(tree, rng)
        ch = (0, 1, 1, 0, 1)
        reference = char_likelihood_pruning(tree, probs, ch)
        for anchor in sorted(tree.vertices):
            assert char_likelihood_pruning(tree, probs, ch, anchor=anchor) == \
                pytest.approx(reference, rel=1e-12)

    def test_complement_symmetry(self, quartet):
        rng = np.random.default_rng(3)
        probs = random_probs(quartet, rng)
        for ch in all_characters(4):
            assert char_likelihood_pruning(quartet, probs, ch) == \
                pytest.approx(char_likelihood_pruning(quartet, probs,
                                                      complement(ch)), rel=1e-12)

    @given(st.lists(st.floats(0.0, 0.5, allow_nan=False), min_size=5,
                    max_size=5), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_value_in_unit_interval(self, vec, bits):
        from parsiml import parse_newick
        tree = parse_newick("((1,2),(3,4));")
        probs = EdgeProbs.from_vector(tree, vec)
        ch = tuple((bits >> i) & 1 for i in range(4))
        value = char_likelihood_pruning(tree, probs, ch)
        assert -1e-15 <= value <= 1.0 + 1e-15


# 1.0 is outside [0, 1/2] but is what the optimizer's edge profile feeds
SPECIAL_PROBS = (0.0, 0.5, 1.0, 1e-300, 5e-324)


class TestBatchedKernel:
    """The batched DP against the scalar recursion, bit for bit."""

    @pytest.mark.parametrize("tree", [random_tree(n, n) for n in range(2, 13)]
                             + [parse_newick("(1,2,(3,4,5));")],
                             ids=lambda tree: f"n={tree.n}")
    def test_bit_identical_to_scalar(self, tree):
        rng = np.random.default_rng(tree.n)
        n_edges = len(tree.edges)
        vecs = [[float(x) for x in rng.uniform(0.0, 0.5, n_edges)]
                for _ in range(3)]
        vecs += [[float(x) for x in rng.choice(SPECIAL_PROBS, n_edges)]
                 for _ in range(4)]
        vecs += [[p] * n_edges for p in SPECIAL_PROBS]
        chars = [tuple(int(s) for s in rng.integers(0, 2, tree.n))
                 for _ in range(6)]
        chars += [(0,) * tree.n, (1,) * tree.n]
        for anchor in sorted(tree.vertices):
            plan = tree.rooted_plan(anchor)
            batch = pattern_values(plan, vecs, chars)
            assert batch.shape == (len(vecs), len(chars))
            for row, vec in zip(batch.tolist(), vecs):
                assert [f.hex() for f in row] == \
                    [scalar_pattern_value(plan, vec, ch).hex()
                     for ch in chars]

    def test_costs_match_one_at_a_time(self):
        # more vectors than one chunk, tiny ones too, so some rows take the
        # underflow rescue
        tree = random_tree(7, 1)
        data = DataMatrix.from_columns(
            7, [tuple((b >> i) & 1 for i in range(7)) for b in range(0, 128, 5)])
        rng = np.random.default_rng(0)
        vecs = [[float(x) for x in rng.uniform(0.0, 0.5, 11)]
                for _ in range(2 * CHUNK + 5)]
        vecs += [[1e-300] * 11, [5e-324] * 11, [0.0] * 11]
        batched = list(modified_logliks(tree, vecs, data))
        single = [modified_loglik(tree, EdgeProbs.from_vector(tree, v), data)
                  for v in vecs]
        assert [c.hex() for c in batched] == [c.hex() for c in single]
        plan = tree.rooted_plan()
        weights = [m for _, m in data.patterns]
        for vec, value in zip(vecs[:CHUNK], batched):
            values = [scalar_pattern_value(plan, vec, ch)
                      for ch, _ in data.patterns]
            assert value == cost(weights, values, values, 0.0)
        assert math.isfinite(batched[-2]) and batched[-1] == math.inf

    def test_any_iterable_of_patterns(self, quartet):
        probs = EdgeProbs.uniform(quartet, 0.1)
        assert pattern_likelihoods(quartet, probs, []) == []
        assert pattern_log_likelihoods(quartet, probs, []) == []
        chars = [(0, 1, 0, 1), (0, 0, 1, 1)]
        assert pattern_likelihoods(quartet, probs, iter(chars)) == \
            pattern_likelihoods(quartet, probs, chars)
        assert pattern_log_likelihoods(quartet, probs, iter(chars)) == \
            pattern_log_likelihoods(quartet, probs, chars)

    def test_vector_refused_as_edge_probs_refuses(self, quartet):
        data = DataMatrix.from_columns(4, [(0, 0, 1, 1)])
        vecs = [[0.1] * 5, [0.1, 0.2, 0.6, 0.1, 0.1]]
        with pytest.raises(ValueError) as batched:
            list(modified_logliks(quartet, vecs, data))
        with pytest.raises(ValueError) as single:
            EdgeProbs.from_vector(quartet, vecs[1])
        assert str(batched.value) == str(single.value)
        assert "outside [0, 1/2]" in str(batched.value)
        with pytest.raises(ValueError, match="4 probabilities for 5 edges"):
            list(modified_logliks(quartet, [[0.1] * 4], data))


def value_along_reference(weights, at0, at1, x):
    # the per-edge cost loop as the optimizer wrote it inline before the
    # shared helper existed
    stay = 1.0 - x
    total = 0.0
    for w, f0, f1 in zip(weights, at0, at1):
        f = stay * f0 + x * f1
        if f <= 0.0:
            return math.inf
        total -= w * math.log(f)
    return total if total > 0.0 else 0.0


class TestCostHelper:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_exactly(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 8))
        weights = [float(w) for w in rng.integers(1, 10**6, size)]
        at0 = [float(f) for f in rng.uniform(0.0, 1.0, size)]
        at1 = [float(f) for f in rng.uniform(0.0, 1.0, size)]
        for x in (0.0, float(rng.uniform(0.0, 0.5))):
            assert cost(weights, at0, at1, x) == \
                value_along_reference(weights, at0, at1, x)
        # plain cost: the same values twice at x = 0 is the -sum w ln f loop
        plain = 0.0
        for w, f in zip(weights, at0):
            plain -= w * math.log(f)
        assert cost(weights, at0, at0, 0.0) == plain
        assert cost(weights, at0, at0, 0.0) == \
            value_along_reference(weights, at0, at0, 0.0)

    def test_zero_likelihood_pattern_gives_inf(self):
        weights, at0, at1 = [3.0, 2.0], [0.5, 0.0], [0.25, 0.0]
        for x in (0.0, 0.3):
            assert cost(weights, at0, at1, x) == math.inf
            assert value_along_reference(weights, at0, at1, x) == math.inf
        assert cost(weights, at0, at0, 0.0) == math.inf


@pytest.mark.parametrize("n", [5, 16])
def test_one_cost_sum_same_bits(n):
    # where nothing underflows the dataset cost is the optimizer's objective
    # at x = 0; where something does, -sum w ln f with the log-space DP
    tree = caterpillar(n)
    data = pad_constant_sites(random_instance(n, 2 * n, n), 0.15).padded
    rng = np.random.default_rng(n)
    n_edges = len(tree.edges)
    vecs = [[float(x) for x in rng.uniform(0.0, 0.5, n_edges)]
            for _ in range(40)]
    vecs += [[float(x) * 10.0 ** -int(e)
              for x, e in zip(rng.uniform(0.0, 0.5, n_edges),
                              rng.integers(0, 330, n_edges))]
             for _ in range(40)]
    plan = tree.rooted_plan()
    states = [ch for ch, _ in data.patterns]
    weights = [w for _, w in data.patterns]
    normal = rescued = 0
    for vec, got in zip(vecs, modified_logliks(tree, vecs, data)):
        values = pattern_values(plan, [vec], states)[0].tolist()
        if min(values) >= sys.float_info.min:
            normal += 1
            want = cost(weights, values, values, 0.0)
        else:
            rescued += 1
            want = 0.0
            for w, f, ch in zip(weights, values, states):
                want -= w * (math.log(f) if f >= sys.float_info.min
                             else _log_pattern_value(plan, vec, ch))
        assert got.hex() == want.hex()
    assert normal and rescued


class TestDatasetCost:
    def test_two_leaf_cost(self, two_leaf):
        data = DataMatrix.from_columns(2, [(0, 1)])
        probs = EdgeProbs.uniform(two_leaf, 0.25)
        assert modified_loglik(two_leaf, probs, data) == \
            pytest.approx(-math.log(0.25), rel=1e-14)

    def test_constant_data_zero_probs(self, quartet):
        data = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 3)
        probs = EdgeProbs.uniform(quartet, 0.0)
        assert modified_loglik(quartet, probs, data) == 0.0

    def test_impossible_pattern_gives_inf(self, quartet):
        data = DataMatrix.from_columns(4, [(0, 1, 0, 1)])
        probs = EdgeProbs.uniform(quartet, 0.0)
        assert modified_loglik(quartet, probs, data) == math.inf

    @pytest.mark.parametrize("vec", [
        [1e-200] * 5,  # two flips: the true value ~ 4e-400 rounds to 0.0
        [2.0 ** -1023] * 4 + [0.5],  # a subnormal p on every pendant edge
        [5e-324] * 5,  # p * c rounds to 0.0 under linear rescaling too
        [5e-324, 0.5, 1e-300, 0.25, 2.0 ** -1022],
        [0.0] + [1e-200] * 4,  # a zero edge that 0101 can route around
    ])
    def test_underflow_is_rescued(self, quartet, vec):
        data = DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 1, 0, 1)])
        value = modified_loglik(quartet, EdgeProbs.from_vector(quartet, vec),
                                data)
        assert math.isfinite(value)
        assert value == pytest.approx(exact_cost(quartet, vec, data),
                                      rel=1e-12)

    def test_log_values(self, quartet):
        patterns = [(0, 0, 1, 1), (0, 1, 0, 1)]
        # leaves 1 and 2 frozen to their neighbour: 0101 is impossible
        probs = EdgeProbs.from_vector(quartet, [0.0, 0.0, 0.2, 0.3, 0.4])
        plain = pattern_likelihoods(quartet, probs, patterns)
        assert plain[1] == 0.0
        assert pattern_log_likelihoods(quartet, probs, patterns) == \
            [math.log(plain[0]), -math.inf]
        tiny = EdgeProbs.uniform(quartet, 1e-200)
        data = DataMatrix.from_columns(4, patterns)
        assert -sum(pattern_log_likelihoods(quartet, tiny, patterns)) == \
            pytest.approx(exact_cost(quartet, [1e-200] * 5, data), rel=1e-12)

    def test_zero_probability_keeps_inf(self, quartet):
        # leaves 1 and 2 frozen to their neighbour make 0101 impossible
        data = DataMatrix.from_columns(4, [(0, 1, 0, 1)])
        probs = EdgeProbs.from_vector(quartet, [0.0, 0.0] + [1e-200] * 3)
        assert modified_loglik(quartet, probs, data) == math.inf

    def test_additivity(self, quartet):
        rng = np.random.default_rng(5)
        probs = random_probs(quartet, rng)
        first = DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 1, 1, 0)])
        second = DataMatrix.from_columns(4, [(0, 1, 0, 1)] * 3)
        merged = DataMatrix.from_columns(
            4, list(first.expanded_columns()) + list(second.expanded_columns()))
        assert modified_loglik(quartet, probs, merged) == pytest.approx(
            modified_loglik(quartet, probs, first)
            + modified_loglik(quartet, probs, second), rel=1e-12)

    def test_multiplicity_equals_repetition(self, quartet):
        rng = np.random.default_rng(9)
        probs = random_probs(quartet, rng)
        data = DataMatrix.from_columns(4, [(0, 0, 1, 1)] * 7)
        single = DataMatrix.from_columns(4, [(0, 0, 1, 1)])
        assert modified_loglik(quartet, probs, data) == pytest.approx(
            7 * modified_loglik(quartet, probs, single), rel=1e-12)

    @given(st.lists(st.floats(0.0, 0.5, allow_nan=False), min_size=5,
                    max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_cost_non_negative(self, vec):
        from parsiml import parse_newick
        tree = parse_newick("((1,2),(3,4));")
        data = DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 1, 0, 1)])
        probs = EdgeProbs.from_vector(tree, vec)
        assert modified_loglik(tree, probs, data) >= 0.0


class TestModelFacts:
    def test_pairwise_flip_marginal(self):
        # summing the engine's probabilities over all characters with
        # differing states at two leaves must reproduce the closed form
        # (1 - prod(1 - 2 p_i)) / 2 along the connecting path
        tree = caterpillar(5)
        rng = np.random.default_rng(11)
        probs = random_probs(tree, rng)
        for u, v, path in [(1, 5, None), (2, 4, None)]:
            marginal = 0.0
            for ch in all_characters(5):
                if ch[u - 1] != ch[v - 1]:
                    marginal += char_likelihood_pruning(tree, probs, ch) / 2.0
            path_edges = _path_edges(tree, u, v)
            prod = 1.0
            for e in path_edges:
                prod *= 1.0 - 2.0 * probs[e]
            assert marginal == pytest.approx((1.0 - prod) / 2.0, rel=1e-10)
            # and it dominates every single edge probability on the path
            assert marginal >= max(probs[e] for e in path_edges) - 1e-12

    def test_constant_cost_dominates_max_edge(self):
        # -ln f_0 >= max_e p_e: a flip probability anywhere leaks through
        tree = caterpillar(5)
        rng = np.random.default_rng(13)
        for _ in range(20):
            probs = random_probs(tree, rng)
            f0 = char_likelihood_pruning(tree, probs, (0,) * 5)
            assert -math.log(f0) >= max(p for _, p in probs.items()) - 1e-12

    def test_per_character_lower_bound_sample(self, quartet):
        # ln f >= l ln q - E (q + 2 q^2) at uniform q; full sweep lives in
        # the acceptance suite
        for q in (0.01, 0.1, 0.5):
            probs = EdgeProbs.uniform(quartet, q)
            for ch in all_characters(4):
                value = char_likelihood_pruning(quartet, probs, ch)
                floor = (fitch_score(quartet, ch) * math.log(q)
                         - 5 * (q + 2 * q * q))
                assert math.log(value) >= floor - 1e-12

    def test_per_character_upper_bound_sample(self, quartet):
        # f <= E (E q)^l for non-constant characters once q < 1/E
        for q in (0.01, 0.05, 0.1):
            probs = EdgeProbs.uniform(quartet, q)
            for ch in all_characters(4):
                if is_constant(ch):
                    continue
                value = char_likelihood_pruning(quartet, probs, ch)
                ceiling = 5 * (5 * q) ** fitch_score(quartet, ch)
                assert value <= ceiling + 1e-12


class TestProbsSidecar:
    def test_round_trip(self, quartet):
        probs = EdgeProbs.from_vector(quartet, [0.0, 0.125, 0.25, 0.375, 0.5])
        text = write_probs(quartet, probs)
        again = parse_probs(text, quartet)
        assert again.vector(quartet) == probs.vector(quartet)

    def test_missing_edge(self, quartet):
        with pytest.raises(ValueError, match="missing"):
            parse_probs("1 5 0.1\n", quartet)

    def test_duplicate_edge(self, quartet):
        text = "1 5 0.1\n5 1 0.2\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_probs(text, quartet)

    def test_bad_line(self, quartet):
        with pytest.raises(ValueError, match="line 1"):
            parse_probs("nonsense\n", quartet)


def _path_edges(tree, u, v):
    parent = {u: None}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in tree.neighbors(w):
            if x not in parent:
                parent[x] = w
                stack.append(x)
    path = []
    w = v
    while parent[w] is not None:
        path.append((w, parent[w]))
        w = parent[w]
    return path
