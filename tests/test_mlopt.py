import math
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from parsiml import (DataMatrix, EdgeProbs, OptimizerConfig, canonical_newick,
                     enumerate_topologies, ml_search, modified_loglik,
                     optimize_edges, pad_constant_sites, pad_with_count,
                     parse_newick, random_instance)
from parsiml import likelihood, mlopt
from parsiml.likelihood import CHUNK, modified_logliks
from parsiml.mlopt import (MAX_SWEEPS, SCALAR_TOL, TOL, _coordinate_descent,
                           _edge_solve, _starting_points)

from conftest import (caterpillar, cost, grid_minimum, random_tree,
                      reference_edge_solve, scalar_pattern_value)


def scalar_descent(tree, data, start):
    """One start's coordinate descent on the scalar DP, one vector at a time."""
    plan = tree.rooted_plan()
    patterns = [ch for ch, _ in data.patterns]
    weights = [float(m) for _, m in data.patterns]

    def values(vec):
        return [scalar_pattern_value(plan, vec, ch) for ch in patterns]

    def value(vec):
        return cost(weights, values(vec), values(vec), 0.0)

    vec = list(start)
    current = value(vec)
    for sweep in range(1, MAX_SWEEPS + 1):
        before = current
        for i in range(len(vec)):
            saved = vec[i]
            vec[i] = 0.0
            at0 = values(vec)
            vec[i] = 1.0
            at1 = values(vec)
            vec[i] = saved
            x, fx = reference_edge_solve(weights, at0, at1)
            if fx < current:
                vec[i] = x
                current = fx
        current = value(vec)
        if before - current < TOL:
            return vec, current, True, sweep
    return vec, current, False, MAX_SWEEPS


def hex_pair(pair):
    return tuple(v.hex() for v in pair)


# (weights, at0, at1) profiles for the 1-D edge solve
_AT0 = [0.4, 0.05, 0.3, 0.25]
EDGE_PROFILES = {
    # the flip fraction 3/10 is the minimum
    "interior": ([3.0, 7.0], [0.0, 1.0], [1.0, 0.0]),
    "min-at-0": ([2.0, 1.0, 5.0, 3.0], _AT0, [f * 1e-3 for f in _AT0]),
    # at1 has values above 1, so the roundoff bound refuses it: it takes
    # the plain loop's 60 passes and never reaches the opening
    "min-at-half": ([2.0, 1.0, 5.0, 3.0], _AT0, [f * 4 for f in _AT0]),
    # a constant cost: the first pair of points ties exactly
    "first-pair-tie": ([4.0, 1.0], [0.25, 0.5], [0.25, 0.5]),
    # x = 0 rules the first pattern out
    "zero-at-0": ([1.0, 6.0], [0.0, 0.5], [0.5, 0.125]),
    # no x gives the second pattern any likelihood
    "zero-at-both-ends": ([2.0, 3.0], [0.5, 0.0], [0.25, 0.0]),
    "subnormal": ([1.0, 9.0, 2.0], [5e-324, 1e-310, 0.75],
                  [1e-300, 2.5e-320, 0.5]),
    "one-pattern": ([12.0], [0.125], [0.625]),
    # claims-ladder's regime: a heavy pattern pulls the minimum to about
    # 1e-13, below SCALAR_TOL, against one that x = 0 rules out
    "min-below-tol": ([1.0, 9.0 * 2.0 ** 40, 5.0], [0.0, 0.375, 0.25],
                      [0.5, 0.0, 0.25]),
    # every row flat: g' is exactly 0, so no slope is ever certified
    "flat": ([2.0, 3.0, 5.0], [0.5, 0.25, 0.125], [0.5, 0.25, 0.125]),
    "zero-at-1": ([3.0, 1.0], [0.5, 0.25], [0.0, 0.75]),
}
# plain golden section: 0, 1/2, the first pair, then 56 steps
PLAIN_PASSES = 60


class CountingMath:
    """``math`` with a counter on ``log``: a cost pass over P patterns
    makes P calls (fewer only if a pattern's blend is 0)."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def fuzz_value(rng, extreme):
    kind = rng.randrange(10 if extreme else 4)
    if kind == 0:
        return 0.0
    if kind == 1:
        return 10.0 ** -rng.uniform(0.0, 12.0)
    if kind == 4:
        return 10.0 ** -rng.uniform(280.0, 300.0)
    if kind == 5:
        return rng.randrange(1, 1 << 20) * 5e-324  # subnormal
    if kind == 6:
        return 1.0
    return rng.random()


def fuzz_profile(rng):
    """A random (weights, at0, at1) for the edge solve.

    P is 1..64 and weights reach 2^50. Rows may be flat, zero at 0 or at 1,
    or, in an extreme profile (three in ten), zero at both, down to 1e-300,
    subnormal or above 1. A falling, a rising or a heavy near-zero row puts
    minima at 0, at 1/2 and below SCALAR_TOL; the rest fall in between.
    """
    size = rng.randint(1, 64) if rng.random() < 0.1 else rng.randint(1, 8)
    shape = rng.randrange(6)
    extreme = rng.random() < 0.3
    weights, at0, at1 = [], [], []
    for _ in range(size):
        weights.append(float(rng.choice(
            (1, rng.randint(1, 200), 2 ** rng.randint(0, 50)))))
        v0 = fuzz_value(rng, extreme)
        if rng.randrange(4) == 0:
            v1 = v0
        elif shape == 1:
            v1 = v0 * 1e-3
        elif shape == 2:
            v1 = min(1.0, 3.0 * v0)
        else:
            v1 = fuzz_value(rng, extreme)
        if v0 == v1 == 0.0 and not extreme:
            v1 = rng.random()
        at0.append(v0)
        at1.append(v1)
    if shape == 3:
        weights.append(2.0 ** rng.randint(20, 50))
        at1.append(rng.random())
        at0.append(at1[-1] * 10.0 ** -rng.uniform(11.0, 16.0))
    if shape == 4 and extreme:
        at0[0] *= 2.0 ** rng.randint(1, 3)
    return weights, at0, at1


class TestGoldenSection:
    def test_interior_minimum(self):
        weights, at0, at1 = EDGE_PROFILES["interior"]
        x, fx = _edge_solve(weights, at0, at1)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == pytest.approx(-(3 * math.log(0.3) + 7 * math.log(0.7)),
                                   rel=1e-14)

    def test_left_boundary_exact(self):
        x, fx = _edge_solve(*EDGE_PROFILES["min-at-0"])
        assert x == 0.0
        assert fx == cost(*EDGE_PROFILES["min-at-0"], 0.0)

    def test_right_boundary_exact(self):
        x, fx = _edge_solve(*EDGE_PROFILES["min-at-half"])
        assert x == 0.5
        assert fx == cost(*EDGE_PROFILES["min-at-half"], 0.5)


class TestEdgeSolve:
    @pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
    def test_equals_reference_bit_for_bit(self, name):
        profile = EDGE_PROFILES[name]
        assert hex_pair(_edge_solve(*profile)) == \
            hex_pair(reference_edge_solve(*profile))

    def test_profiles_reach_their_cases(self):
        # each crafted profile exercises what its name says
        weights, at0, at1 = EDGE_PROFILES["first-pair-tie"]
        x1 = 0.5 - mlopt._INV_GOLDEN * 0.5
        x2 = mlopt._INV_GOLDEN * 0.5
        assert cost(weights, at0, at1, x1) == cost(weights, at0, at1, x2)
        assert cost(*EDGE_PROFILES["zero-at-0"], 0.0) == math.inf
        assert _edge_solve(*EDGE_PROFILES["zero-at-0"])[1] < math.inf
        assert _edge_solve(*EDGE_PROFILES["zero-at-both-ends"])[1] == math.inf
        assert min(EDGE_PROFILES["subnormal"][1]) < sys.float_info.min
        assert 0.0 < _edge_solve(*EDGE_PROFILES["min-below-tol"])[0] < \
            SCALAR_TOL
        assert _edge_solve(*EDGE_PROFILES["zero-at-1"])[1] < math.inf
        weights, at0, at1 = EDGE_PROFILES["flat"]
        assert at0 == at1 and len(set(at0)) == len(at0)

    def test_fuzzed_profiles_equal_reference(self):
        rng = random.Random(25)
        regimes = Counter()
        for _ in range(20_000):
            profile = fuzz_profile(rng)
            want = reference_edge_solve(*profile)
            assert hex_pair(_edge_solve(*profile)) == hex_pair(want), profile
            x = want[0]
            regimes["0" if x == 0.0 else "1/2" if x == 0.5 else
                    "below tol" if x < SCALAR_TOL else "interior"] += 1
        assert min(regimes[r] for r in ("0", "1/2", "below tol",
                                        "interior")) >= 100, regimes

    def test_tie_after_a_skipped_step_keeps_the_first_scored(self,
                                                              monkeypatch):
        # every cost ties, so the plain loop steps left and keeps x1 of the
        # first pair as its best: replaying that step unscored must too
        profile = EDGE_PROFILES["flat"]

        def one_left_step(*args):
            a, b = 0.0, 0.5
            x1 = b - mlopt._INV_GOLDEN * (b - a)
            b = a + mlopt._INV_GOLDEN * (b - a)  # x2 becomes b, x1 x2
            return a, b, b - mlopt._INV_GOLDEN * (b - a), x1, True

        monkeypatch.setattr(mlopt, "_opening", one_left_step)
        assert hex_pair(_edge_solve(*profile)) == \
            hex_pair(reference_edge_solve(*profile))

    @pytest.mark.parametrize("name, fewest, most", [
        ("min-at-0", 1, 8), ("min-below-tol", 1, 20),
        ("one-pattern", 1, 8),  # g falls to 1/2: every step goes right
        ("subnormal", PLAIN_PASSES, PLAIN_PASSES),
        ("zero-at-both-ends", PLAIN_PASSES, PLAIN_PASSES),
        ("flat", PLAIN_PASSES, PLAIN_PASSES)])
    def test_cost_passes(self, name, fewest, most, monkeypatch):
        # slopes skip most of a steep profile's passes; a profile outside
        # the roundoff bound, or with no certified slope, scores them all
        counting = CountingMath()
        monkeypatch.setattr(mlopt, "math", counting)
        weights, at0, at1 = EDGE_PROFILES[name]
        _edge_solve(weights, at0, at1)
        passes = counting.logs / len(weights)
        assert fewest <= passes <= most

    def test_ladder_fit_scores_few_points(self, monkeypatch):
        # claims-ladder's 16-leaf fit: 60 cost passes per solve without
        # the shortcut
        tree, data, config = lockstep_case("n=16,exact-nc")
        counting, solves = CountingMath(), []
        solve = mlopt._edge_solve

        def spy(weights, at0, at1):
            solves.append(len(weights))
            return solve(weights, at0, at1)

        monkeypatch.setattr(mlopt, "math", counting)
        monkeypatch.setattr(mlopt, "_edge_solve", spy)
        optimize_edges(tree, data, config)
        assert counting.logs / sum(solves) <= 20

    @pytest.mark.parametrize("case", ["n=5,eps=0.5", "n=16,exact-nc"])
    def test_every_fit_profile_equals_reference(self, case, monkeypatch):
        # the profiles the descent hands the solve on a prop1-n5 base
        # matrix over all 15 topologies, and on claims-ladder's 16-leaf fit
        if case == "n=5,eps=0.5":
            data = pad_constant_sites(random_instance(5, 3, 0), 0.5).padded
            trees = list(enumerate_topologies(5))
        else:
            assert LADDER_PAD ** 3 >= 32 ** 20 > (LADDER_PAD - 1) ** 3
            data = pad_with_count(random_instance(16, 32, 0), LADDER_PAD).padded
            trees = [caterpillar(16)]
        seen = []

        def spy(weights, at0, at1):
            got = _edge_solve(weights, at0, at1)
            seen.append((hex_pair(got),
                         hex_pair(reference_edge_solve(weights, at0, at1))))
            return got

        monkeypatch.setattr(mlopt, "_edge_solve", spy)
        for tree in trees:
            optimize_edges(tree, data)
        assert seen
        assert all(got == want for got, want in seen)


class TestOptimizeEdges:
    def test_two_leaf_interior_mle(self, two_leaf):
        # one flip in four columns: the flip fraction 1/4 is the optimum
        data = DataMatrix.from_columns(2, [(0, 1)] + [(0, 0)] * 3)
        result = optimize_edges(two_leaf, data)
        assert result.probs[(1, 2)] == pytest.approx(0.25, abs=1e-8)
        assert result.value == pytest.approx(
            -(math.log(0.25) + 3 * math.log(0.75)), rel=1e-12)
        assert result.converged

    def test_two_leaf_boundary_mle(self, two_leaf):
        # flip fraction 3/4 clips to the domain edge 1/2
        data = DataMatrix.from_columns(2, [(0, 1)] * 3 + [(0, 0)])
        result = optimize_edges(two_leaf, data)
        assert result.probs[(1, 2)] == pytest.approx(0.5, abs=1e-8)

    def test_constant_data_all_zero(self, quartet):
        data = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 5)
        result = optimize_edges(quartet, data)
        assert result.value == 0.0
        assert all(p == 0.0 for _, p in result.probs.items())

    def test_descent_from_every_start(self, quartet, quartet_matrix):
        result = optimize_edges(quartet, quartet_matrix)
        assert result.start_values
        assert all(result.value <= sv + 1e-12 for sv in result.start_values)

    @pytest.mark.parametrize("field,value", [("restarts", 0),
                                             ("restarts", -2)])
    def test_bad_config_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_single_restart(self, quartet, quartet_matrix):
        result = optimize_edges(quartet, quartet_matrix,
                                OptimizerConfig(restarts=1))
        assert len(result.start_values) == 1

    def test_deterministic(self, quartet, quartet_matrix):
        a = optimize_edges(quartet, quartet_matrix, OptimizerConfig(seed=4))
        b = optimize_edges(quartet, quartet_matrix, OptimizerConfig(seed=4))
        assert a.value == b.value
        assert a.probs.vector(quartet) == b.probs.vector(quartet)

    def test_matches_grid_on_quartet(self, quartet, quartet_matrix):
        padded = pad_constant_sites(quartet_matrix, 0.5)
        result = optimize_edges(quartet, padded.padded)
        _, grid_val = grid_minimum(quartet, padded.padded)
        assert result.value <= grid_val + 1e-6

    def test_two_leaf_grid_confirms_closed_form(self, two_leaf):
        data = DataMatrix.from_columns(2, [(0, 1)] + [(0, 0)] * 3)
        vec, val = grid_minimum(two_leaf, data)
        assert vec[0] == pytest.approx(0.25, abs=1 / 512)
        assert optimize_edges(two_leaf, data).value <= val + 1e-6


# N_c exact at eps = 0.15, as claims-ladder pads: the least N with
# N^3 >= M^20, M = 32
LADDER_PAD = 10_822_639_410


LOCKSTEP_TREES = {
    "n=5": (caterpillar(5), 1), "n=6": (random_tree(6, 2), 2),
    "n=4": (random_tree(4, 3), 3), "n=12": (random_tree(12, 4), 4),
    # vertices of degree 4 and 5
    "multifurcating": (parse_newick("((1,2,3),4,(5,6,7,8),9);"), 5),
    "n=3": (random_tree(3, 6), 6),
}


def lockstep_case(name):
    """(tree, data, config) for each shape the lockstep fit is checked on."""
    if name == "n=16,exact-nc":
        data = pad_with_count(random_instance(16, 32, 0), LADDER_PAD).padded
        return caterpillar(16), data, OptimizerConfig(restarts=2, seed=0)
    if name == "n=2":  # the plan is rooted at leaf 1
        tree, seed = random_tree(2, 7), 7
        base = DataMatrix.from_columns(2, [(0, 1), (1, 1), (1, 0), (0, 1)])
    else:
        tree, seed = LOCKSTEP_TREES[name]
        base = random_instance(tree.n, 6, seed)
    data = pad_constant_sites(base, 0.5).padded
    return tree, data, OptimizerConfig(restarts=6, seed=seed)


class TestLockstep:
    @pytest.mark.parametrize("case", ["n=5", "n=6", "n=4", "n=16,exact-nc",
                                      "n=12", "multifurcating", "n=3", "n=2"])
    def test_equals_single_start_fits(self, case):
        tree, data, config = lockstep_case(case)
        starts = _starting_points(tree, data, config)
        start_values = list(modified_logliks(tree, starts, data))
        lockstep = _coordinate_descent(tree, data, starts, start_values)
        alone = [_coordinate_descent(tree, data, [s], [v])[0]
                 for s, v in zip(starts, start_values)]
        scalar = [scalar_descent(tree, data, s) for s in starts]
        assert lockstep == alone == scalar
        assert all(converged for _, _, converged, _ in lockstep)
        best = optimize_edges(tree, data, config)
        assert best.value == min(value for _, value, _, _ in scalar)
        assert best.start_values == tuple(start_values)

    def test_full_pass_once_per_fit_and_paths_below_e(self, monkeypatch):
        # a fit runs one full DP pass, kept across its sweeps; each edge then
        # recomputes only the vertices from its upper end to the root, and
        # on the caterpillar these average fewer than E per edge
        tree = caterpillar(32)
        data = pad_constant_sites(random_instance(32, 64, 0), 0.15).padded
        plan = tree.rooted_plan()
        depth = {plan[-1][0]: 1}
        for u, children in reversed(plan):
            for c, _ in children:
                depth[c] = depth[u] + 1
        # vertex products a path pass from edge i forms: one per vertex
        # from its upper end to the root
        path = {ei: depth[u] for u, children in plan for _, ei in children}
        products = [0]  # every vertex product formed, full pass or path
        full, steps = [], []  # per full pass, per path pass: (edge, count)
        real_product = likelihood._product

        def product(*args):
            products[0] += 1
            return real_product(*args)

        class Spy(likelihood.PathDP):
            def __init__(self, *args):
                before = products[0]
                super().__init__(*args)
                full.append(products[0] - before)

            def values(self, i, p, store=False):
                before = products[0]
                got = super().values(i, p, store)
                steps.append((i, products[0] - before))
                return got

        monkeypatch.setattr(likelihood, "_product", product)
        monkeypatch.setattr(mlopt, "PathDP", Spy)
        config = OptimizerConfig(restarts=2)
        starts = _starting_points(tree, data, config)
        runs = _coordinate_descent(tree, data, starts,
                                   list(modified_logliks(tree, starts, data)))
        n_edges = len(tree.edges)
        sweeps = max(sweeps for _, _, _, sweeps in runs)
        # one full pass per call, forming every internal vertex once
        assert full == [tree.n - 2]
        assert all(count == path[i] for i, count in steps)
        # a profile per edge and sweep, and a refresh where a start moved
        profiles = sweeps * n_edges
        assert profiles < len(steps) <= 2 * profiles
        assert sum(count for _, count in steps) < n_edges * profiles

    def test_starts_past_the_row_bound_run_in_groups(self, monkeypatch):
        # a path pass holds two rows per start, so a fit hands the lockstep
        # at most CHUNK // 2 starts at a time, each still fitted as alone
        tree, data, _ = lockstep_case("n=4")
        config = OptimizerConfig(restarts=CHUNK // 2 + 3, seed=3)
        batches = []

        class Spy(likelihood.PathDP):
            def __init__(self, plan, vecs, states):
                batches.append(len(vecs))
                super().__init__(plan, vecs, states)

        monkeypatch.setattr(mlopt, "PathDP", Spy)
        best = optimize_edges(tree, data, config)
        assert max(batches) == CHUNK // 2
        starts = _starting_points(tree, data, config)
        alone = [_coordinate_descent(tree, data, [s], [v])[0]
                 for s, v in zip(starts, best.start_values)]
        assert best.value == min(value for _, value, _, _ in alone)

    def test_starts_leave_the_batch_at_their_own_sweep(self):
        tree = caterpillar(5)
        data = pad_constant_sites(random_instance(5, 6, 1), 0.5).padded
        config = OptimizerConfig(restarts=6, seed=1)
        starts = _starting_points(tree, data, config)
        runs = _coordinate_descent(tree, data, starts,
                                   list(modified_logliks(tree, starts, data)))
        assert len({sweeps for _, _, _, sweeps in runs}) > 1

    def test_underflowed_start_is_rescued(self):
        # at the canonical q the linear DP underflows on this instance; the
        # start value is the finite cost modified_loglik reports, not +inf
        tree = caterpillar(64)
        data = pad_constant_sites(random_instance(64, 128, 0), 0.15).padded
        config = OptimizerConfig(restarts=1)
        start = _starting_points(tree, data, config)[0]
        expected = modified_loglik(tree, EdgeProbs.from_vector(tree, start),
                                   data)
        assert expected == 82280.88651438974
        result = optimize_edges(tree, data, config)
        assert result.start_values == (expected,)
        assert result.value <= expected


class TestMLSearch:
    def test_dominant_split_wins(self):
        data = DataMatrix.from_columns(4, [(0, 0, 1, 1)] * 20)
        best, ties = ml_search(data)
        assert canonical_newick(best.tree) == "(1,2,(3,4));"
        assert ties == [best.tree]
        # the best achievable per-column value is 1/2 on the compatible split
        assert best.value == pytest.approx(20 * math.log(2), rel=1e-10)

    def test_all_constant_ties_everything(self):
        data = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 2)
        best, ties = ml_search(data)
        assert best.value == 0.0
        assert len(ties) == 3

    def test_value_not_above_fixed_tree(self, quartet, quartet_matrix):
        best, _ = ml_search(quartet_matrix)
        fixed = optimize_edges(quartet, quartet_matrix)
        assert best.value <= fixed.value + 1e-9

    def test_threaded_matches_serial(self, quartet_matrix):
        # n_jobs has no effect; of the padded n=5 inputs, seed 0 is the bench
        # smoke ML instance (one optimum) and seed 2 has four tied topologies
        padded = [pad_constant_sites(random_instance(5, 6, seed), 0.5).padded
                  for seed in (0, 2)]

        def outcome(data, n_jobs):
            best, ties = ml_search(data, n_jobs=n_jobs)
            return (best.value.hex(), canonical_newick(best.tree), best.sweeps,
                    best.converged, [v.hex() for v in best.start_values],
                    [canonical_newick(t) for t in ties])

        for data in [quartet_matrix, *padded]:
            assert outcome(data, 1) == outcome(data, 2)

    def test_winner_is_its_topologys_own_fit(self):
        # topology i is fitted under replace(config, seed=(config.seed, i)),
        # on the padded input with four tied topologies
        data = pad_constant_sites(random_instance(5, 6, 2), 0.5).padded
        config = OptimizerConfig(seed=3)
        best, _ = ml_search(data, config)
        topologies = list(enumerate_topologies(data.n))
        i = [canonical_newick(t) for t in topologies].index(
            canonical_newick(best.tree))
        alone = optimize_edges(topologies[i], data,
                               replace(config, seed=(config.seed, i)))

        def outcome(fit):
            return (fit.value.hex(),
                    [p.hex() for p in fit.probs.vector(fit.tree)],
                    fit.sweeps, [v.hex() for v in fit.start_values])

        assert outcome(alone) == outcome(best)

    def test_result_value_matches_probs(self, quartet_matrix):
        best, _ = ml_search(quartet_matrix)
        recomputed = modified_loglik(best.tree, best.probs, quartet_matrix)
        assert recomputed == pytest.approx(best.value, rel=1e-12)
