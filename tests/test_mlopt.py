import math
import sys
from dataclasses import replace

import pytest

from parsiml import (DataMatrix, EdgeProbs, OptimizerConfig, canonical_newick,
                     enumerate_topologies, ml_search, modified_loglik,
                     optimize_edges, pad_constant_sites, pad_with_count,
                     parse_newick, random_instance)
from parsiml import likelihood, mlopt
from parsiml.likelihood import CHUNK, modified_logliks
from parsiml.mlopt import (MAX_SWEEPS, TOL, _coordinate_descent, _edge_solve,
                           _starting_points)

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
}


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
