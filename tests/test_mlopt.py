import math
from dataclasses import replace

import pytest

from parsiml import (DataMatrix, EdgeProbs, OptimizerConfig, canonical_newick,
                     enumerate_topologies, golden_section_minimize,
                     grid_minimum, ml_search, modified_loglik, optimize_edges,
                     pad_constant_sites, random_instance)
from parsiml.likelihood import cost, modified_logliks
from parsiml.mlopt import (MAX_SWEEPS, TOL, _coordinate_descent,
                           _starting_points)

from conftest import caterpillar, random_tree, scalar_pattern_value


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
            x, fx = golden_section_minimize(
                lambda t: cost(weights, at0, at1, t), 0.0, 0.5)
            if fx < current:
                vec[i] = x
                current = fx
        current = value(vec)
        if before - current < TOL:
            return vec, current, True, sweep
    return vec, current, False, MAX_SWEEPS


class TestGoldenSection:
    def test_interior_minimum(self):
        x, fx = golden_section_minimize(lambda t: (t - 0.3) ** 2, 0.0, 0.5)
        assert x == pytest.approx(0.3, abs=1e-10)
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_left_boundary_exact(self):
        x, _ = golden_section_minimize(lambda t: (t + 1.0) ** 2, 0.0, 0.5)
        assert x == 0.0

    def test_right_boundary_exact(self):
        x, _ = golden_section_minimize(lambda t: -t, 0.0, 0.5)
        assert x == 0.5


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


class TestLockstep:
    @pytest.mark.parametrize("tree,seed", [(caterpillar(5), 1),
                                           (random_tree(6, 2), 2),
                                           (random_tree(4, 3), 3)],
                             ids=["n=5", "n=6", "n=4"])
    def test_equals_single_start_fits(self, tree, seed):
        data = pad_constant_sites(random_instance(tree.n, 6, seed), 0.5).padded
        config = OptimizerConfig(restarts=6, seed=seed)
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
