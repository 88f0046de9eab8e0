import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from parsiml import (DataMatrix, EdgeProbs, OptimizerConfig,
                     char_likelihood_exhaustive, modified_loglik,
                     normalized_cost, pad_constant_sites, pad_with_count,
                     parse_newick, quantities_for, random_instance,
                     reduction, verify_claim1, verify_claim2, verify_claim3,
                     verify_prop1_chain)
from parsiml import likelihood
from parsiml.parsimony import mp_search
from parsiml.reduction import CSV_FIELDS, _grade, format_cell

from conftest import caterpillar, exact_cost


@pytest.fixture
def quartet_padded(quartet_matrix):
    return pad_constant_sites(quartet_matrix, 0.5)


class TestQuantities:
    def test_exact_values(self, quartet, quartet_padded):
        qty = quantities_for(quartet, quartet_padded)
        assert qty.score == 3
        assert qty.n_edges == 5
        assert qty.total_chars == 66
        assert qty.q == 3 / 330
        assert qty.p_bar == 3 * math.log(66) / 64
        assert qty.normalizer == math.log(66)

    def test_report_reproduces_quantities(self, quartet, quartet_padded):
        report = verify_claim1(quartet_padded, quartet)
        qty = quantities_for(quartet, quartet_padded)
        assert abs(report.q - qty.q) < 1e-15
        assert abs(report.p_bar - qty.p_bar) < 1e-15


class TestNormalizedCost:
    def test_all_constant_zero(self, quartet):
        base = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 2)
        padded = pad_constant_sites(base, 0.5)
        probs = EdgeProbs.uniform(quartet, 0.0)
        assert normalized_cost(quartet, probs, padded) == 0.0

    def test_cross_checked_by_exhaustive_evaluator(self, quartet,
                                                   quartet_padded):
        qty = quantities_for(quartet, quartet_padded)
        probs = EdgeProbs.uniform(quartet, qty.q)
        engine = normalized_cost(quartet, probs, quartet_padded)
        by_hand = 0.0
        for ch, mult in quartet_padded.padded.patterns:
            by_hand -= mult * math.log(
                char_likelihood_exhaustive(quartet, probs, ch))
        by_hand /= math.log(66)
        assert engine == pytest.approx(by_hand, rel=1e-12)
        assert engine >= (1 - 5 * 0.5) * qty.score
        assert engine <= (1 + 2 * 0.5) * qty.score

    def test_infinite_cost_propagates(self, quartet, quartet_padded):
        probs = EdgeProbs.uniform(quartet, 0.0)
        assert normalized_cost(quartet, probs, quartet_padded) == math.inf


class TestClaim1:
    def test_quartet_passes_with_margin(self, quartet, quartet_padded):
        report = verify_claim1(quartet_padded, quartet)
        assert report.verdict == "pass"
        assert report.bound == 6.0
        assert report.margin > 0
        assert report.details["per_char_violations"] == 0

    def test_degenerate_all_constant(self, quartet):
        base = DataMatrix.from_columns(4, [(0, 0, 0, 0), (1, 1, 1, 1)])
        padded = pad_constant_sites(base, 0.5)
        report = verify_claim1(padded, quartet)
        assert report.verdict == "pass"
        assert "degenerate" in report.note
        assert report.lhs == 0.0
        assert report.margin == 0.0

    def test_small_instance_grades_inconclusive(self, quartet, quartet_matrix):
        padded = pad_with_count(quartet_matrix, 8)
        report = verify_claim1(padded, quartet, epsilon=0.05)
        assert report.verdict == "inconclusive"
        assert not report.preconditions_met

    def test_small_instance_fails_when_threshold_lowered(self, quartet,
                                                         quartet_matrix):
        padded = pad_with_count(quartet_matrix, 8)
        report = verify_claim1(padded, quartet, epsilon=0.05, m_min=1)
        assert report.verdict == "fail"


class TestClaim2:
    def test_quartet_no_violations(self, quartet, quartet_padded):
        report = verify_claim2(quartet_padded, quartet, trials=300, seed=7)
        assert report.verdict == "pass"
        assert report.details["violations"] == 0
        assert report.lhs > report.bound == 3.0
        assert report.trials == 300

    def test_boundary_probe(self, quartet, quartet_padded):
        qty = quantities_for(quartet, quartet_padded)
        for background in (0.0, 0.01):
            vec = [background] * 5
            vec[quartet.edge_index(5, 6)] = qty.p_bar * (1 + 1e-6)
            cost = normalized_cost(quartet,
                                   EdgeProbs.from_vector(quartet, vec),
                                   quartet_padded)
            assert cost > qty.score

    def test_vacuous_when_threshold_above_half(self, quartet, quartet_matrix):
        padded = pad_with_count(quartet_matrix, 2)
        report = verify_claim2(padded, quartet, trials=10, seed=0)
        assert report.verdict == "pass"
        assert "vacuous" in report.note
        assert report.trials == 0
        assert report.margin == math.inf

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_refused(self, quartet, quartet_padded, trials):
        with pytest.raises(ValueError, match="trials"):
            verify_claim2(quartet_padded, quartet, trials=trials)

    def test_seed_reproducible(self, quartet, quartet_padded):
        a = verify_claim2(quartet_padded, quartet, trials=50, seed=5)
        b = verify_claim2(quartet_padded, quartet, trials=50, seed=5)
        assert a.lhs == b.lhs


class TestClaim3:
    def test_quartet_trivial_bound(self, quartet, quartet_padded):
        report = verify_claim3(quartet_padded, quartet, trials=100, seed=7)
        assert report.verdict == "pass"
        assert report.bound == (1 - 5 * 0.5) * 3
        assert report.bound < 0
        assert report.details["per_char_violations"] == 0

    def test_includes_grid_and_probes(self, quartet, quartet_padded):
        report = verify_claim3(quartet_padded, quartet, trials=10, seed=7)
        # 10 random + canonical q + optimizer probe + 5^5 grid + 6 threshold probes
        assert report.trials == 10 + 1 + 1 + 5 ** 5 + 6
        assert report.details["threshold_probes"] is True

    def test_undersized_padding_is_inconclusive(self, quartet):
        base = random_instance(4, 30, seed=1)
        tree = mp_search(base)[1][0]
        padded = pad_with_count(base, 2)
        report = verify_claim3(padded, tree, trials=50, seed=3, epsilon=0.01)
        assert report.verdict == "inconclusive"
        assert report.lhs < report.bound
        assert not report.preconditions_met

    def test_large_instance_fails_when_threshold_lowered(self):
        base = random_instance(4, 30, seed=1)
        tree = mp_search(base)[1][0]
        padded = pad_with_count(base, 2000)
        report = verify_claim3(padded, tree, trials=20, seed=3, epsilon=0.01,
                               m_min=1)
        assert report.preconditions_met
        assert report.lhs < report.bound
        assert (report.verdict, report.note) == \
            ("fail", "bound failed on a large instance")

    def test_negative_trials_refused(self, quartet, quartet_padded):
        with pytest.raises(ValueError, match="trials"):
            verify_claim3(quartet_padded, quartet, trials=-1)
        assert verify_claim3(quartet_padded, quartet, trials=0).verdict == "pass"

    def test_degenerate_all_constant(self, quartet):
        base = DataMatrix.from_columns(4, [(1, 1, 1, 1)])
        padded = pad_constant_sites(base, 0.5)
        report = verify_claim3(padded, quartet)
        assert report.verdict == "pass"
        assert "degenerate" in report.note


@pytest.mark.parametrize("verify", [verify_claim1, verify_claim3],
                         ids=["claim1", "claim3"])
def test_degenerate_report_keeps_the_resolved_epsilon(quartet, verify):
    # pad_with_count records no epsilon; the one given to the check counts
    base = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 3)
    report = verify(pad_with_count(base, 5), quartet, epsilon=0.5)
    assert "degenerate" in report.note
    assert report.epsilon == 0.5
    assert json.loads(report.to_json())["quantities"]["epsilon"] == 0.5


class TestUnderflow:
    """64 leaves at epsilon = 0.15: N_c ~ 1.1e14 fits under 2^53, but the
    canonical q makes pattern likelihoods underflow the double range."""

    @pytest.fixture(scope="class")
    def instance(self):
        padded = pad_constant_sites(random_instance(64, 128, 0), 0.15)
        tree = caterpillar(64)
        q = quantities_for(tree, padded).q
        exact = exact_cost(tree, [q] * len(tree.edges), padded.padded)
        return tree, padded, q, exact

    def test_claim1_cost_is_finite(self, instance):
        tree, padded, q, exact = instance
        report = verify_claim1(padded, tree)
        assert report.verdict == "pass"
        assert report.details["per_char_violations"] == 0
        # the all-zero pattern (weight ~1.1e14) takes ln of a linear value
        # f ~ 1 - 2.5e-11, which holds the total to ~5e-6 relative
        assert report.lhs * math.log(padded.padded.k) == \
            pytest.approx(exact, rel=1e-5)
        # every other pattern, underflowed ones included, to 1e-12
        variable = DataMatrix(64, tuple(
            (ch, w) for ch, w in padded.padded.patterns if any(ch)))
        assert modified_loglik(tree, EdgeProbs.uniform(tree, q), variable) \
            == pytest.approx(exact_cost(tree, [q] * len(tree.edges),
                                        variable), rel=1e-12)

    def test_claim3_cost_is_finite(self, instance):
        tree, padded, q, exact = instance
        report = verify_claim3(padded, tree, trials=5)
        assert report.verdict == "pass"
        assert math.isfinite(report.lhs)
        # the canonical q is one of the probed vectors
        at_q = normalized_cost(tree, EdgeProbs.uniform(tree, q), padded)
        assert report.lhs <= at_q
        assert at_q * math.log(padded.padded.k) == \
            pytest.approx(exact, rel=1e-5)

    def test_claim2_still_passes(self, instance):
        tree, padded, _, _ = instance
        assert verify_claim2(padded, tree, trials=50).verdict == "pass"


def test_per_char_upper_check_fires_in_the_paper_regime(monkeypatch):
    """The claims-ladder's 24-leaf caterpillar at epsilon = 0.15, M = 48:
    E (E p_bar)^l is below 1e-12 for every non-constant pattern, so a check
    with an absolute slack on f cannot see pattern values inflated 1e12
    times; graded on ln f it does. (The lhs bound fails either way, so the
    count is asserted, not the verdict.)"""
    padded = pad_constant_sites(random_instance(24, 48, 0), 0.15)
    exact = likelihood.pattern_values
    monkeypatch.setattr(
        likelihood, "pattern_values",
        lambda *args: np.minimum(exact(*args) * 1e12, 1.0))
    report = verify_claim3(padded, caterpillar(24), trials=0)
    assert report.details["threshold_probes"]
    assert report.details["per_char_violations"] > 0


class TestProp1Chain:
    def test_quartet_instance(self, quartet_matrix):
        report = verify_prop1_chain(quartet_matrix, 0.5)
        assert report.verdict == "pass"
        assert report.lhs <= report.bound
        assert report.details["is_mp_optimum"] is True
        assert report.details["ml_tree"] in report.details["mp_optima"]
        assert set(report.details["mp_optima"]) == \
            {"(1,2,(3,4));", "(1,(2,4),3);"}

    def test_all_constant_degenerate(self):
        base = DataMatrix.from_columns(4, [(0, 0, 0, 0)] * 2)
        report = verify_prop1_chain(base, 0.5)
        assert report.verdict == "pass"
        assert "degenerate" in report.note
        assert report.details["ml_tie_count"] == 3

    def test_ratio_not_asserted_at_large_epsilon(self, quartet_matrix):
        report = verify_prop1_chain(quartet_matrix, 0.5)
        assert report.details["ratio_bound"] is None
        assert "epsilon >= 0.2" in report.note or report.note == ""

    @pytest.mark.parametrize("m_min,verdict,note", [
        (32, "inconclusive", "ratio bound failed but M=8 < M_min=32"),
        (1, "fail", "ratio bound failed on a large instance"),
    ])
    def test_ratio_bound_graded_by_size(self, monkeypatch, m_min, verdict,
                                        note):
        # a search that reports the worst topology with the optimum's cost:
        # link (i) holds, and its flip score 4 breaks the ratio bound 3.51
        worst = parse_newick("((1,3),(2,4));")
        search = reduction.ml_search

        def worst_winner(data, config, cap):
            best, _ = search(data, config, cap=cap)
            return dataclasses.replace(best, tree=worst), [worst]

        monkeypatch.setattr(reduction, "ml_search", worst_winner)
        base = DataMatrix.from_columns(4, [(0, 0, 1, 1)] * 2)
        report = verify_prop1_chain(base, 0.07, m_min=m_min)
        assert report.details["ml_tree_score"] == 4
        assert report.details["ratio_ok"] is False
        assert report.lhs <= report.bound
        assert (report.verdict, report.note) == (verdict, note)

    def test_small_batch(self):
        hits = 0
        for seed in range(5):
            base = random_instance(5, 3 + seed % 4, seed)
            report = verify_prop1_chain(base, 0.5, OptimizerConfig(seed=seed))
            assert report.verdict == "pass"
            assert report.lhs <= report.bound
            hits += report.details["is_mp_optimum"]
        assert hits >= 4


class TestReportSerialization:
    def test_json_schema(self, quartet, quartet_padded):
        report = verify_claim1(quartet_padded, quartet)
        report.runtime_ms = None
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "pass"
        assert set(payload["quantities"]) == {"epsilon", "M", "N_c", "q", "p_bar"}
        assert payload["quantities"]["M"] == 8
        assert payload["quantities"]["N_c"] == 64
        assert payload["runtime_ms"] is None

    def test_json_handles_infinity(self, quartet, quartet_matrix):
        padded = pad_with_count(quartet_matrix, 2)
        report = verify_claim2(padded, quartet)
        payload = json.loads(report.to_json())
        assert payload["lhs"] == "inf"

    def test_csv_single_row(self, quartet, quartet_padded):
        report = verify_claim2(quartet_padded, quartet, trials=20, seed=1)
        report.runtime_ms = None
        row = report.to_csv_row()
        assert row.count("\n") == 1
        cells = next(csv.reader(io.StringIO(row)))
        assert len(cells) == 14
        assert cells[0] == "claim2"
        assert cells[10] == "pass"

    def test_reports_reproducible(self, quartet, quartet_padded):
        a = verify_claim2(quartet_padded, quartet, trials=50, seed=9)
        b = verify_claim2(quartet_padded, quartet, trials=50, seed=9)
        a.runtime_ms = b.runtime_ms = None
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("make", [
        lambda tree, base: verify_claim2(pad_with_count(base, 2), tree),
        lambda tree, base: verify_claim1(pad_constant_sites(base, 0.5), tree),
    ], ids=["claim2-vacuous", "claim1"])
    def test_csv_cells_are_the_json_values(self, quartet, quartet_matrix,
                                           make):
        report = make(quartet, quartet_matrix)
        payload = report.to_json_dict()
        flat = {**payload, **payload["quantities"]}
        cells = next(csv.reader(io.StringIO(report.to_csv_row())))
        assert len(cells) == len(CSV_FIELDS) == 14
        assert cells == [str(format_cell(flat[name])) for name in CSV_FIELDS]
        if report.check == "claim2":  # vacuous: lhs inf, no epsilon
            assert cells[CSV_FIELDS.index("lhs")] == "inf"
            assert cells[CSV_FIELDS.index("epsilon")] == ""


_SMALL = "bound failed but M=8 < M_min=32"
_UNMET = "bound failed with preconditions unmet (p_bar<1/E: False, M=8, M_min=32)"
_CHAIN_I = "optimized cost exceeds the canonical-q cost of a flip optimum"
_NOT_ASSERTED = "ratio not asserted at epsilon >= 0.2; measurements only"
_RATIO_SMALL = "ratio bound failed but M=8 < M_min=32"
_RATIO_LARGE = "ratio bound failed on a large instance"
_LARGE = "bound failed on a large instance"


@pytest.mark.parametrize("args,kwargs,expected", [
    # claim1
    (("2 per-character lower-bound violations", True, True, _SMALL), {},
     ("fail", "2 per-character lower-bound violations")),
    (("", True, False, _SMALL), {}, ("pass", "")),
    (("", False, False, _SMALL), {}, ("inconclusive", _SMALL)),
    (("", False, True, _SMALL), {}, ("fail", _LARGE)),
    # claim3
    (("1 per-character upper-bound violations", False, False, _UNMET), {},
     ("fail", "1 per-character upper-bound violations")),
    (("", True, True, _UNMET),
     {"pass_note": "bound is non-positive at this epsilon"},
     ("pass", "bound is non-positive at this epsilon")),
    (("", False, False, _UNMET), {}, ("inconclusive", _UNMET)),
    (("", False, True, _UNMET), {}, ("fail", _LARGE)),
    # prop1
    ((_CHAIN_I, True, True, _RATIO_SMALL), {"large_note": _RATIO_LARGE},
     ("fail", _CHAIN_I)),
    (("", True, False, _RATIO_SMALL),
     {"pass_note": _NOT_ASSERTED, "large_note": _RATIO_LARGE},
     ("pass", _NOT_ASSERTED)),
    (("", False, False, _RATIO_SMALL), {"large_note": _RATIO_LARGE},
     ("inconclusive", _RATIO_SMALL)),
    (("", False, True, _RATIO_SMALL), {"large_note": _RATIO_LARGE},
     ("fail", _RATIO_LARGE)),
], ids=[f"{check}-{branch}" for check in ("claim1", "claim3", "prop1")
        for branch in ("hard", "pass", "inconclusive", "large-fail")])
def test_one_verdict_rule(args, kwargs, expected):
    assert _grade(*args, **kwargs) == expected
