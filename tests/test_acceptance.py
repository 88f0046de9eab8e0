"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s``) and
asserts the criterion at its stated tolerance. Tolerances and budgets are
pinned here, not configurable.
"""

import math
import subprocess
import sys
import time

import numpy as np

from parsiml import (DataMatrix, EdgeProbs, OptimizerConfig,
                     char_likelihood_exhaustive, char_likelihood_pruning,
                     brute_force_score, enumerate_topologies, fitch_score,
                     is_constant, pad_constant_sites, pad_with_count,
                     parse_newick, quantities_for, random_instance,
                     verify_claim2, verify_prop1_chain)
from parsiml.parsimony import mp_search

from conftest import all_characters, normalized_cost


def _verdict(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_likelihood_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    for index, tree in enumerate(enumerate_topologies(5)):
        rng = np.random.default_rng(100 + index)
        for _ in range(20):
            probs = EdgeProbs.from_vector(tree, rng.uniform(0.0, 0.5, 7))
            for ch in all_characters(5):
                slow = char_likelihood_exhaustive(tree, probs, ch)
                fast = char_likelihood_pruning(tree, probs, ch)
                scale = max(abs(slow), abs(fast), 1e-300)
                worst = max(worst, abs(fast - slow) / scale)
    elapsed = time.monotonic() - started
    _verdict(1, "pruning and exhaustive evaluators agree to 1e-12 relative "
                "on all n=5 topologies x 20 seeded p x 32 characters",
             worst <= 1e-12 and elapsed < 60,
             f"max rel diff {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_parsimony_oracle_equivalence():
    mismatches = 0
    checked = 0
    for n in (4, 5):
        for tree in enumerate_topologies(n):
            for ch in all_characters(n):
                checked += 1
                if fitch_score(tree, ch) != brute_force_score(tree, ch):
                    mismatches += 1
    rng = np.random.default_rng(2)
    sampled = [tuple(int(b) for b in rng.integers(0, 2, 6))
               for _ in range(200)]
    for tree in enumerate_topologies(6):
        for ch in sampled:
            checked += 1
            if fitch_score(tree, ch) != brute_force_score(tree, ch):
                mismatches += 1
    _verdict(2, "set-rule flip score equals brute-force minimum on all "
                "topologies for n=4,5 (exhaustive) and n=6 (200 random)",
             mismatches == 0, f"{checked} comparisons, {mismatches} mismatches")


def test_criterion_3_per_character_lower_bound():
    violations = 0
    checked = 0
    grid = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5)
    for tree in enumerate_topologies(5):
        n_edges = len(tree.edges)
        scores = {ch: fitch_score(tree, ch) for ch in all_characters(5)}
        for q in grid:
            probs = EdgeProbs.uniform(tree, q)
            floor_shift = n_edges * (q + 2 * q * q)
            for ch, score in scores.items():
                checked += 1
                value = char_likelihood_pruning(tree, probs, ch)
                if math.log(value) < score * math.log(q) - floor_shift - 1e-12:
                    violations += 1
    _verdict(3, "ln f >= l ln q - E(q + 2q^2) over the n=5 sweep and the "
                "six-point q grid",
             violations == 0, f"{checked} checks, {violations} violations")


def test_criterion_4_threshold_contrapositive():
    started = time.monotonic()
    instances = 0
    violations = 0
    seed = 0
    while instances < 5:
        base = random_instance(5, 3 + seed % 4, seed)
        padded = pad_constant_sites(base, 0.5)
        score, optima = mp_search(base)
        tree = optima[0]
        qty = quantities_for(tree, padded)
        if qty.score >= 1 and qty.p_bar < 0.45:
            report = verify_claim2(padded, tree, trials=1000, seed=seed)
            violations += report.details["violations"]
            assert report.verdict == "pass", report.note
            instances += 1
        seed += 1
    elapsed = time.monotonic() - started
    _verdict(4, "any edge above the threshold forces normalized cost above "
                "the flip score: 5 instances x 1000 conditioned trials",
             violations == 0,
             f"{violations} violations, {elapsed:.1f}s")


def test_criterion_5_per_character_upper_bound():
    violations = 0
    checked = 0
    grid = (0.001, 0.01, 0.05, 0.1)  # every value below 1/E = 1/7
    for tree in enumerate_topologies(5):
        n_edges = len(tree.edges)
        for q in grid:
            probs = EdgeProbs.uniform(tree, q)
            for ch in all_characters(5):
                if is_constant(ch):
                    continue
                checked += 1
                value = char_likelihood_pruning(tree, probs, ch)
                ceiling = n_edges * (n_edges * q) ** fitch_score(tree, ch)
                if value > ceiling + 1e-12:
                    violations += 1
    _verdict(5, "f <= E (E p)^l for non-constant characters over the n=5 "
                "sweep restricted to p < 1/E",
             violations == 0, f"{checked} checks, {violations} violations")


def test_criterion_6_end_to_end_chain():
    started = time.monotonic()
    chain_holds = 0
    coincide = 0
    for seed in range(20):
        base = random_instance(5, 3 + seed % 4, seed)
        report = verify_prop1_chain(base, 0.5, OptimizerConfig(seed=seed))
        assert report.pad_count == max(2 * base.n, base.k) ** 2
        if report.details.get("mp_score", 0) == 0:
            chain_holds += report.verdict == "pass"
            coincide += 1
            continue
        chain_holds += report.lhs <= report.bound  # bound carries the 1e-8 slack
        coincide += report.details["is_mp_optimum"]
    elapsed = time.monotonic() - started
    ok = chain_holds == 20 and coincide >= 18 and elapsed < 600
    _verdict(6, "exhaustive likelihood search on padded data: optimality "
                "link 20/20, flip-optimal winner in at least 18/20",
             ok, f"chain {chain_holds}/20, exact coincidence {coincide}/20, "
                 f"{elapsed:.1f}s")


def test_criterion_7_pad_size_ladder():
    started = time.monotonic()
    quartet = parse_newick("((1,2),(3,4));")
    base = DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 1, 0, 1)])
    ratios = []
    for pad_count in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        padded = pad_with_count(base, pad_count)
        qty = quantities_for(quartet, padded)
        cost = normalized_cost(quartet, EdgeProbs.uniform(quartet, qty.q),
                               padded)
        ratios.append(cost / qty.score)
    elapsed = time.monotonic() - started
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and 1.0 < ratios[-1] < 1.5 and elapsed < 60
    _verdict(7, "normalized cost at canonical q over the flip score strictly "
                "decreases along the pad ladder and ends inside (1, 1.5)",
             ok, "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
                 + f", {elapsed:.1f}s")


def test_criterion_8_cli_determinism(tmp_path):
    (tmp_path / "t.nwk").write_text("((1,2),(3,4));\n")
    (tmp_path / "x.mat").write_text("4 2\n1 00\n2 01\n3 10\n4 11\n")
    (tmp_path / "p.probs").write_text(
        "1 5 0.1\n2 5 0.1\n3 6 0.1\n4 6 0.1\n5 6 0.1\n")
    tree, mat, probs = (str(tmp_path / name)
                        for name in ("t.nwk", "x.mat", "p.probs"))
    commands = [
        ["gen", "--n", "5", "--k", "6", "--seed", "3"],
        ["pad", "--matrix", mat, "--epsilon", "0.5"],
        ["score-mp", "--tree", tree, "--matrix", mat],
        ["score-ml", "--tree", tree, "--matrix", mat, "--probs", probs],
        ["search-mp", "--matrix", mat, "--format", "json"],
        ["search-ml", "--matrix", mat, "--format", "json", "--seed", "5"],
        ["enumerate", "--n", "5"],
        ["verify", "claim1", "--matrix", mat, "--tree", tree,
         "--epsilon", "0.5", "--format", "json"],
        ["verify", "claim2", "--matrix", mat, "--tree", tree,
         "--epsilon", "0.5", "--trials", "200", "--seed", "7",
         "--format", "json"],
        ["verify", "claim3", "--matrix", mat, "--tree", tree,
         "--epsilon", "0.5", "--trials", "50", "--seed", "7",
         "--format", "csv"],
        ["verify", "prop1", "--matrix", mat, "--epsilon", "0.5",
         "--format", "json"],
    ]
    unstable = []
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "parsiml.cli", *argv],
                               capture_output=True) for _ in range(2)]
        if (runs[0].stdout != runs[1].stdout
                or runs[0].returncode != runs[1].returncode):
            unstable.append(" ".join(argv[:2]))
    _verdict(8, "every CLI command emits byte-identical output across two "
                "runs with the same seed",
             not unstable,
             f"{len(commands)} commands"
             + (f", unstable: {unstable}" if unstable else ""))
