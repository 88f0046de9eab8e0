"""The four benchmark workloads, built from a seed through parsiml's public API.

A workload is a batch of operations run as a closed loop in one process:
the next operation starts when the previous one returns. Every workload
uses one worker except ``ml-n6-2w``, which passes ``n_jobs=2``.

Seeds. The search workloads (prop1-n5, mp-n8, ml-n6-2w) draw, from the
seed, one leaf relabelling per base instance; seed 0 is the identity, so it
runs the base instances themselves (prop1-n5 at seed 0 is acceptance
criterion 6 verbatim). A relabelled instance is the same problem under other
leaf names: every seed poses an isomorphic problem, so the work a seed asks
for, and hence its timings, stay comparable across seeds, while the program
still sees different inputs. Exhaustive-search optima are invariant under
relabelling, which gives an exact correctness check at every seed. Drawing
fresh instances instead spreads the work of a batch by 11-22% across seeds.
claims-ladder keeps its trees and data and passes the seed to claim2 and
claim3, which draw their trial vectors from it; its work does not depend on
the seed at all.

The benchmark calls the package only through ``P.<name>`` so a tracer can
swap the names in the package namespace; see ``tracing.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import parsiml as P
import parsiml.reduction

EPSILON_CLAIMS = 0.15
# 1/EPSILON_CLAIMS as a fraction: N_c is the least N with N^3 >= M^20.
PAD_POWER, PAD_ROOT = 20, 3
FLOAT_EXACT = 2 ** 53
REL_TOL = 1e-9
WORKERS = 2  # ml-n6-2w


@dataclass
class Op:
    """One operation of a batch.

    ``run`` does the timed work and returns its output. ``signature`` turns
    the output into the JSON-able values compared against the reference;
    ``invariant`` names the entries every seed must reproduce.
    ``check`` re-derives the output with the independent oracles and
    returns a list of problems. ``units`` is the work done, in the
    workload's unit.
    """

    key: str
    run: Callable[[], object]
    signature: Callable[[object], dict]
    check: Callable[[object], list]
    units: Callable[[object], int]
    invariant: tuple[str, ...] = ()


@dataclass
class Batch:
    ops: list[Op]
    # (tree, probs, patterns) for the isolated likelihood DP probe
    dp_probes: list = field(default_factory=list)
    # n_jobs passed to the searches
    workers: int = 1




# -- inputs -----------------------------------------------------------------

def permutation(seed: int, index: int, n: int) -> list[int]:
    """Leaf relabelling for base instance ``index``; identity at seed 0."""
    if seed == 0:
        return list(range(n))
    return [int(x) for x in np.random.default_rng([seed, index]).permutation(n)]


def relabel(data: P.DataMatrix, perm: list[int]) -> P.DataMatrix:
    """Leaf i of the result carries the states of leaf perm[i] of ``data``."""
    patterns = sorted((tuple(ch[p] for p in perm), mult)
                      for ch, mult in data.patterns)
    return P.DataMatrix(data.n, tuple(patterns))


def caterpillar(n: int) -> P.Tree:
    """The maximally unbalanced binary tree on leaves 1..n."""
    internal = list(range(n + 1, 2 * n - 1))
    edges = [(1, internal[0]), (2, internal[0])]
    for idx in range(1, len(internal)):
        edges.append((internal[idx - 1], internal[idx]))
        edges.append((idx + 2, internal[idx]))
    edges.append((internal[-1], n))
    return P.Tree(n, edges)


def exact_pad_count(size: int) -> int:
    """Least N with N^PAD_ROOT >= size^PAD_POWER, in exact integers."""
    target = size ** PAD_POWER
    count = round(size ** (PAD_POWER / PAD_ROOT))
    while count ** PAD_ROOT < target:
        count += 1
    while (count - 1) ** PAD_ROOT >= target:
        count -= 1
    return count


# -- oracles ----------------------------------------------------------------

def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def same(a, b) -> bool:
    """Equal, with floats compared to a relative REL_TOL."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and close(float(a), float(b)))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def exhaustive_cost(tree: P.Tree, probs: P.EdgeProbs, data: P.DataMatrix) -> float:
    total = 0.0
    for ch, mult in data.patterns:
        total -= mult * math.log(P.char_likelihood_exhaustive(tree, probs, ch))
    return total


def brute_force_total(tree: P.Tree, data: P.DataMatrix) -> int:
    return sum(mult * P.brute_force_score(tree, ch) for ch, mult in data.patterns)


def check_ml_winner(best, data: P.DataMatrix) -> list[str]:
    if not math.isfinite(best.value):
        return [f"non-finite ML cost {best.value}"]
    oracle = exhaustive_cost(best.tree, best.probs, data)
    if not close(best.value, oracle):
        return [f"ML cost {best.value!r} != exhaustive {oracle!r}"]
    return []


def check_mp_optima(score: int, newicks, data: P.DataMatrix) -> list[str]:
    problems = []
    for text in newicks:
        brute = brute_force_total(P.parse_newick(text), data)
        if brute != score:
            problems.append(f"MP optimum {text} scores {brute}, reported {score}")
    return problems


# -- prop1-n5 ---------------------------------------------------------------

def _prop1_op(j: int, data: P.DataMatrix) -> Op:
    config = P.OptimizerConfig(seed=j)

    def run():
        # keep ml_search's winner (verify_prop1_chain reports only its
        # cost) so the check can re-evaluate it at the returned vector
        captured = []
        inner = parsiml.reduction.ml_search

        def tap(*args, **kwargs):
            out = inner(*args, **kwargs)
            captured.append(out)
            return out

        parsiml.reduction.ml_search = tap
        try:
            report = P.verify_prop1_chain(data, 0.5, config)
        finally:
            parsiml.reduction.ml_search = inner
        return report, captured[0][0]

    def signature(out):
        report, _ = out
        d = report.details
        return {"verdict": report.verdict,
                "preconditions_met": report.preconditions_met,
                "lhs": report.lhs, "bound": report.bound,
                "mp_score": d["mp_score"],
                "mp_optimum_count": d.get("mp_optimum_count",
                                          len(d.get("mp_optima", ()))),
                "mp_optima": d.get("mp_optima"),
                "ml_tree": d.get("ml_tree"), "ml_cost": d.get("ml_cost"),
                "ml_ties": d.get("ml_ties")}

    def check(out):
        report, best = out
        problems = [f"non-finite {name} {value}"
                    for name, value in (("lhs", report.lhs),
                                        ("bound", report.bound))
                    if not math.isfinite(value)]
        padded = P.pad_constant_sites(data, 0.5).padded
        problems += check_ml_winner(best, padded)
        d = report.details
        if "ml_cost" in d and d["ml_cost"] != best.value:
            problems.append("report ml_cost differs from the ml_search winner")
        problems += check_mp_optima(d["mp_score"], d.get("mp_optima", ()), data)
        return problems

    return Op(f"j={j}", run, signature, check, lambda out: P.topology_count(5),
              invariant=("mp_score", "mp_optimum_count"))


def build_prop1(seed: int, smoke: bool) -> Batch:
    count = 2 if smoke else 20
    datas = [relabel(P.random_instance(5, 3 + j % 4, j), permutation(seed, j, 5))
             for j in range(count)]
    patterns = sorted({(0,) * 5}.union(*({ch for ch, _ in data.patterns}
                                         for data in datas)))
    tree = next(P.enumerate_topologies(5))
    return Batch([_prop1_op(j, data) for j, data in enumerate(datas)],
                 [(tree, P.EdgeProbs.uniform(tree, 0.1), patterns)])


# -- claims-ladder ----------------------------------------------------------

def _claim_ops(n: int, tree: P.Tree, padded: P.PaddedInstance, seed: int,
               trials2: int, trials3: int) -> list[Op]:
    def signature(report):
        return {"verdict": report.verdict,
                "preconditions_met": report.preconditions_met,
                "lhs": report.lhs, "bound": report.bound,
                "trials": report.trials,
                "score": report.details.get("score")}

    def consistent(report, expected_trials) -> list[str]:
        problems = []
        if not (math.isfinite(report.lhs) and math.isfinite(report.bound)):
            problems.append(f"non-finite lhs/bound {report.lhs}/{report.bound}")
        if report.verdict not in ("pass", "fail", "inconclusive"):
            problems.append(f"unknown verdict {report.verdict}")
        if report.verdict == "pass" and report.margin < 0:
            problems.append(f"pass with negative margin {report.margin}")
        if expected_trials is not None and report.trials != expected_trials:
            problems.append(f"{report.trials} trials, expected {expected_trials}")
        return problems

    def check1(report):
        problems = consistent(report, None)
        # the DP value does not depend on its anchor: recompute from leaf n
        probs = P.EdgeProbs.uniform(tree, report.q)
        data = padded.padded
        values = P.pattern_likelihoods(tree, probs,
                                       [ch for ch, _ in data.patterns],
                                       anchor=n)
        cost = -sum(m * math.log(f) for (_, m), f in zip(data.patterns, values))
        recheck = cost / math.log(data.k)
        if not close(report.lhs, recheck):
            problems.append(f"claim1 lhs {report.lhs!r} != re-anchored {recheck!r}")
        return problems

    def check3(report):
        # random vectors, the canonical q, the optimized probe, and six
        # threshold probes when p_bar < 1/E
        probes = 6 if report.details.get("threshold_probes") else 0
        return consistent(report, trials3 + 2 + probes)

    prefix = f"n={n} "
    return [
        Op(prefix + "claim1",
           lambda: P.verify_claim1(padded, tree, epsilon=EPSILON_CLAIMS),
           signature, check1, lambda r: 1,
           invariant=("lhs", "bound", "score", "verdict", "preconditions_met")),
        Op(prefix + f"claim2 trials={trials2}",
           lambda: P.verify_claim2(padded, tree, trials=trials2, seed=seed),
           signature, lambda r: consistent(r, trials2), lambda r: r.trials,
           invariant=("bound", "score", "preconditions_met")),
        Op(prefix + f"claim3 trials={trials3}",
           lambda: P.verify_claim3(padded, tree, trials=trials3, seed=seed,
                                   epsilon=EPSILON_CLAIMS),
           signature, check3, lambda r: r.trials,
           invariant=("bound", "score", "preconditions_met")),
    ]


def build_claims(seed: int, smoke: bool) -> Batch:
    sizes = (16,) if smoke else (16, 24, 32)
    trials2, trials3 = (100, 20) if smoke else (1000, 200)
    ops, probes = [], []
    for n in sizes:
        tree = caterpillar(n)
        base = P.random_instance(n, 2 * n, 0)
        size = max(2 * n, base.k)
        pad_count = exact_pad_count(size)
        if base.k + pad_count > FLOAT_EXACT:
            raise ValueError(f"k + N_c = {base.k + pad_count} exceeds 2^53")
        padded = P.pad_with_count(base, pad_count)
        ops += _claim_ops(n, tree, padded, seed, trials2, trials3)
        probes.append((tree, P.EdgeProbs.uniform(tree, 0.01),
                       [ch for ch, _ in padded.padded.patterns]))
    return Batch(ops, probes)


# -- mp-n8 ------------------------------------------------------------------

def _mp_op(k: int, data: P.DataMatrix) -> Op:
    def signature(out):
        score, optima = out
        return {"score": score, "optimum_count": len(optima),
                "optima": [P.canonical_newick(t) for t in optima]}

    def check(out):
        score, optima = out
        return check_mp_optima(score, [P.canonical_newick(t) for t in optima],
                               data)

    pairs = P.topology_count(data.n) * len(data.patterns)
    return Op(f"k={k}", lambda: P.mp_search(data), signature, check,
              lambda out: pairs, invariant=("score", "optimum_count"))


def build_mp(seed: int, smoke: bool) -> Batch:
    ks = (8,) if smoke else (8, 24, 64)
    return Batch([_mp_op(k, relabel(P.random_instance(8, k, 3),
                                    permutation(seed, k, 8)))
                  for k in ks])


# -- ml-n6-2w ---------------------------------------------------------------

def _ml_op(data: P.DataMatrix) -> Op:
    config = P.OptimizerConfig(seed=0)

    def signature(out):
        best, ties = out
        return {"ml_tree": P.canonical_newick(best.tree), "ml_cost": best.value,
                "converged": best.converged, "sweeps": best.sweeps,
                "ml_ties": [P.canonical_newick(t) for t in ties]}

    return Op(f"n={data.n}", lambda: P.ml_search(data, config, n_jobs=WORKERS),
              signature, lambda out: check_ml_winner(out[0], data),
              lambda out: P.topology_count(data.n))


def build_ml(seed: int, smoke: bool) -> Batch:
    n = 5 if smoke else 6
    padded = P.pad_constant_sites(
        relabel(P.random_instance(n, 6, 0), permutation(seed, 0, n)), 0.5).padded
    tree = next(P.enumerate_topologies(n))
    return Batch([_ml_op(padded)],
                 [(tree, P.EdgeProbs.uniform(tree, 0.1),
                   [ch for ch, _ in padded.patterns])], workers=WORKERS)


# name -> build(seed, smoke); why each exists: rationale.json
WORKLOADS = {
    "prop1-n5": build_prop1,
    "claims-ladder": build_claims,
    "mp-n8": build_mp,
    "ml-n6-2w": build_ml,
}
