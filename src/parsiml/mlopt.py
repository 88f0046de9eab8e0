"""Likelihood optimization: per-edge probabilities, then all topologies.

The fixed-tree problem is solved by coordinate descent. Along one edge the
pattern likelihood is affine in that edge's probability (every extension
term carries the factor p or 1-p exactly once), so each coordinate step
profiles the pattern values at p=0 and p=1 and then runs one fused 1-D
solve, :func:`_edge_solve`: a golden section that scores the blended cost
-sum w ln((1-x) f0 + x f1) itself, with no call per term or per point into
the likelihood module. The starts of a fit run in lockstep, each taking
exactly the steps it takes alone. They share one kept DP pass per fit
(``PathDP``); each edge then recomputes only its path to the root, p=0 and
p=1 stacked, and refreshes the kept pass if a start moved, bit for bit as a
full pass. The 1-D solve stays scalar Python with ``math.log``:
``np.log`` rounds differently, and any roundoff change could reorder
topologies tied within ``TIE_TOL``, and so change the reported winner.

Coordinate descent only guarantees a coordinate-wise optimum. That caveat is
the whole point of the problem this package studies, so it is surfaced, not
hidden: searches run from several starting points. Exhaustive topology
search runs in the calling thread (``ml_search``'s ``n_jobs`` is inert) and
is meant for desk-scale n; a fit reads every setting, seed included, from
its frozen config alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from parsiml.characters import DataMatrix
from parsiml.likelihood import CHUNK, EdgeProbs, PathDP, modified_logliks
from parsiml.parsimony import parsimony_score
from parsiml.trees import (DEFAULT_TOPOLOGY_CAP, Tree, canonical_newick,
                           enumerate_topologies)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section bracket width at which a 1-D edge solve stops.
SCALAR_TOL = 1e-12
# A start stops once a full sweep improves its cost by less than this.
TOL = 1e-10
# Coordinate-descent sweeps per start before a fit reports non-convergence.
MAX_SWEEPS = 500
# Absolute cost difference under which two topologies count as tied.
TIE_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the fixed-tree optimizer and the topology search.

    ``restarts`` counts starting points (the flip-fraction uniform start and
    uniform 0.1 first, then seeded random vectors); ``seed`` seeds the
    random starts.
    """

    restarts: int = 5
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class MLResult:
    tree: Tree
    probs: EdgeProbs
    value: float
    converged: bool
    sweeps: int
    start_values: tuple[float, ...] = field(default=(), repr=False)


def _edge_solve(weights, at0, at1) -> tuple[float, float]:
    """Minimize -sum w ln((1-x) f0 + x f1) over x in [0, 1/2].

    The 1-D restriction of the cost along one edge, given each pattern's
    value at p_e = 0 (``at0``) and p_e = 1 (``at1``), by golden section.
    The endpoints 0 and 1/2 are scored too, so boundary minima come out
    exact, and the best point ever scored is returned, not the midpoint of
    the final bracket. Each point's cost sums the zipped terms left to
    right through ``math.log``: the same operations as the reference the
    tests hold it to, so a fit's bits, and with them which of the
    topologies tied within ``TIE_TOL`` wins, do not move. The sum is
    written out at both of its sites, not called: a call per point cost
    prop1-n5 about 7% of its throughput.
    """
    terms = tuple(zip(weights, at0, at1))
    log = math.log
    a, b = 0.0, 0.5
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    scored = []
    for x in (x1, x2, a, b):
        stay = 1.0 - x
        total = 0.0
        try:
            for w, v0, v1 in terms:
                total -= w * log(stay * v0 + x * v1)
        except ValueError:  # ln 0: the blend rules a pattern out
            total = math.inf
        # roundoff guard: each value is <= 1 exactly, so the true total is
        # non-negative
        scored.append(total if total > 0.0 else 0.0)
    f1, f2, f_lo, f_hi = scored
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > SCALAR_TOL:
        left = f1 <= f2
        if left:
            b, x2, f2 = x2, x1, f1
            x = b - _INV_GOLDEN * (b - a)
        else:
            a, x1, f1 = x1, x2, f2
            x = a + _INV_GOLDEN * (b - a)
        stay = 1.0 - x
        total = 0.0
        try:
            for w, v0, v1 in terms:
                total -= w * log(stay * v0 + x * v1)
        except ValueError:
            total = math.inf
        fx = total if total > 0.0 else 0.0
        if left:
            x1, f1 = x, fx
        else:
            x2, f2 = x, fx
        # only the new point can lower the best: the kept one was compared
        # when it was new
        if fx < best_f:
            best_x, best_f = x, fx
    for x, fx in ((0.0, f_lo), (0.5, f_hi)):
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def _coordinate_descent(tree: Tree, data: DataMatrix, starts,
                        start_values) -> list[tuple]:
    """Coordinate descent from every start in lockstep.

    Returns (vector, value, converged, sweeps) per start, each exactly what
    that start reaches alone: the starts share only the fit's one kept pass,
    so at most ``CHUNK // 2`` are given (a path pass holds two rows each). A
    start stops once a sweep improves it by less than ``TOL``; its row stays.
    """
    plan = tree.rooted_plan()
    states = np.array([ch for ch, _ in data.patterns])
    weights = [float(mult) for _, mult in data.patterns]
    dp = PathDP(plan, starts, states)
    ends = np.repeat([[[0.0]], [[1.0]]], len(dp.vecs), axis=1)
    runs = [[value, False, MAX_SWEEPS] for value in start_values]
    for sweep in range(1, MAX_SWEEPS + 1):
        before = [run[0] for run in runs]
        for i in range(len(tree.edges)):
            # each vector's pattern values at p_i = 0 and at p_i = 1: those
            # at any p_i are their affine blend, which ``_edge_solve`` scores
            at0, at1 = dp.values(i, ends).tolist()
            moved = False
            for run, row, v0, v1 in zip(runs, dp.vecs, at0, at1):
                if not run[1]:
                    x, fx = _edge_solve(weights, v0, v1)
                    if fx < run[0]:
                        row[i], run[0], moved = x, fx, True
            if moved:
                dp.values(i, dp.vecs[:, i, None], store=True)
        # resync against 1-D roundoff drift
        resynced = modified_logliks(tree, dp.vecs, data)
        for run, value, old in zip(runs, resynced, before):
            if not run[1]:
                run[0] = value
                if old - value < TOL:
                    run[1:] = True, sweep
        if all(run[1] for run in runs):
            break
    return [(row.tolist(), *run) for row, run in zip(dp.vecs, runs)]


def _starting_points(tree: Tree, data: DataMatrix,
                     config: OptimizerConfig) -> list[list[float]]:
    n_edges = len(tree.edges)
    flips = parsimony_score(tree, data)
    q = min(0.5, flips / (n_edges * data.k))
    starts = [[q] * n_edges, [0.1] * n_edges]
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.restarts:
        starts.append([float(x) for x in rng.uniform(0.0, 0.5, n_edges)])
    return starts[:config.restarts]


def optimize_edges(tree: Tree, data: DataMatrix,
                   config: OptimizerConfig = OptimizerConfig()) -> MLResult:
    """Minimize the dataset cost over edge probabilities for a fixed tree.

    Runs coordinate descent from every starting point and keeps the best.
    ``converged`` is False when the winning run hit the sweep cap; the best
    vector found is returned regardless so callers can still compare.
    """
    starts = _starting_points(tree, data, config)
    start_values = tuple(modified_logliks(tree, starts, data))
    half = CHUNK // 2
    runs = [run for k in range(0, len(starts), half) for run in
            _coordinate_descent(tree, data, starts[k:k + half],
                                start_values[k:k + half])]
    vec, val, converged, sweeps = min(runs, key=lambda run: run[1])
    return MLResult(tree, EdgeProbs.from_vector(tree, vec), val,
                    converged, sweeps, start_values)


def ml_search(data: DataMatrix, config: OptimizerConfig = OptimizerConfig(),
              cap: int = DEFAULT_TOPOLOGY_CAP,
              n_jobs: int = 1) -> tuple[MLResult, list[Tree]]:
    """Optimize every binary topology in turn; return the best fit and ties.

    Topology i is fitted under ``replace(config, seed=(config.seed, i))``.
    Ties are topologies whose optimized cost is within ``TIE_TOL`` of the
    minimum, in canonical order; the result is the cheapest fit,
    canonical order breaking exact ties. ``n_jobs`` has no effect: the fits
    hold the GIL, so a thread pool only added hand-offs. It stays until the
    benchmark's next version (ROADMAP.md, item 1) stops passing it.
    """
    results = [optimize_edges(tree, data, replace(config, seed=(config.seed, i)))
               for i, tree in enumerate(enumerate_topologies(data.n, cap))]
    best = min(results, key=lambda r: (r.value, canonical_newick(r.tree)))
    tied = [r.tree for r in results if r.value <= best.value + TIE_TOL]
    tied.sort(key=canonical_newick)
    return best, tied
