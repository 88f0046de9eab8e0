"""Likelihood optimization: per-edge probabilities, then all topologies.

The fixed-tree problem is solved by coordinate descent. Along one edge the
pattern likelihood is affine in that edge's probability (every extension
term carries the factor p or 1-p exactly once), so each coordinate step
profiles the pattern values at p=0 and p=1 and then runs a golden-section
search on the cheap 1-D restriction. The starts of a fit run in lockstep,
one batched DP pass per edge for all of them, each taking exactly the steps
it takes alone. The fit calls the likelihood kernels directly: costs come
from ``modified_logliks`` and the per-edge profiles from ``pattern_values``.
The 1-D search stays scalar: roundoff in it could reorder topologies tied
within ``TIE_TOL``, and so change the reported winner.

Coordinate descent only guarantees a coordinate-wise optimum. That caveat is
the whole point of the problem this package studies, so it is surfaced, not
hidden: searches run from several starting points, and a grid sweep with
two refinement rounds (final step 1/512, :func:`grid_minimum`) serves as an
oracle on small instances. Exhaustive topology search runs in the calling
thread (``ml_search``'s ``n_jobs`` is inert) and is meant for desk-scale n;
a fit reads every setting, seed included, from its frozen config alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from parsiml.characters import DataMatrix
from parsiml.likelihood import (CHUNK, EdgeProbs, cost, modified_logliks,
                                pattern_values)
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


def _coordinate_descent(tree: Tree, data: DataMatrix, starts,
                        start_values) -> list[tuple]:
    """Coordinate descent from every start in lockstep.

    Returns (vector, value, converged, sweeps) per start, each exactly what
    that start reaches alone: the starts share only the DP passes. A start
    leaves the batch once a sweep improves it by less than ``TOL``.
    """
    plan = tree.rooted_plan()
    states = np.array([ch for ch, _ in data.patterns])
    weights = [float(mult) for _, mult in data.patterns]
    runs = [[[float(x) for x in start], value, False, MAX_SWEEPS]
            for start, value in zip(starts, start_values)]
    active = runs
    for sweep in range(1, MAX_SWEEPS + 1):
        before = [run[1] for run in active]
        for i in range(len(tree.edges)):
            # each vector with p_i = 0 and with p_i = 1: the pattern values
            # at any p_i are their affine blend, scored by ``cost``
            rows = np.repeat(np.asarray([run[0] for run in active]), 2, axis=0)
            rows[:, i] = np.tile([0.0, 1.0], len(active))
            values = [row for k in range(0, len(rows), CHUNK) for row in
                      pattern_values(plan, rows[k:k + CHUNK], states).tolist()]
            for run, at0, at1 in zip(active, values[0::2], values[1::2]):
                x, fx = golden_section_minimize(
                    lambda t: cost(weights, at0, at1, t), 0.0, 0.5)
                if fx < run[1]:
                    run[0][i], run[1] = x, fx
        # resync against 1-D roundoff drift
        resynced = modified_logliks(tree, [run[0] for run in active], data)
        for run, value, old in zip(active, resynced, before):
            run[1] = value
            if old - value < TOL:
                run[2:] = True, sweep
        active = [run for run in active if not run[2]]
        if not active:
            break
    return [tuple(run) for run in runs]


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


def grid_minimum(tree: Tree, data: DataMatrix):
    """Best cost on a product grid over [0, 1/2]^edges, then refined.

    Steps 1/8, then 1/64 and 1/512 on a box of one old step around the
    incumbent. Exponential in the edge count; meant for at most five edges.
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


def optimize_edges(tree: Tree, data: DataMatrix,
                   config: OptimizerConfig = OptimizerConfig()) -> MLResult:
    """Minimize the dataset cost over edge probabilities for a fixed tree.

    Runs coordinate descent from every starting point and keeps the best.
    ``converged`` is False when the winning run hit the sweep cap; the best
    vector found is returned regardless so callers can still compare.
    """
    starts = _starting_points(tree, data, config)
    start_values = tuple(modified_logliks(tree, starts, data))
    best = None
    for run in _coordinate_descent(tree, data, starts, start_values):
        if best is None or run[1] < best[1]:
            best = run
    vec, val, converged, sweeps = best
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
