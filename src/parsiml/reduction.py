"""Numerical verifiers for the padding reduction's inequality chain.

After a matrix X on a tree T is padded with N_c all-zero columns, the
normalized cost

    -ln(padded likelihood) / ln(k + N_c)

is squeezed against the flip score l(X, T). The checks here measure that
squeeze at desk scale:

  claim1  At the canonical uniform probability q = l / (E (k + N_c)) the
          normalized cost is at most (1 + 2 eps) l. Its proof rests on the
          per-character inequality ln f >= l_chi ln q - E (q + 2 q^2),
          which holds for every q in (0, 1/2] with no size caveat and is
          asserted unconditionally.
  claim2  Any vector with some edge above the threshold
          p_bar = l ln(k + N_c) / N_c forces the normalized cost strictly
          above l. Unconditional; checked on randomized conditioned trials.
  claim3  Every vector keeps the normalized cost at least (1 - 5 eps) l
          once the instance is large enough. Its per-character ingredient
          f <= E (E p_bar)^l_chi (all edges at most p_bar < 1/E) is
          asserted unconditionally on probe vectors.
  prop1   End to end: exhaustive likelihood search on the padded data is
          compared, link by link, against the best flip score.

The upper and lower bounds hold "for instances large enough" without an
explicit constant, so each verifier grades a failed bound as inconclusive
when the instance size M is below a configurable threshold, and only as a
failure above it. Margins are always reported either way; the unconditional
per-character inequalities have no such escape hatch and any violation is a
hard failure. That rule lives in one place, :func:`_grade`, and every report
is built by :func:`_report`, which fills the fields all checks share. Both
per-character inequalities are graded on ln f, by :func:`_per_char_violations`,
so the slack is relative to f however far below 1e-12 a bound on f falls.
Costs are scored on raw edge vectors by :func:`normalized_costs`. No check
reads a clock: ``runtime_ms`` stays None unless the CLI times the check.
Defaults live here, not in the CLI (claim2 and claim3 draw 1000 trials), and
an epsilon given to claim1 or claim3 passes the padding's (0, 1] rule.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from parsiml.characters import (DataMatrix, PaddedInstance, _check_epsilon,
                                pad_constant_sites)
# modified_loglik and pattern_likelihoods stay only for the bench tracer
from parsiml.likelihood import (_pattern_logs, modified_loglik,
                                modified_logliks, pattern_likelihoods)
from parsiml.mlopt import OptimizerConfig, ml_search, optimize_edges
from parsiml.parsimony import mp_search, parsimony_score, pattern_scores
from parsiml.trees import DEFAULT_TOPOLOGY_CAP, Tree, canonical_newick

DEFAULT_M_MIN = 32
# claim3's deterministic per-edge grid (step 1/8) on trees with at most
# five edges.
CLAIM3_GRID = (0.0, 0.125, 0.25, 0.375, 0.5)
# prop1 chain link (i) slack: the optimized cost may exceed the canonical-q
# cost of a flip optimum by this much before the link counts as broken.
CHAIN_TOL = 1e-8
# Slack on ln f in the unconditional per-character checks.
_PER_CHAR_SLACK = 1e-12

CSV_FIELDS = ("check", "instance", "epsilon", "M", "N_c", "q", "p_bar",
              "lhs", "bound", "margin", "verdict", "trials", "seed",
              "runtime_ms")
# JSON key -> report field for the quantities; other fields keep their names.
_QUANTITIES = {"epsilon": "epsilon", "M": "size", "N_c": "pad_count", "q": "q",
               "p_bar": "p_bar"}


@dataclass(frozen=True)
class ReductionQuantities:
    """The derived numbers every check shares, exact functions of the
    instance: flip score l of the base matrix on the tree, edge count E,
    total column count k + N_c, and the pad size N_c."""

    score: int
    n_edges: int
    total_chars: int
    pad_count: int

    @property
    def q(self) -> float:
        """Canonical uniform edge probability l / (E (k + N_c))."""
        return self.score / (self.n_edges * self.total_chars)

    @property
    def p_bar(self) -> float:
        """Edge threshold l ln(k + N_c) / N_c."""
        return self.score * math.log(self.total_chars) / self.pad_count

    @property
    def normalizer(self) -> float:
        """ln(k + N_c), the denominator of the normalized cost."""
        return math.log(self.total_chars)


def quantities_for(tree: Tree, padded: PaddedInstance) -> ReductionQuantities:
    score = parsimony_score(tree, padded.base)
    return ReductionQuantities(score, len(tree.edges), padded.padded.k,
                               padded.pad_count)


def normalized_costs(tree: Tree, vecs, padded: PaddedInstance):
    """Padded dataset cost divided by ln(k + N_c) at each raw edge vector,
    lazily, in batches; >= 0, +inf propagates."""
    scale = math.log(padded.padded.k)
    return (c / scale for c in modified_logliks(tree, vecs, padded.padded))


@dataclass
class VerifierReport:
    """Outcome of one check.

    ``lhs`` and ``bound`` are oriented by ``direction`` ("lhs<=bound" or
    "lhs>=bound") and ``margin`` is the slack toward the inequality, so a
    pass always shows margin >= 0 regardless of which side was bounded.
    ``verdict`` is "pass", "fail", or "inconclusive"; the last is reserved
    for a failed size-conditioned bound on an instance below the size
    threshold. ``note`` explains degenerate or vacuous short-circuits.
    """

    check: str
    instance: str
    epsilon: float | None
    size: int
    pad_count: int
    q: float | None
    p_bar: float | None
    lhs: float
    bound: float
    direction: str
    preconditions_met: bool
    verdict: str
    note: str = ""
    trials: int | None = None
    seed: int | None = None
    runtime_ms: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        if self.direction == "lhs<=bound":
            return self.bound - self.lhs
        return self.lhs - self.bound

    def to_json_dict(self) -> dict:
        row = {name: value for name, value in vars(self).items()
               if name not in _QUANTITIES.values()}
        row["quantities"] = {key: getattr(self, name)
                             for key, name in _QUANTITIES.items()}
        return {**row, "margin": self.margin}

    def to_json(self) -> str:
        return json.dumps(jsonable(self.to_json_dict()), sort_keys=True,
                          indent=2) + "\n"

    def to_csv_row(self) -> str:
        row = self.to_json_dict()
        row.update(row.pop("quantities"))
        return csv_text([format_cell(row[name]) for name in CSV_FIELDS])

    def to_text(self) -> str:
        lines = [
            f"check     {self.check}",
            f"instance  {self.instance}",
            "quantities  " + " ".join(
                f"{key}={format_cell(getattr(self, name))}"
                for key, name in _QUANTITIES.items()),
            f"inequality  lhs={format_cell(self.lhs)} "
            f"{'<=' if self.direction == 'lhs<=bound' else '>='} "
            f"bound={format_cell(self.bound)}  margin={format_cell(self.margin)}",
            f"verdict   {self.verdict.upper()}"
            + (f"  ({self.note})" if self.note else ""),
        ]
        if self.trials is not None:
            lines.append(f"trials    {self.trials}  seed={self.seed}")
        if self.runtime_ms is not None:
            lines.append(f"runtime   {format_cell(self.runtime_ms)} ms")
        return "\n".join(lines) + "\n"


def csv_text(*rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else jsonable(value)
    return value


def jsonable(obj):
    if isinstance(obj, dict):
        return {key: jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan"
    return obj


def _per_char_violations(tree: Tree, padded: PaddedInstance, vecs,
                         low, high) -> int:
    """Count (vector, pattern) pairs whose ln f leaves [low(l), high(l)],
    l the pattern's flip score, by more than ``_PER_CHAR_SLACK``; one
    flip-score pass and one :func:`_pattern_logs` pass serve all ``vecs``."""
    patterns = [ch for ch, _ in padded.padded.patterns]
    bounds = [(low(flips) - _PER_CHAR_SLACK, high(flips) + _PER_CHAR_SLACK)
              for flips in pattern_scores(tree, patterns)]
    return sum(not lo <= log_value <= hi
               for logs in _pattern_logs(tree, vecs, patterns)
               for log_value, (lo, hi) in zip(logs, bounds))


def _epsilon(padded: PaddedInstance, epsilon: float | None) -> float:
    """``epsilon``, else the padding's; refused if unset or outside (0, 1]."""
    epsilon = padded.epsilon if epsilon is None else epsilon
    if epsilon is None:
        raise ValueError("epsilon is required (the padding carried none)")
    return _check_epsilon(epsilon)


def _report(check: str, padded: PaddedInstance, tree: Tree | None,
            qty: ReductionQuantities, epsilon: float | None,
            **fields) -> VerifierReport:
    """A report with the fields every check fills alike: the instance
    (tree-less when ``tree`` is None), the epsilon its caller resolved,
    M, N_c, q and p_bar."""
    instance = f"n={padded.base.n} k={padded.base.k} N_c={qty.pad_count}"
    if tree is not None:
        instance += f" tree={canonical_newick(tree)}"
    return VerifierReport(
        check=check, instance=instance,
        epsilon=epsilon, size=padded.size, pad_count=qty.pad_count,
        q=qty.q, p_bar=qty.p_bar, **fields)


def _grade(hard: str, held: bool, preconditions: bool, small_note: str,
           pass_note="", large_note="bound failed on a large instance"):
    """The one verdict rule, as ``(verdict, note)``.

    A hard violation (a non-empty ``hard`` note) fails; a bound that held
    passes; a failed bound is inconclusive when the preconditions are
    unmet, and fails otherwise.
    """
    if hard:
        return "fail", hard
    if held:
        return "pass", pass_note
    if not preconditions:
        return "inconclusive", small_note
    return "fail", large_note


def _degenerate_report(check: str, padded: PaddedInstance, tree: Tree,
                       qty: ReductionQuantities,
                       epsilon: float | None) -> VerifierReport:
    # l = 0 means every character is constant; padding changes nothing and
    # the all-zero probability vector already achieves cost 0 = l. q and
    # p_bar are exactly 0.0 at l = 0.
    lhs = next(normalized_costs(tree, [[0.0] * len(tree.edges)], padded))
    return _report(check, padded, tree, qty, epsilon, lhs=lhs, bound=0.0,
                   direction="lhs<=bound", preconditions_met=True,
                   verdict="pass",
                   note="degenerate: flip score is 0, cost 0 attained at p = 0")


def verify_claim1(padded: PaddedInstance, tree: Tree,
                  epsilon: float | None = None,
                  m_min: int = DEFAULT_M_MIN) -> VerifierReport:
    """Upper bound at the canonical uniform probability.

    Sets every edge to q = l / (E (k + N_c)) and requires the normalized
    cost to stay at most (1 + 2 eps) l. The unconditional per-character
    lower bound is asserted alongside; a failed headline bound on an
    instance with M below ``m_min`` is graded inconclusive.
    """
    epsilon = _epsilon(padded, epsilon)
    qty = quantities_for(tree, padded)
    if qty.score == 0:
        return _degenerate_report("claim1", padded, tree, qty, epsilon)

    q = qty.q
    lhs = next(normalized_costs(tree, [[q] * len(tree.edges)], padded))
    bound = (1.0 + 2.0 * epsilon) * qty.score
    drop = len(tree.edges) * (q + 2 * q * q)
    per_char_bad = _per_char_violations(
        tree, padded, [[q] * len(tree.edges)],
        low=lambda flips: flips * math.log(q) - drop,
        high=lambda flips: math.inf)
    preconditions = padded.size >= m_min
    verdict, note = _grade(
        f"{per_char_bad} per-character lower-bound violations"
        if per_char_bad else "", lhs <= bound, preconditions,
        f"bound failed but M={padded.size} < M_min={m_min}")
    return _report(
        "claim1", padded, tree, qty, epsilon, lhs=lhs, bound=bound,
        direction="lhs<=bound", preconditions_met=preconditions,
        verdict=verdict, note=note,
        details={"score": qty.score,
                 "per_char_checked": len(padded.padded.patterns),
                 "per_char_violations": per_char_bad})


def verify_claim2(padded: PaddedInstance, tree: Tree, trials: int = 1000,
                  seed: int = 0) -> VerifierReport:
    """Contrapositive threshold check, unconditional.

    Draws ``trials`` vectors uniform on [0, 1/2] per edge, forces one
    designated edge (rotating) strictly above p_bar, and requires every
    normalized cost to exceed the flip score. Reports the smallest observed
    gap. Vacuous when p_bar >= 1/2, since no admissible vector can cross
    the threshold.
    """
    if trials < 1:
        raise ValueError(f"claim2 needs trials >= 1, got {trials}")
    epsilon = padded.epsilon
    qty = quantities_for(tree, padded)
    if qty.score == 0:
        return _degenerate_report("claim2", padded, tree, qty, epsilon)
    p_bar = qty.p_bar
    if p_bar >= 0.5:
        return _report(
            "claim2", padded, tree, qty, epsilon, lhs=math.inf,
            bound=float(qty.score), direction="lhs>=bound",
            preconditions_met=True, verdict="pass",
            note=f"vacuous: p_bar={p_bar} >= 1/2, no admissible vector "
                 "exceeds the threshold",
            trials=0, seed=seed)

    rng = np.random.default_rng(seed)
    n_edges = len(tree.edges)

    def draws():
        for t in range(trials):
            vec = [float(x) for x in rng.uniform(0.0, 0.5, n_edges)]
            # value in (p_bar, 1/2]: 1 - random() lies in (0, 1]
            vec[t % n_edges] = (p_bar
                                + (0.5 - p_bar) * (1.0 - float(rng.random())))
            yield vec

    worst, violations = math.inf, 0
    for cost in normalized_costs(tree, draws(), padded):  # never held
        worst = min(worst, cost)
        violations += cost <= qty.score
    verdict, note = _grade(f"{violations} trials at or below the score"
                           if violations else "", True, True, "")
    return _report(
        "claim2", padded, tree, qty, epsilon, lhs=worst,
        bound=float(qty.score), direction="lhs>=bound", preconditions_met=True,
        verdict=verdict, note=note, trials=trials, seed=seed,
        details={"score": qty.score, "violations": violations,
                 "min_gap": worst - qty.score if math.isfinite(worst) else None})


def verify_claim3(padded: PaddedInstance, tree: Tree, trials: int = 1000,
                  seed: int = 0, epsilon: float | None = None,
                  m_min: int = DEFAULT_M_MIN) -> VerifierReport:
    """Lower bound over the whole probability box.

    Evaluates the normalized cost on seeded random vectors, a deterministic
    coarse grid when the tree has at most five edges, the canonical uniform
    q, an optimized vector (the hardest point for a lower bound), and probe
    vectors inside [0, p_bar] when p_bar < 1/E (those probes also feed the
    unconditional per-character upper bound). The minimum observed cost
    must reach (1 - 5 eps) l; when it does not, the verdict degrades to
    inconclusive only if the instance is below the size threshold.
    """
    if trials < 0:
        raise ValueError(f"claim3 needs trials >= 0, got {trials}")
    epsilon = _epsilon(padded, epsilon)
    qty = quantities_for(tree, padded)
    if qty.score == 0:
        return _degenerate_report("claim3", padded, tree, qty, epsilon)

    n_edges = len(tree.edges)
    p_bar = qty.p_bar
    below_threshold = p_bar < 1.0 / n_edges
    rng = np.random.default_rng(seed)
    # the trials are the rng's first draws: scored as drawn, never held
    trial_min = min(normalized_costs(
        tree, ([float(x) for x in rng.uniform(0.0, 0.5, n_edges)]
               for _ in range(trials)), padded), default=math.inf)
    vectors = [[qty.q] * n_edges]
    fit = optimize_edges(tree, padded.padded,
                         OptimizerConfig(restarts=2, seed=seed))
    vectors.append(fit.probs.vector(tree))
    if n_edges <= 5:
        vectors.extend(list(point) for point in
                       itertools.product(CLAIM3_GRID, repeat=n_edges))
    per_char_bad = 0
    if below_threshold:
        probes = [[p_bar] * n_edges]
        probes.extend([[p_bar * float(x) for x in rng.random(n_edges)]
                       for _ in range(5)])
        # ln f <= ln E + l ln(E p_bar); at l = 0 that is ln E >= 0 >= ln f
        per_char_bad = _per_char_violations(
            tree, padded, probes, low=lambda flips: -math.inf,
            high=lambda flips: (math.log(n_edges)
                                + flips * math.log(n_edges * p_bar)))
        vectors.extend(probes)

    lhs = min(trial_min, *normalized_costs(tree, vectors, padded))
    bound = (1.0 - 5.0 * epsilon) * qty.score
    preconditions = below_threshold and padded.size >= m_min
    verdict, note = _grade(
        f"{per_char_bad} per-character upper-bound violations"
        if per_char_bad else "", lhs >= bound, preconditions,
        f"bound failed with preconditions unmet "
        f"(p_bar<1/E: {below_threshold}, M={padded.size}, "
        f"M_min={m_min})",
        pass_note="" if bound > 0 else "bound is non-positive at this epsilon")
    return _report(
        "claim3", padded, tree, qty, epsilon, lhs=lhs, bound=bound,
        direction="lhs>=bound", preconditions_met=preconditions,
        verdict=verdict, note=note, trials=trials + len(vectors), seed=seed,
        details={"score": qty.score, "per_char_violations": per_char_bad,
                 "threshold_probes": below_threshold})


def verify_prop1_chain(base: DataMatrix, epsilon: float,
                       config: OptimizerConfig = OptimizerConfig(),
                       m_min: int = DEFAULT_M_MIN,
                       cap: int = DEFAULT_TOPOLOGY_CAP) -> VerifierReport:
    """End-to-end reduction experiment with exact search standing in for a
    hypothetical approximation algorithm (ratio 1 + c with c = 0).

    Finds the best flip score l** over all binary topologies, pads the
    matrix, then minimizes the padded cost over topologies and edge
    probabilities. Asserts, with measured numbers:

      (i)  the optimized normalized cost is at most the normalized cost of
           any flip-optimal tree at its canonical uniform q, up to
           ``CHAIN_TOL`` (exact search can only do better than one candidate);
      (ii) the winner's flip score is at most (1 + 2 eps)/(1 - 5 eps) l**,
           asserted only for eps < 0.2 (the ratio is positive there) on
           instances past the size threshold.

    Whether the likelihood winner is exactly a flip-score optimum is
    reported, not asserted: the squeeze only promises the ratio.
    """
    best_score, mp_optima = mp_search(base, cap=cap)
    padded = pad_constant_sites(base, epsilon)
    qty = ReductionQuantities(best_score, 2 * base.n - 3, padded.padded.k,
                              padded.pad_count)

    ml_best, ml_ties = ml_search(padded.padded, config, cap=cap)
    lhs_opt = ml_best.value / qty.normalizer

    if best_score == 0:
        # every character constant: every topology is optimal on both sides
        return _report(
            "prop1", padded, None, qty, epsilon, lhs=lhs_opt,
            bound=CHAIN_TOL, direction="lhs<=bound", preconditions_met=True,
            verdict="pass" if lhs_opt <= CHAIN_TOL else "fail",
            note="degenerate: flip score is 0, all topologies tie",
            seed=config.seed,
            details={"mp_score": 0, "ml_tie_count": len(ml_ties),
                     "mp_optimum_count": len(mp_optima)})

    rhs = min(next(normalized_costs(t, [[qty.q] * len(t.edges)], padded))
              for t in mp_optima)
    winner_score = parsimony_score(ml_best.tree, base)
    ratio_applies = epsilon < 0.2
    size_ok = padded.size >= m_min
    chain_ii_bound = ((1.0 + 2.0 * epsilon) / (1.0 - 5.0 * epsilon) * best_score
                      if ratio_applies else None)
    chain_ii_ok = (winner_score <= chain_ii_bound) if ratio_applies else None
    verdict, note = _grade(
        "" if lhs_opt <= rhs + CHAIN_TOL
        else "optimized cost exceeds the canonical-q cost of a flip optimum",
        not ratio_applies or chain_ii_ok, size_ok,
        f"ratio bound failed but M={padded.size} < M_min={m_min}",
        pass_note="" if ratio_applies
        else "ratio not asserted at epsilon >= 0.2; measurements only",
        large_note="ratio bound failed on a large instance")

    return _report(
        "prop1", padded, None, qty, epsilon, lhs=lhs_opt,
        bound=rhs + CHAIN_TOL, direction="lhs<=bound",
        preconditions_met=ratio_applies and size_ok, verdict=verdict,
        note=note, seed=config.seed,
        details={
            "mp_score": best_score,
            "ml_tree": canonical_newick(ml_best.tree),
            "ml_tree_score": winner_score,
            "ml_cost": ml_best.value,
            "ml_normalized": lhs_opt,
            "mp_optima": [canonical_newick(t) for t in mp_optima],
            "canonical_q_cost": rhs,
            "is_mp_optimum": winner_score == best_score,
            "ratio_bound": chain_ii_bound,
            "ratio_ok": chain_ii_ok,
            "ml_ties": [canonical_newick(t) for t in ml_ties],
        })
