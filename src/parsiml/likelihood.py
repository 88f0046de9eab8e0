"""Exact likelihood under the two-state symmetric flip model.

Each edge e flips the state crossing it with probability p_e in [0, 1/2].
The per-character quantity computed throughout is the root-free sum over all
internal-state extensions of the product of edge factors, i.e. twice the
sampling probability of the character (the uniform root contributes the
factor 1/2 that is dropped). Values live in [0, 1]; the dataset-level score
is the non-negative number

    cost(X; T, p) = -sum over patterns of N_chi * ln f_chi

carried in log space so multiplicities in the millions never touch a power.
A pattern with zero likelihood (possible once some p_e = 0) makes the cost
+inf, which compares correctly against every finite value; a pattern value
that merely underflows is recomputed in log space and stays finite.

Two evaluators are provided on purpose: a term-by-term sum over
``trees._extensions`` and a dynamic program over the tree. They share
nothing but the model, so agreement is evidence, not tautology. The DP
(:func:`pattern_values`) runs over a batch of edge vectors times every
pattern at once with numpy, in the scalar recursion's operation order, so
batching changes no bit of any value; a kept pass (:class:`PathDP`)
recomputes only the path from a moved edge to the root, bit for bit. Its
values become ln f in one place
(:func:`_pattern_logs`), underflow rescue included, and the dataset cost is
one left-to-right sum over those logs: its summation order is part of every
reported number. That sum, in :func:`modified_logliks`, is the one
-sum w ln f loop in the package beside the edge optimizer's 1-D solve
(``mlopt._edge_solve``), which scores blends of two profiles.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from parsiml.characters import DataMatrix, _check_character
from parsiml.trees import Edge, Tree, _extensions, _normalize_edge

_NORMAL_MIN = sys.float_info.min  # below it a double is subnormal or zero
# Edge vectors per DP pass: bounds what is held.
CHUNK = 64


class EdgeProbs:
    """Per-edge flip probabilities, each in [0, 1/2].

    Values outside the interval are rejected at construction, not clamped;
    a clamped input would hide optimizer bugs behind a legal-looking vector.
    """

    __slots__ = ("_by_edge",)

    def __init__(self, mapping):
        mapping = dict(mapping)
        values = _checked_vector(list(mapping), mapping.values())
        self._by_edge = {_normalize_edge(int(u), int(v)): p
                         for (u, v), p in zip(mapping, values)}

    @classmethod
    def uniform(cls, tree: Tree, q: float) -> "EdgeProbs":
        return cls({e: q for e in tree.edges})

    @classmethod
    def from_vector(cls, tree: Tree, values) -> "EdgeProbs":
        return cls(dict(zip(tree.edges, _checked_vector(tree.edges, values))))

    def __getitem__(self, edge) -> float:
        return self._by_edge[_normalize_edge(*edge)]

    def items(self):
        return sorted(self._by_edge.items())

    def vector(self, tree: Tree) -> list[float]:
        """Values aligned with ``tree.edges``; the key sets must match."""
        ours = set(self._by_edge)
        theirs = set(tree.edges)
        if ours != theirs:
            missing = sorted(theirs - ours)
            extra = sorted(ours - theirs)
            raise ValueError(
                f"edge probabilities do not match the tree "
                f"(missing {missing}, extra {extra})")
        return [self._by_edge[e] for e in tree.edges]

    def __repr__(self):
        inner = ", ".join(f"({u},{v}): {p}" for (u, v), p in self.items())
        return f"EdgeProbs({{{inner}}})"


def _hang(p, c0, c1):
    """The pair a child's (like0, like1) hangs on its parent's edge."""
    stay = 1.0 - p
    return stay * c0 + p * c1, p * c0 + stay * c1


def _product(children, hung, i=None, pair=None):
    """Children's hung pairs, edge ``i``'s replaced by ``pair``, multiplied
    in plan order; the first starts the product (the recursion's 1.0 * y)."""
    like = None
    for _, ei in children:
        h = pair if ei == i else hung[ei]
        like = h if like is None else (like[0] * h[0], like[1] * h[1])
    return like


def _down_pass(plan, vecs, states, keep=False):
    """``(down, hung)``: each vertex's (like0, like1) and each edge's hung
    pair at B raw edge vectors and P ``states``, (B, P) arrays (a leaf's
    (P,)), up a postorder ``plan``. Without ``keep`` a pair goes once used."""
    vecs = np.asarray(vecs, dtype=float)
    leaf1 = (np.asarray(states) != 0).T.astype(float)
    leaf0 = 1.0 - leaf1
    down = {v: (leaf0[v - 1], leaf1[v - 1])
            for v, children in plan if not children}
    hung: dict[int, tuple] = {}
    for v, children in plan:
        if children:
            hung = hung if keep else {}
            for c, ei in children:
                hung[ei] = _hang(vecs[:, ei, None],
                                 *(down[c] if keep else down.pop(c)))
            down[v] = _product(children, hung)
    return down, hung


def _root_values(plan, like, states):
    """Pattern values from the root's pair; a leaf root's state picks one."""
    root = plan[-1][0]
    if root <= states.shape[-1]:
        return np.where(states[:, root - 1] != 0, like[1], like[0])
    return like[0] + like[1]


def pattern_values(plan, vecs, states) -> np.ndarray:
    """Every pattern's likelihood under every edge vector, a (B, P) array:
    :func:`_down_pass` and its root combine. Entry (b, j) runs the scalar
    recursion's IEEE operations in its order: it is that value bit for bit."""
    states = np.asarray(states)
    if states.size == 0:
        return np.zeros((len(vecs), 0))
    down, _ = _down_pass(plan, vecs, states)
    return _root_values(plan, down[plan[-1][0]], states)


class PathDP:
    """A kept :func:`_down_pass` at its own copy of ``vecs``. Moving one edge
    recomputes only its path to the root, over the kept sibling factors in
    plan child order, so every value is a full pass's bit for bit."""

    def __init__(self, plan, vecs, states):
        self.plan, self.states = plan, np.asarray(states)
        self.vecs = np.array(vecs, dtype=float)
        self.down, self.hung = _down_pass(plan, self.vecs, states, keep=True)
        above = {c: ei for _, children in plan for c, ei in children}
        # per edge: lower end, upper end, its children, the edge above it
        self.links = {ei: (c, u, children, above.get(u))
                      for u, children in plan for c, ei in children}

    def values(self, i, p, store=False):
        """Pattern values with edge ``i`` at ``p``, shaped (..., B, 1); with
        ``store`` (``p`` written into ``vecs``) the path's pairs are kept."""
        like = self.down[self.links[i][0]]
        while True:
            _, u, children, above = self.links[i]
            pair = _hang(p, *like)
            like = _product(children, self.hung, i, pair)
            if store:
                self.hung[i], self.down[u] = pair, like
            if above is None:
                return _root_values(self.plan, like, self.states)
            i, p = above, self.vecs[:, above, None]


def _checked_vector(edges, values) -> list[float]:
    """Probabilities aligned with ``edges``; any outside [0, 1/2] refused."""
    values = list(values)
    if len(values) != len(edges):
        raise ValueError(f"{len(values)} probabilities for {len(edges)} edges")
    checked = []
    for (u, v), p in zip(edges, values):
        p = float(p)
        if not 0.0 <= p <= 0.5:
            raise ValueError(f"edge ({u},{v}) probability {p} outside [0, 1/2]")
        checked.append(p)
    return checked


def char_likelihood_pruning(tree: Tree, probs: EdgeProbs, ch,
                            anchor: int | None = None) -> float:
    """Per-character likelihood via dynamic programming; linear in tree size.

    ``anchor`` picks the vertex the recursion hangs from; the value does not
    depend on it (the quantity has no root), which the tests exercise.
    """
    return pattern_likelihoods(tree, probs, [ch], anchor)[0]


def char_likelihood_exhaustive(tree: Tree, probs: EdgeProbs, ch) -> float:
    """Per-character likelihood as a literal sum over all extensions."""
    ch = _check_character(ch, tree.n)
    vec = probs.vector(tree)
    total = 0.0
    for state in _extensions(tree, ch, "exhaustive"):
        term = 1.0
        for i, (u, v) in enumerate(tree.edges):
            p = vec[i]
            term *= p if state[u] != state[v] else 1.0 - p
        total += term
    return total


def pattern_likelihoods(tree: Tree, probs: EdgeProbs, patterns,
                        anchor: int | None = None) -> list[float]:
    """Likelihood of each pattern in one pass over a shared plan."""
    patterns = [_check_character(ch, tree.n) for ch in patterns]
    plan = tree.rooted_plan(anchor)
    return pattern_values(plan, [probs.vector(tree)], patterns)[0].tolist()


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) without leaving the log domain; -inf is an exact zero."""
    if a < b:
        a, b = b, a
    if a == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _log_pattern_value(plan, vec, ch) -> float:
    """ln of one pattern's likelihood: :func:`pattern_values` carried in logs.

    Every vertex holds ln of its pair, so no value leaves the double range
    however small the likelihood (rescaling the linear pair instead still
    rounds p * c to 0.0 when p is subnormal), and only an impossible
    pattern gets -inf.
    """
    down: dict[int, tuple[float, float]] = {}
    root = plan[-1][0]
    for v, children in plan:
        if not children:
            down[v] = (0.0, -math.inf) if ch[v - 1] == 0 else (-math.inf, 0.0)
            continue
        like0 = like1 = 0.0
        for c, ei in children:
            c0, c1 = down[c]
            flip = math.log(vec[ei]) if vec[ei] > 0.0 else -math.inf
            stay = math.log1p(-vec[ei])
            like0 += _log_add(stay + c0, flip + c1)
            like1 += _log_add(flip + c0, stay + c1)
        down[v] = (like0, like1)
    like0, like1 = down[root]
    if root <= len(ch):
        return like0 if ch[root - 1] == 0 else like1
    return _log_add(like0, like1)


def _pattern_logs(tree: Tree, vecs, states):
    """ln f of every pattern at each raw edge vector (checked as
    :class:`EdgeProbs` checks it), lazily, one DP pass per CHUNK vectors.

    A value below the normal double range (0.0, or a subnormal with too few
    digits left) may be an underflow rather than an impossible pattern, so
    its ln f is recomputed in log space, which tells the two apart.
    """
    plan = tree.rooted_plan()
    vecs = (_checked_vector(tree.edges, vec) for vec in vecs)
    while chunk := list(itertools.islice(vecs, CHUNK)):
        for vec, values in zip(chunk,
                               pattern_values(plan, chunk, states).tolist()):
            if min(values, default=1.0) >= _NORMAL_MIN:
                yield list(map(math.log, values))
            else:
                yield [math.log(f) if f >= _NORMAL_MIN
                       else _log_pattern_value(plan, vec, ch)
                       for f, ch in zip(values, states)]


def modified_loglik(tree: Tree, probs: EdgeProbs, data: DataMatrix) -> float:
    """Dataset cost: -sum of N_chi * ln f_chi, always >= 0, +inf allowed.

    Patterns are visited in their stored (sorted) order so repeated runs sum
    in the same order and reports reproduce bit for bit. An underflowed
    pattern value (see :func:`_pattern_logs`) does not make the cost +inf:
    its ln f comes from log space, so the cost stays finite.
    """
    return next(modified_logliks(tree, [probs.vector(tree)], data))


def modified_logliks(tree: Tree, vecs, data: DataMatrix):
    """:func:`modified_loglik` at each of any number of raw edge vectors,
    lazily and bit for bit, as :func:`_pattern_logs` yields their logs."""
    if data.n != tree.n:
        raise ValueError(f"matrix has {data.n} leaves, tree has {tree.n}")
    states = np.array([ch for ch, _ in data.patterns])
    weights = [mult for _, mult in data.patterns]
    for logs in _pattern_logs(tree, vecs, states):
        total = 0.0
        for w, log_value in zip(weights, logs):
            total -= w * log_value
        # roundoff guard: each value is <= 1 exactly, so the true total is
        # non-negative
        yield total if total > 0.0 else 0.0


def write_probs(tree: Tree, probs: EdgeProbs) -> str:
    """Sidecar text: one "u v p" line per edge, in edge order."""
    vec = probs.vector(tree)
    lines = [f"{u} {v} {p!r}" for (u, v), p in zip(tree.edges, vec)]
    return "\n".join(lines) + "\n"


def parse_probs(text: str, tree: Tree) -> EdgeProbs:
    """Parse the "u v p" sidecar; every tree edge must appear exactly once."""
    mapping: dict[Edge, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v p', got {raw!r}")
        try:
            u, v, p = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v p', got {raw!r}")
        e = _normalize_edge(u, v)
        if e in mapping:
            raise ValueError(f"line {lineno}: duplicate edge ({u},{v})")
        mapping[e] = p
    probs = EdgeProbs(mapping)
    probs.vector(tree)  # validates coverage
    return probs
