"""Spans around the calls into each parsiml layer, recorded from outside.

Nothing under ``src/`` is edited: :class:`Tracer` swaps public names in the
namespace of the module that calls them (``parsiml.reduction.ml_search``,
``parsiml.mlopt.optimize_edges`` ...) for timing wrappers while a traced
operation runs, and puts the originals back afterwards. Private helpers such
as ``_pattern_value`` are never wrapped.

Each span records its name, start, end, parent, the id of the operation it
belongs to and the CPU time of its thread. Spans opened in worker threads take the enclosing search span
as parent. Calls made 10^4 or more times per operation (``parsimony_score``
and each topology drawn from ``enumerate_topologies`` on ``mp-n8``) are kept
as a count plus a total under their parent span instead of one span each.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time

# (module whose global is swapped, attribute, span name). The module is the
# caller: the wrapped name is looked up there at call time.
SPAN_SITES = (
    ("parsiml", "random_instance", "characters.random_instance"),
    ("parsiml", "pad_with_count", "characters.pad"),
    ("parsiml", "pad_constant_sites", "characters.pad"),
    ("parsiml", "verify_prop1_chain", "reduction.prop1"),
    ("parsiml", "verify_claim1", "reduction.claim1"),
    ("parsiml", "verify_claim2", "reduction.claim2"),
    ("parsiml", "verify_claim3", "reduction.claim3"),
    ("parsiml", "mp_search", "parsimony.mp_search"),
    ("parsiml", "ml_search", "mlopt.ml_search"),
    ("parsiml.reduction", "pad_constant_sites", "characters.pad"),
    ("parsiml.reduction", "mp_search", "parsimony.mp_search"),
    ("parsiml.reduction", "ml_search", "mlopt.ml_search"),
    ("parsiml.reduction", "optimize_edges", "mlopt.optimize_edges"),
    ("parsiml.reduction", "modified_loglik", "likelihood.modified_loglik"),
    ("parsiml.reduction", "pattern_likelihoods", "likelihood.pattern_likelihoods"),
    ("parsiml.reduction", "canonical_newick", "trees.canonical_newick"),
    ("parsiml.mlopt", "optimize_edges", "mlopt.optimize_edges"),
    ("parsiml.mlopt", "canonical_newick", "trees.canonical_newick"),
    ("parsiml.parsimony", "canonical_newick", "trees.canonical_newick"),
)

# Called >= 10^4 times per operation: kept as count + total per parent.
COUNT_SITES = (
    ("parsiml.reduction", "parsimony_score", "parsimony.parsimony_score"),
    ("parsiml.mlopt", "parsimony_score", "parsimony.parsimony_score"),
    ("parsiml.parsimony", "parsimony_score", "parsimony.parsimony_score"),
)

# Generators: the time inside each next() is charged to the item drawn.
GENERATOR_SITES = (
    ("parsiml.mlopt", "enumerate_topologies", "trees.enumerate_topologies"),
    ("parsiml.parsimony", "enumerate_topologies", "trees.enumerate_topologies"),
)

# Spans that start worker threads; those threads' spans hang below them.
ADOPTING = frozenset({"mlopt.ml_search", "parsimony.mp_search"})


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float
    cpu: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tally:
    """Count-plus-total record of one fine-grained name under one parent."""

    count: int = 0
    seconds: float = 0.0
    units: int = 0


def _result_attrs(name: str, result) -> dict:
    """Small facts about a result that per-layer metrics need."""
    if name == "mlopt.optimize_edges":
        return {"sweeps": result.sweeps, "converged": result.converged}
    if name.startswith("reduction."):
        trials = getattr(result, "trials", None)
        return {"trials": 1 if name == "reduction.claim1" else (trials or 0)}
    return {}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tallies: dict[tuple[int | None, int | None, str], Tally] = {}
        self.op: int | None = None
        self._adopt: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self._adopt

    def call(self, name: str, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._parent()
        stack = self._stack()
        stack.append(sid)
        adopted = self._adopt
        if name in ADOPTING:
            self._adopt = sid
        cpu = thread_time()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            cpu = thread_time() - cpu
            stack.pop()
            self._adopt = adopted
        self.spans.append(Span(sid, name, self.op, parent, start, end, cpu,
                               _result_attrs(name, result)))
        return result

    def tally(self, name: str, seconds: float, units: int = 0,
              parent: int | None = None):
        key = (self.op, parent, name)
        with self._lock:
            record = self.tallies.get(key)
            if record is None:
                record = self.tallies[key] = Tally()
            record.count += 1
            record.seconds += seconds
            record.units += units

    @contextlib.contextmanager
    def operation(self, label: str):
        """Root span of one operation; every span inside shares its id."""
        sid = next(self._ids)
        self.op = sid
        stack = self._stack()
        stack.append(sid)
        cpu = thread_time()
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, "op", sid, None, start, end,
                                   thread_time() - cpu, {"label": label}))
            self.op = None

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(tree, data, *args, **kwargs):
            parent = self._parent()
            start = perf_counter()
            result = fn(tree, data, *args, **kwargs)
            self.tally(name, perf_counter() - start, len(data.patterns), parent)
            return result
        return wrapper

    def _generator_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            items = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                self.tally(name, perf_counter() - start, 1, parent)
                yield item
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for sites, make in ((SPAN_SITES, self._span_wrapper),
                            (COUNT_SITES, self._count_wrapper),
                            (GENERATOR_SITES, self._generator_wrapper)):
            for module_name, attr, name in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span and tally as JSON; call once, when the run ends."""
        payload = {
            "spans": [{"id": s.id, "name": s.name, "op": s.op,
                       "parent": s.parent, "start": s.start, "end": s.end,
                       "cpu": s.cpu,
                       **({"attrs": s.attrs} if s.attrs else {})}
                      for s in self.spans],
            "tallies": [{"op": op, "parent": parent, "name": name,
                         "count": t.count, "seconds": t.seconds,
                         "units": t.units}
                        for (op, parent, name), t in self.tallies.items()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(tracer: Tracer) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children.

    Child spans may overlap each other (worker threads), so their union is
    subtracted; tallies are subtracted as totals.
    """
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    tallied: dict[int, float] = {}
    for (_, parent, _), record in tracer.tallies.items():
        if parent is not None:
            tallied[parent] = tallied.get(parent, 0.0) + record.seconds
    result = {}
    for span in tracer.spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered - tallied.get(span.id, 0.0)
    return result


# Per-batch totals: summed over a traced execution, median over executions
# of one operation, summed over the batch's operations.
_REDUCTION_TOTALS = {"reduction.prop1": ("reduction.prop1_s", 1.0),
                     "reduction.claim1": ("reduction.claim1_ms", 1e3),
                     "reduction.claim2": ("reduction.claim2_ms", 1e3),
                     "reduction.claim3": ("reduction.claim3_ms", 1e3)}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of BENCHMARK.json from the recorded spans.

    A layer that does not run in the workload reports 0.
    """
    selfs = self_times(tracer)
    labels = {s.op: s.attrs["label"] for s in tracer.spans if s.name == "op"}
    by_id = {s.id: s for s in tracer.spans}
    batch: dict[int, dict[str, float]] = {op: {} for op in labels}
    sums: dict[str, float] = {}

    def add(table, name, value):
        table[name] = table.get(name, 0.0) + value

    for s in tracer.spans:
        per_op = batch[s.op]
        if s.name == "characters.pad":
            add(per_op, "characters.pad_ms", 1e3 * s.duration)
        elif s.name == "characters.random_instance":
            add(per_op, "characters.instance_ms", 1e3 * s.duration)
        elif s.name == "trees.canonical_newick":
            add(sums, "newick_calls", 1)
            add(sums, "newick_s", s.duration)
        elif s.name == "parsimony.mp_search":
            add(per_op, "parsimony.mp_search_self_s", selfs[s.id])
        elif s.name == "likelihood.modified_loglik":
            add(per_op, "likelihood.cost_calls", 1)
            add(sums, "cost_calls", 1)
            add(sums, "cost_s", s.duration)
        elif s.name == "mlopt.optimize_edges":
            add(per_op, "mlopt.fits", 1)
            add(sums, "fits", 1)
            add(sums, "fit_s", s.duration)
            add(sums, "sweeps", s.attrs["sweeps"])
            add(sums, "converged", int(s.attrs["converged"]))
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "mlopt.ml_search":
                # CPU, not wall: threads that wait on the GIL overlap in
                # wall time without running in parallel
                add(sums, "fit_cpu_in_search_s", s.cpu)
        elif s.name == "mlopt.ml_search":
            add(sums, "search_s", s.duration)
        elif s.name in _REDUCTION_TOTALS:
            metric, scale = _REDUCTION_TOTALS[s.name]
            add(per_op, metric, scale * s.duration)
            add(per_op, "reduction.self_s", selfs[s.id])
            add(per_op, "reduction.trials", s.attrs["trials"])
    for (op, _, name), record in tracer.tallies.items():
        if name == "trees.enumerate_topologies":
            add(batch[op], "trees.topologies", record.count)
            add(sums, "enumerate_s", record.seconds)
            add(sums, "enumerated", record.count)
        elif name == "parsimony.parsimony_score":
            add(batch[op], "parsimony.score_calls", record.count)
            add(sums, "score_s", record.seconds)
            add(sums, "pairs", record.units)

    setup = [op for op, label in labels.items() if label == "setup"]
    executions: dict[str, list[int]] = {}
    for op, label in labels.items():
        if label != "setup":
            executions.setdefault(label, []).append(op)

    def batch_total(name):
        total = sum(batch[op].get(name, 0.0) for op in setup)
        for ops in executions.values():
            total += statistics.median(batch[op].get(name, 0.0) for op in ops)
        return total

    def ratio(num, den, scale=1.0):
        return scale * sums.get(num, 0.0) / sums[den] if sums.get(den) else 0.0

    metrics = {name: batch_total(name) for name in (
        "trees.topologies", "parsimony.score_calls",
        "parsimony.mp_search_self_s", "likelihood.cost_calls", "mlopt.fits",
        "characters.instance_ms", "characters.pad_ms", "reduction.prop1_s",
        "reduction.claim1_ms", "reduction.claim2_ms", "reduction.claim3_ms",
        "reduction.self_s", "reduction.trials")}
    metrics.update({
        "trees.enumerate_us": ratio("enumerate_s", "enumerated", 1e6),
        "trees.canonical_newick_us": ratio("newick_s", "newick_calls", 1e6),
        "parsimony.fitch_us": ratio("score_s", "pairs", 1e6),
        "likelihood.cost_us": ratio("cost_s", "cost_calls", 1e6),
        "mlopt.fit_ms": ratio("fit_s", "fits", 1e3),
        "mlopt.sweeps_mean": ratio("sweeps", "fits"),
        "mlopt.converged_ratio": ratio("converged", "fits"),
        "mlopt.search_parallelism": ratio("fit_cpu_in_search_s", "search_s"),
    })
    return metrics
