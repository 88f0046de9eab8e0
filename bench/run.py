"""Benchmark for parsiml: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload prop1-n5 --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --smoke              # every workload, tiny, seconds
    python3 bench/run.py --record-reference   # rewrite bench/reference.json

One run builds a workload's inputs from ``--seed`` (see ``workloads.py``),
then repeats its batch of operations for ``--seconds``, timing each
operation. End-to-end times are calibrated against a frozen reference
kernel timed around each measurement (see ``calibration.py``); the raw
times are in the details. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json;
``--trace 1`` alternates untraced and traced executions of every operation
and reports the per-layer metrics from the traced ones. Every output is
checked (see ``Op`` in ``workloads.py``); an exception, a non-finite cost or
a mismatch counts one failed operation. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, and ``bench/out/``, hold the details: environment, per-operation
samples and, for traced runs, every span.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import (NOMINAL_S, SPAWN_NOMINAL_S, SPAWN_REFERENCE,
                         calibrated, kernel_seconds)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
DP_PROBE_SECONDS = 0.05


def import_package():
    """Import parsiml from ``src/``; exit 2 when it is not there."""
    if not (SRC / "parsiml" / "__init__.py").is_file():
        print(f"bench: no parsiml package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import parsiml
    if Path(parsiml.__file__).resolve().parent != SRC / "parsiml":
        print(f"bench: parsiml imported from {parsiml.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# -- small helpers ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def jsonable(value):
    return json.loads(json.dumps(value))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import parsiml
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "parsiml": parsiml.__version__,
            "commit": git_commit(), "seed": seed}


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, all CPUs, if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(workload, {})


# -- set-up -------------------------------------------------------------------

def setup_probe(workload: str, seed: int):
    """Child process body: build the inputs, print the clock."""
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, False)
    print(repr(time.monotonic()))


def spawn_seconds(args: list[str]) -> float:
    """Time from spawning a Python child to the clock reading it prints.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    minus the parent's reading before the spawn is the child's start-up.
    """
    started = time.monotonic()
    child = subprocess.run([sys.executable, *args], cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout.strip().splitlines()[-1]) - started


def setup_seconds(workload: str, seed: int, probes: int) -> list[tuple]:
    """(raw, calibrated) set-up times of fresh processes, from spawn to
    inputs ready; see SPAWN_REFERENCE for the calibration."""
    samples = []
    for _ in range(probes):
        reference = spawn_seconds(["-c", SPAWN_REFERENCE])
        raw = spawn_seconds([str(Path(__file__).resolve()), "--setup-probe",
                             "--workload", workload, "--seed", str(seed)])
        samples.append((raw, raw * SPAWN_NOMINAL_S / reference))
    return samples


# -- the measured loop --------------------------------------------------------

class Runner:
    """Runs a batch in a closed loop and checks every output."""

    def __init__(self, batch, seed: int, reference: dict, tracer=None):
        self.batch = batch
        self.seed = seed
        self.reference = reference
        self.tracer = tracer
        self.samples = {op.key: {"untraced": [], "traced": []}
                        for op in batch.ops}
        self.first: dict[str, dict] = {}
        self.units: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernel: list[float] = []

    def execute(self, op, traced: bool):
        self.attempted += 1
        try:
            if traced:
                self.tracer.install()
            try:
                before = kernel_seconds()
                started = time.perf_counter()
                if traced:
                    with self.tracer.operation(op.key):
                        out = op.run()
                else:
                    out = op.run()
                elapsed = time.perf_counter() - started
                after = kernel_seconds()
            finally:
                if traced:
                    self.tracer.uninstall()
            problems = self.verify(op, out)
        except Exception:
            self.fail(op, traceback.format_exc())
            return
        self.kernel += [before, after]
        # the single-thread kernel does not follow two threads handing the
        # GIL to each other: calibrating ml-n6-2w tripled its spread
        scaled = (calibrated(elapsed, before, after)
                  if self.batch.workers == 1 else elapsed)
        self.samples[op.key]["traced" if traced else "untraced"].append(
            (elapsed, scaled))
        if problems:
            self.fail(op, "; ".join(problems))

    def fail(self, op, message: str):
        self.failed += 1
        self.problems.append(f"{op.key}: {message}")
        print(f"bench: {op.key} failed: {message}", file=sys.stderr)

    def verify(self, op, out) -> list[str]:
        from workloads import same
        signature = jsonable(op.signature(out))
        if op.key in self.first:
            if not same(signature, self.first[op.key]):
                return ["output differs from this run's first execution"]
            return []
        self.first[op.key] = signature
        self.units[op.key] = op.units(out)
        problems = list(op.check(out))
        expected = self.reference.get(op.key)
        if expected is not None:
            fields = signature if self.seed == 0 else op.invariant
            for name in fields:
                if not same(signature.get(name), expected.get(name)):
                    problems.append(f"{name} {signature.get(name)!r} != "
                                    f"reference {expected.get(name)!r}")
        return problems

    def run(self, seconds: float):
        """A full first pass, then more passes while time remains.

        An operation starts only if it is expected to be half done by the
        deadline, so a run measures about ``seconds`` on average.
        """
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            for op in self.batch.ops:
                modes = [False]
                if self.tracer is not None:
                    modes = [False, True] if rounds % 2 == 0 else [True, False]
                if rounds:
                    need = sum(median([raw for raw, _ in self.samples[op.key][
                        "traced" if m else "untraced"]]) for m in modes)
                    if time.perf_counter() + need / 2 > deadline:
                        return
                for traced in modes:
                    self.execute(op, traced)
            rounds += 1

    def batch_seconds(self, mode: str, raw: bool = False) -> float:
        """Time to complete the batch: sum over operations of the median,
        calibrated unless ``raw``."""
        column = 0 if raw else 1
        return sum(median([sample[column] for sample in s[mode]])
                   for s in self.samples.values())

    def sample_table(self) -> dict:
        table = {}
        for key, modes in self.samples.items():
            table[key] = {}
            for mode, pairs in modes.items():
                if not pairs:
                    continue
                raw = [r for r, _ in pairs]
                table[key][mode] = {
                    "n": len(pairs), "median_s": median([c for _, c in pairs]),
                    "raw_median_s": median(raw), "raw_min_s": min(raw),
                    "raw_max_s": max(raw)}
        return table


def dp_us_per_pattern(batch) -> float:
    """Isolated pattern_likelihoods calls on the workload's own trees."""
    import parsiml as P
    total_seconds = 0.0
    total_patterns = 0
    for tree, probs, patterns in batch.dp_probes:
        times = []
        budget = time.perf_counter() + DP_PROBE_SECONDS
        while len(times) < 3 or time.perf_counter() < budget:
            started = time.perf_counter()
            P.pattern_likelihoods(tree, probs, patterns)
            times.append(time.perf_counter() - started)
        total_seconds += median(times)
        total_patterns += len(patterns)
    return 1e6 * total_seconds / total_patterns if total_patterns else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """One benchmark run; returns the result line and the details."""
    from workloads import WORKLOADS
    from tracing import Tracer, layer_metrics
    with open(HERE / "rationale.json") as fh:
        rationale = json.load(fh)["workloads"][workload]
    load_before = os.getloadavg()
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, **rationale,
              "environment": environment(seed)}
    setup = [] if trace else setup_seconds(workload, seed,
                                          1 if smoke else SETUP_PROBES)
    tracer = Tracer() if trace else None
    if tracer is not None:
        with tracer, tracer.operation("setup"):
            batch = WORKLOADS[workload](seed, smoke)
    else:
        batch = WORKLOADS[workload](seed, smoke)
    reference = load_reference(workload)
    runner = Runner(batch, seed, reference, tracer)
    steal_started = steal_seconds()
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    runner.run(seconds)
    cpu_ratio = ((time.process_time() - cpu_started)
                 / (time.perf_counter() - wall_started))
    steal = steal_seconds()
    wall = runner.batch_seconds("untraced")
    raw_wall = runner.batch_seconds("untraced", raw=True)
    units = sum(runner.units.values())
    if trace:
        metrics = layer_metrics(tracer)
        metrics["likelihood.dp_us_per_pattern"] = (
            dp_us_per_pattern(batch) if batch.dp_probes else 0.0)
        traced = runner.batch_seconds("traced")
        metrics["harness.tracing_overhead"] = traced / wall - 1.0 if wall else 0.0
        metrics["harness.cpu_ratio"] = cpu_ratio
        metrics["harness.kernel_us"] = 1e6 * median(runner.kernel)
    else:
        metrics = {
            "setup_s": median([c for _, c in setup]),
            "wall_s": wall,
            "work_per_s": units / wall if wall else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail.update({
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_ratio": cpu_ratio, "units_per_batch": units,
        "steal_s": (steal - steal_started
                    if steal is not None and steal_started is not None
                    else None),
        "raw_wall_s": raw_wall,
        "raw_setup_s": median([r for r, _ in setup]),
        "kernel_median_s": median(runner.kernel),
        "kernel_nominal_s": NOMINAL_S,
        "setup_samples_s": setup, "operations": runner.sample_table(),
        "problems": runner.problems,
        "reference_checks": ("every field" if seed == 0 else
                             "seed-invariant fields") if reference else None,
    })
    if tracer is not None:
        detail["span_count"] = len(tracer.spans)
    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    return {"result": result, "detail": detail, "tracer": tracer}


def format_result(result: dict, names_units: list) -> dict:
    """Metrics in BENCHMARK.json order, each with its unit."""
    metrics = result["metrics"]
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {**result, "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in names_units}}


def metric_list(spec: dict, trace: bool) -> list:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def write_out(run: dict, stem: str):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"result": run["result"], "detail": run["detail"]}, fh,
                  indent=1)
    if run["tracer"] is not None:
        run["tracer"].dump(OUT / f"{stem}-spans.json")


# -- modes --------------------------------------------------------------------

def benchmark(args) -> int:
    spec = benchmark_spec()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    run["result"] = format_result(run["result"],
                                  metric_list(spec, bool(args.trace)))
    write_out(run, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(json.dumps({"detail": run["detail"]}))
    print(json.dumps(run["result"]))
    return 0


def smoke() -> int:
    """Every workload at tiny size, seed 0 untraced and seed 1 traced."""
    from workloads import WORKLOADS
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"bench: BENCHMARK.json lists {names}, code has {list(WORKLOADS)}",
              file=sys.stderr)
        return 1
    ok = True
    for name in names:
        for seed, trace in ((0, False), (1, True)):
            started = time.perf_counter()
            run = measure(name, seed, 0, trace, smoke=True)
            result = format_result(run["result"], metric_list(spec, trace))
            values = [m["value"] for m in result["metrics"].values()]
            good = (result["correct"]
                    and all(isinstance(v, (int, float)) and math.isfinite(v)
                            for v in values))
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {name:14s} seed={seed} "
                  f"trace={int(trace)} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"{time.perf_counter() - started:.1f}s")
    return 0 if ok else 1


def record_reference() -> int:
    """Record every operation's outputs at seed 0 from the current package."""
    from workloads import WORKLOADS
    import parsiml
    payload = {"note": "outputs of every operation at seed 0, recorded by "
                       "bench/run.py --record-reference",
               "parsiml": parsiml.__version__, "commit": git_commit(),
               "workloads": {}}
    for name, build in WORKLOADS.items():
        batch = build(0, False)
        outputs = {}
        for op in batch.ops:
            out = op.run()
            problems = op.check(out)
            if problems:
                print(f"bench: {name} {op.key}: {problems}", file=sys.stderr)
                return 1
            outputs[op.key] = jsonable(op.signature(out))
            print(f"{name} {op.key}", flush=True)
        payload["workloads"][name] = outputs
    with open(REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="run every workload at tiny size")
    mode.add_argument("--record-reference", action="store_true",
                      help="rewrite bench/reference.json from src/")
    mode.add_argument("--setup-probe", action="store_true",
                      help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
