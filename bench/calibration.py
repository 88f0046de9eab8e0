"""Machine-speed reference for calibrating benchmark times.

The speed of this class of shared machine drifts by up to 1.75x over minutes
while a process keeps its CPU (steal stays near 0), so raw times of the same
work on the same seed spread far beyond any useful regression bound. The
remedy is to time, next to every measured operation, a fixed reference
kernel and scale the raw time by ``NOMINAL_S / kernel time``.

The kernel is a frozen pure-Python copy of the two-state likelihood DP on a
16-leaf caterpillar, the same mix of tuple, dict and float work that parsiml
spends its time in; it imports nothing from parsiml, so no change to the
program moves it. Measured on a 2-vCPU Xeon guest while its speed swung
from 8.0 s to 12.2 s per prop1-n5 batch, the kernel followed with a
correlation of 0.95 and the batch-time spread fell from 0.26 to 0.08 of the
median.
"""

from __future__ import annotations

import random
from time import perf_counter

# Kernel time taken as the reference speed: about the kernel's time on an
# idle 2-vCPU Xeon guest. Calibrated times read as seconds at that speed.
NOMINAL_S = 250e-6
_CALLS = 5


def _build():
    rng = random.Random(7)
    leaves = 16
    children = {}
    previous, edge = 0, 0
    for leaf in range(1, leaves):
        vertex = leaves + leaf - 1
        children[vertex] = ((previous, edge), (leaf, edge + 1))
        edge += 2
        previous = vertex
    plan = [(v, ()) for v in range(leaves)] + sorted(children.items())
    probs = [rng.uniform(0.01, 0.4) for _ in range(edge)]
    patterns = [tuple(rng.randint(0, 1) for _ in range(leaves))
                for _ in range(24)]
    return plan, probs, patterns


_PLAN, _PROBS, _PATTERNS = _build()


def kernel() -> float:
    total = 0.0
    for ch in _PATTERNS:
        down = {}
        for v, kids in _PLAN:
            if not kids:
                down[v] = (1.0, 0.0) if ch[v] == 0 else (0.0, 1.0)
                continue
            like0 = like1 = 1.0
            for c, e in kids:
                c0, c1 = down[c]
                p = _PROBS[e]
                stay = 1.0 - p
                like0 *= stay * c0 + p * c1
                like1 *= p * c0 + stay * c1
            down[v] = (like0, like1)
        like0, like1 = down[_PLAN[-1][0]]
        total += like0 + like1
    return total


def kernel_seconds() -> float:
    """Current kernel time: the fastest of a few back-to-back calls."""
    best = float("inf")
    for _ in range(_CALLS):
        started = perf_counter()
        kernel()
        best = min(best, perf_counter() - started)
    return best


# Set-up is mostly interpreter start and the numpy import: process and file
# work that the kernel above does not follow. Each set-up probe is paired
# with a reference process that does only that and is scaled by
# SPAWN_NOMINAL_S / its time; SPAWN_NOMINAL_S is about the reference's time
# on an idle 2-vCPU Xeon guest. Without it the set-up median moved by a
# third between two hours of the same machine.
SPAWN_NOMINAL_S = 0.1
SPAWN_REFERENCE = "import time, numpy; print(repr(time.monotonic()))"


def calibrated(raw_seconds: float, before: float, after: float) -> float:
    """``raw_seconds`` at the reference speed, given kernel times around it."""
    return raw_seconds * NOMINAL_S / ((before + after) / 2.0)
