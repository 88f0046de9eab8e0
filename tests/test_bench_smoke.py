"""The frozen benchmark's smoke gate, run as part of the test suite.

``bench/run.py --smoke`` runs every workload at tiny size, untraced at seed
0 and traced at seed 1, checks each output against ``bench/reference.json``
and the independent oracles, and writes no files. A change under ``src/``
that breaks the benchmark fails here, not only in a full benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_gate_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(line.startswith("ok ") for line in lines), proc.stdout
