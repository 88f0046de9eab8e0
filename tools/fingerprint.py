"""Print one md5 per benchmark workload and bench seed over its op outputs.

Each line reads ``<workload> seed=<s> <md5>``, the md5 taken over the JSON
of every op's ``signature(run())`` in batch order, with each float written
as ``float.hex`` so that a one-ulp change shows. Two checkouts whose lines
match produce the same benchmark outputs bit for bit at seeds 0 and 1.

    python tools/fingerprint.py [WORKLOAD ...]

With no names it fingerprints every workload; naming some (``mp-n8``, say)
checks just those, in the order given.

It imports ``bench/workloads.py`` and the package from ``src/`` beside it,
runs the full (not smoke) batches, and writes no file, bytecode included.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)


def exact(value):
    """``value`` with every float replaced by its ``float.hex`` text."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def main(names) -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        sys.exit(f"fingerprint: unknown workload {unknown[0]!r} "
                 f"(choose from {', '.join(WORKLOADS)})")
    for name in names or WORKLOADS:
        for seed in SEEDS:
            digest = hashlib.md5()
            for op in WORKLOADS[name](seed, False).ops:
                digest.update(json.dumps(exact(op.signature(op.run())),
                                         sort_keys=True).encode())
            print(f"{name} seed={seed} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
