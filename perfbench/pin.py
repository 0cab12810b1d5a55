"""Regenerate perfbench/pins.json from the current code.

    python3 perfbench/pin.py

For every workload and seed in PIN_SEEDS, records the sha256 of each output
file and the simulated event counts (sim.*), each taken from one counting
invocation and confirmed by a byte-identical rerun. Pins are only ever
regenerated for a change that is meant to alter the simulator's output; a
speed-up must leave them as they are.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import PINS, ROOT, SCRATCH, run_benchmark
from workloads import WORKLOADS

PIN_SEEDS = range(16)


def main() -> int:
    pins: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in PIN_SEEDS:
            (ROOT / SCRATCH).mkdir(exist_ok=True)
            scratch = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=ROOT / SCRATCH))
            try:
                record, result = run_benchmark(workload, seed, 0.0, False, scratch, {})
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if not result["correct"]:
                print(f"{name} seed {seed}: {record['problems']}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {"files": record["files"], "sim": record["sim"]}
            print(f"{name} seed {seed}: {record['sim']}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
