"""Host-time benchmark of the pcmxbar simulator.

    python3 perfbench/run.py --workload {sweep10x10,learn256,recall256} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src, so
nothing needs installing. Each run:

1. generates the workload's inputs from --seed into a scratch directory
   inside the checkout (recall256 first runs one untimed learn there to
   store the arrays it reads);
2. times set-up: fresh interpreters that import pcmxbar and parse the config;
3. starts one child process (perfbench/worker.py) that calls
   pcmxbar.cli.run_cli in a closed loop with one client for --seconds and
   checks every invocation's output files by sha256: against the digests
   pinned in perfbench/pins.json for pinned seeds, else against the first
   invocation (byte-identical reruns);
4. prints a JSON record (environment, raw and calibrated quartiles,
   failures, sim counts) and, as the last line, the result object. With
   --trace 0 its metrics are the end-to-end ones, measured untraced; with
   --trace 1 they are the per-layer spans and counts of a traced run.

All times are host time; simulated time is not measured. End-to-end times
are calibrated: each is divided by the time of a fixed kernel run around it
(perfbench/calibrate.py) and given in seconds on a host where that kernel
takes calibrate.REFERENCE_S, which cancels the drift of a shared host's
speed. The raw times are in the record. The model is unvalidated against
hardware, so no accuracy figure is given.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
from tracer import EVENT_COUNTS
from workloads import (
    DEFAULT_SEED,
    TRAINED_ARRAYS,
    WORKLOADS,
    Workload,
    baseline_sweep_problems,
    cli_argv,
    write_inputs,
    write_trained_arrays,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SCRATCH = ".perfbench_tmp"  # per-run scratch directories, removed after each run
OUT = ".perfbench_out"  # span files of traced runs

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
SETUP_SCRIPT = "import sys, pcmxbar.cli, pcmxbar.configio as c; getattr(c, sys.argv[1])(sys.argv[2])"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric BENCHMARK.json declares."""
    return [(m["name"], m["unit"]) for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child Python process to completion; raise if it fails."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(workload: Workload, config_path: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import pcmxbar and parse the config.

    Returns (times, mean of the kernel times taken just before and after each).
    """
    times, kernels = [], [calibrate.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        run_child(["-c", SETUP_SCRIPT, workload.loader, str(config_path)])
        times.append(perf_counter() - t0)
        kernels.append(calibrate.kernel_seconds())
    return times, [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    summary = {"median": statistics.median(values), "p25": q1, "p75": q3, "samples": len(values)}
    # A tail percentile only where at least ten samples lie beyond it.
    if len(values) >= 100:
        summary["p90"] = statistics.quantiles(values, n=10)[-1]
    return summary


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "model": "unvalidated against hardware",
        "time": "host",
    }


def load_pins(workload: Workload, seed: int) -> dict:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    return pins.get(workload.name, {}).get(str(seed), {})


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path, pins: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (printed record, result object)."""
    config_path, out_dir = write_inputs(workload, ROOT, seed, scratch)
    keep: tuple[str, ...] = ()
    if workload.trained:
        learn = WORKLOADS["learn256"]
        learn_config, learn_dir = write_inputs(learn, ROOT, DEFAULT_SEED, scratch / "learn")
        run_child(["-m", "pcmxbar.cli", *cli_argv(learn, learn_config, learn_dir)])
        write_trained_arrays(learn_dir, out_dir, seed, workload.n)
        keep = TRAINED_ARRAYS
    job = {
        "root": str(ROOT),
        "argv": cli_argv(workload, config_path, out_dir),
        "out_dir": str(out_dir),
        "keep": list(keep),
        "seconds": seconds,
        "trace": trace,
        "files": pins.get("files"),
        "sim": pins.get("sim"),
    }
    if trace:
        (ROOT / OUT).mkdir(exist_ok=True)
        job["spans_path"] = str(ROOT / OUT / f"spans-{workload.name}.csv")
    child = json.loads(run_child([str(HERE / "worker.py"), json.dumps(job)]).stdout.splitlines()[-1])

    problems = list(child["problems"])
    if workload.command == "sweep" and seed == DEFAULT_SEED:
        problems += baseline_sweep_problems(out_dir)
    sim = child["sim"]
    walls = child["wall_s"]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one client",
        "environment": environment(),
        "wall_s": quartiles(walls),
        "failed_ratio": child["failed"] / child["attempted"],
        "problems": problems,
        "pinned": bool(pins),
        "sim": sim,
        "files": child["files"],
    }
    if trace:
        layers = child["layers"]
        copied = layers.get("crossbar.program_cells.copied", 0.0)
        layers["crossbar.program_cells.useful_ratio"] = layers.get("crossbar.program_cells.cells", 0.0) / copied if copied else 0.0
        layers["trace.overhead_s"] = statistics.median(child["traced_wall_s"]) - statistics.median(walls)
        record["traced_wall_s"] = quartiles(child["traced_wall_s"])
        record["self_sum_s"] = layers["trace.self_sum_s"]
        record["root_s"] = layers["trace.root_s"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in per_layer_metrics()}
    else:
        setup_raw, setup_kernel_s = setup_seconds(workload, config_path)
        kernel_s = child["kernel_s"]
        wall_scaled = calibrate.scaled(walls, kernel_s)
        cpu_scaled = calibrate.scaled(child["cpu_s"], kernel_s)
        setup = calibrate.scaled(setup_raw, setup_kernel_s)
        record["cpu_s"] = quartiles(child["cpu_s"])
        record["setup_s"] = quartiles(setup_raw)
        record["kernel_s"] = quartiles(kernel_s)
        record["calibrated"] = {"wall_s": quartiles(wall_scaled), "cpu_s": quartiles(cpu_scaled), "setup_s": quartiles(setup)}
        wall = statistics.median(wall_scaled)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpu_scaled), "unit": "s"},
            "sim_events_per_s": {"value": sum(sim[k] for k in EVENT_COUNTS) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": child["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {
        "correct": child["failed"] == 0 and not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcmxbar" / "cli.py").is_file():
        print(f"error: no pcmxbar sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (ROOT / SCRATCH).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / SCRATCH))
    try:
        record, result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), scratch, load_pins(workload, args.seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
