"""Checks of the benchmark itself, on a smoke-size (n = 16) learn workload.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import pcmxbar.cli  # noqa: E402
import pcmxbar.crossbar  # noqa: E402
import pcmxbar.network  # noqa: E402
import run  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import Workload, cli_argv, write_inputs  # noqa: E402

SMOKE = Workload("smoke16", "learn", "load_config", n=16)
SEED = 7


@pytest.fixture
def smoke(tmp_path):
    config_path, out_dir = write_inputs(SMOKE, ROOT, SEED, tmp_path)
    return cli_argv(SMOKE, config_path, out_dir), out_dir


def test_corrupted_output_byte_counts_as_failed_invocation(smoke):
    argv, out_dir = smoke
    clean = Runner(pcmxbar.cli.run_cli, argv, out_dir)
    clean.invoke()
    clean.invoke()
    assert (clean.attempted, clean.failed) == (2, 0)

    def corrupting_run_cli(args):
        status = pcmxbar.cli.run_cli(args)
        path = out_dir / "array_final.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return status

    corrupt = Runner(corrupting_run_cli, argv, out_dir, files=clean.files)
    corrupt.invoke()
    assert (corrupt.attempted, corrupt.failed) == (1, 1)
    assert "array_final.csv" in corrupt.problems[0]


def test_self_times_add_up_to_traced_wall(smoke):
    argv, out_dir = smoke
    runner = Runner(pcmxbar.cli.run_cli, argv, out_dir)
    original = pcmxbar.crossbar.program_cells
    tracer = Tracer()
    with tracer.install():
        assert pcmxbar.network.program_cells is not original  # patched at the consumer binding
        wall, _ = runner.invoke(tracer)
    assert pcmxbar.network.program_cells is original
    assert runner.failed == 0

    totals = tracer.layer_totals()
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    root = tracer.root_seconds()
    assert totals[f"{ROOT_SPAN}.s"] == root
    assert self_sum == pytest.approx(root, rel=1e-9)
    assert 0 < root <= wall
    assert wall - root < 0.01
    layers = {name.split(".")[0] for name in tracer.names}
    assert layers == {"cli", "configio", "experiments", "network", "crossbar", "device"}
    assert tracer.counts["sim.set_pulses"] == tracer.counts["device.apply_set_pulse.calls"]
    assert tracer.counts["sim.cell_reads"] == tracer.counts["crossbar.read_bitline.cells"]


def test_results_record_environment_and_every_metric(tmp_path):
    untraced, result = run.run_benchmark(SMOKE, SEED, 0.0, False, tmp_path / "untraced", {})
    traced, traced_result = run.run_benchmark(SMOKE, SEED, 0.0, True, tmp_path / "traced", {})
    for record in (untraced, traced):
        env = record["environment"]
        assert env["nproc"] >= 1
        assert env["python"].count(".") == 2
        assert env["numpy"]
        assert env["model"] == "unvalidated against hardware"
    assert result["correct"] and traced_result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "sim_events_per_s", "peak_rss_mb", "setup_s"}
    assert set(traced_result["metrics"]) == {name for name, _ in run.per_layer_metrics()}
    # Every declared per-layer metric is measured: only the layers a learn run never calls read 0.
    zero = {name for name, metric in traced_result["metrics"].items() if metric["value"] == 0}
    assert zero == {"crossbar.load_resistance_csv.s", "experiments.variation_sweep.self_s"}
    assert traced["sim"] == untraced["sim"]
    assert traced["files"] == untraced["files"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_clocks_exclude_kernel_time():
    import calibrate

    with calibrate.SpeedProbe(time.process_time) as probe:
        t0, p0 = perf_counter(), probe.wall_clock()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
        elapsed, program = perf_counter() - t0, probe.wall_clock() - p0
    assert len(probe.samples) >= 3
    assert program == pytest.approx(elapsed - sum(probe.samples), abs=5e-3)
