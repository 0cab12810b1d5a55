"""Child process of the benchmark: calls pcmxbar.cli.run_cli in a closed loop.

One client, no threads: each invocation starts when the previous one has
ended and its output files have been checked. Run by perfbench/run.py as
``python3 perfbench/worker.py '<json job>'``; prints one JSON result line.

Job keys: root, argv, out_dir, keep (input files set-up placed in out_dir),
seconds, trace, files (pinned sha256 per output file, or null), sim (pinned
sim.* counts, or null), spans_path (trace only).
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import ROOT_SPAN, SIM_COUNTS, SIM_HOOKS, Tracer


# Minimum length of a batch of invocations between two calibration kernels.
BATCH_S = 1.0


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by its relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def clear_outputs(out_dir: Path, keep: frozenset[str]) -> None:
    for p in sorted(out_dir.rglob("*"), reverse=True):
        if p.relative_to(out_dir).as_posix() in keep:
            continue
        if p.is_dir():
            p.rmdir()
        else:
            p.unlink()


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Runner:
    """Runs invocations and checks each one's output files.

    The reference digests are the pinned ones when given, else those of the
    first invocation, so any other seed is checked for byte-identical reruns.
    """

    def __init__(self, run_cli, argv, out_dir: Path, keep=(), files=None, sim=None):
        self.run_cli = run_cli
        self.argv = list(argv)
        self.out_dir = Path(out_dir)
        self.keep = frozenset(keep)
        self.files = files
        self.sim = sim
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_clock = perf_counter
        self.cpu_clock = cpu_seconds

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """One invocation: returns (wall seconds, CPU seconds)."""
        clear_outputs(self.out_dir, self.keep)
        cpu0 = self.cpu_clock()
        t0 = self.wall_clock()
        if tracer is None:
            status = self.run_cli(self.argv)
        else:
            status = tracer.call(ROOT_SPAN, self.run_cli, self.argv)
        wall = self.wall_clock() - t0
        cpu = self.cpu_clock() - cpu0
        self.attempted += 1
        problem = None
        if status != 0:
            problem = f"exit status {status}"
        else:
            got = digests(self.out_dir)
            if self.files is None:
                self.files = got
            elif got != self.files:
                changed = sorted(k for k in self.files.keys() | got.keys() if self.files.get(k) != got.get(k))
                problem = f"output files differ from the reference: {changed}"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"invocation {self.attempted}: {problem}")
        return wall, cpu

    def check_sim(self, counts) -> None:
        """Compare recounted sim.* against the pinned (or first) counts."""
        got = {k: int(counts[k]) for k in SIM_COUNTS}
        if self.sim is None:
            self.sim = got
        elif got != self.sim:
            self.problems.append(f"sim counts {got} differ from the pinned {self.sim}")


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: one counting warm-up, then timed invocations for `seconds`.

    A SpeedProbe samples the host's speed throughout; its time is taken out
    of each invocation's wall and CPU time. Invocations are grouped in
    batches of at least BATCH_S seconds, and each records the mean kernel
    time of its batch.
    """
    with Tracer().install(only=SIM_HOOKS) as counter:
        runner.invoke(counter)
    runner.check_sim(counter.counts)
    walls, cpus, kernel_s = [], [], []
    with calibrate.SpeedProbe(cpu_seconds) as probe:
        runner.wall_clock, runner.cpu_clock = probe.wall_clock, probe.cpu_clock
        deadline = perf_counter() + seconds
        while not walls or perf_counter() < deadline:
            batch_end = perf_counter() + BATCH_S
            first_sample = len(probe.samples)
            batch = [runner.invoke()]
            while perf_counter() < min(batch_end, deadline):
                batch.append(runner.invoke())
            speed = statistics.fmean(probe.samples[first_sample:] or [calibrate.kernel_seconds()])
            for wall, cpu in batch:
                walls.append(wall)
                cpus.append(cpu)
                kernel_s.append(speed)
    runner.wall_clock, runner.cpu_clock = perf_counter, cpu_seconds
    return {"wall_s": walls, "cpu_s": cpus, "kernel_s": kernel_s}


def measure_traced(runner: Runner, seconds: float, spans_path: str | None) -> dict:
    """Traced run: alternate untraced and traced invocations for `seconds`.

    Per-layer values are means per traced invocation; self times of every
    span of one invocation add up to its root span.
    """
    runner.invoke()  # warm-up
    plain, traced = [], []
    totals: dict[str, float] = {}
    tracer = Tracer()
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(runner.invoke()[0])
        tracer.reset()
        with tracer.install():
            traced.append(runner.invoke(tracer)[0])
        runner.check_sim(tracer.counts)
        if spans_path and len(traced) == 1:
            tracer.write_spans(spans_path)
        for key, value in {**tracer.layer_totals(), **tracer.counts}.items():
            totals[key] = totals.get(key, 0.0) + value
        totals["trace.self_sum_s"] = totals.get("trace.self_sum_s", 0.0) + float(tracer.self_times().sum())
        totals["trace.root_s"] = totals.get("trace.root_s", 0.0) + tracer.root_seconds()
    layers = {key: value / len(traced) for key, value in totals.items()}
    return {"wall_s": plain, "traced_wall_s": traced, "layers": layers}


def main(job: dict) -> dict:
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import pcmxbar.cli

    if not Path(pcmxbar.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pcmxbar was imported from {pcmxbar.cli.__file__}, not from {src}")
    runner = Runner(pcmxbar.cli.run_cli, job["argv"], Path(job["out_dir"]), job["keep"], job["files"], job["sim"])
    if job["trace"]:
        result = measure_traced(runner, job["seconds"], job.get("spans_path"))
    else:
        result = measure(runner, job["seconds"])
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        sim=runner.sim,
        files=runner.files,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
