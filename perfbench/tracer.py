"""Spans and counts at the public function boundaries of the pcmxbar modules.

The modules bind each other's functions with ``from .x import f``, so a
wrapper only sees a call if it replaces the name where the caller looks it
up. ``Tracer.install`` therefore patches every binding of a hooked function
in every loaded pcmxbar module (for example both ``pcmxbar.crossbar.program_cells``
and ``pcmxbar.network.program_cells``) and ``uninstall`` restores them.

Spans stay in memory as flat arrays with a parent id. A span's self time is
its duration minus the durations of its direct children, so the self times
of one invocation add up to its root span exactly.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_init(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    counts["sim.reset_pulses"] += n * n


def _count_program(counts, args, kwargs, result):
    pulsed = result[2]
    counts["crossbar.program_cells.cells"] += pulsed
    counts["crossbar.program_cells.copied"] += _arg(args, kwargs, 0, "array").n ** 2
    counts["sim.set_pulses"] += pulsed


def _count_read(counts, args, kwargs, result):
    counts["crossbar.read_bitline.cells"] += len(_arg(args, kwargs, 2, "gated_wls"))


def _count_thresholds(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "array").n
    counts["sim.cell_reads"] += n * len(_arg(args, kwargs, 1, "stimulus").on_set())


def _count_epoch(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "array").n
    k = len(result[1].firing_set)
    counts["sim.cell_reads"] += (n - k) * k


def _count_probe(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "array").n
    firing = set(_arg(args, kwargs, 1, "partial").on_set())
    for step in result.steps:
        counts["sim.cell_reads"] += (n - len(firing)) * len(firing)
        firing |= step.newly_fired
    counts["network.recall_probe.steps"] += len(result.steps)
    counts["sim.probe_steps"] += len(result.steps)


def _count_bytes(counts, args, kwargs, result):
    counts["configio.bytes_out"] += len(result.encode())


# (defining module, function, span name or None for count-only, extra counter)
HOOKS = (
    ("configio", "load_config", "configio.load_config", None),
    ("configio", "load_sweep", "configio.load_config", None),
    ("configio", "report_json", "configio.serialize", _count_bytes),
    ("configio", "traces_jsonl", "configio.serialize", _count_bytes),
    ("configio", "sweep_rows_csv", "configio.serialize", _count_bytes),
    ("configio", "histograms_csv", "configio.serialize", _count_bytes),
    ("experiments", "variation_sweep", "experiments.variation_sweep", None),
    ("experiments", "learn_and_recall", "experiments.learn_and_recall", None),
    ("experiments", "weight_contrast", "experiments.weight_contrast", None),
    ("experiments", "distribution_history", "experiments.distribution_history", None),
    ("network", "training_epoch", "network.training_epoch", _count_epoch),
    ("network", "recall_probe", "network.recall_probe", _count_probe),
    ("network", "compute_thresholds", "network.compute_thresholds", _count_thresholds),
    ("crossbar", "init_array", "crossbar.init_array", _count_init),
    ("crossbar", "program_cells", "crossbar.program_cells", _count_program),
    ("crossbar", "read_bitline", "crossbar.read_bitline", _count_read),
    ("crossbar", "save_resistance_csv", "crossbar.save_resistance_csv", None),
    ("crossbar", "load_resistance_csv", "crossbar.load_resistance_csv", None),
    ("crossbar", "array_stats", "crossbar.array_stats", None),
    ("device", "apply_set_pulse", "device.apply_set_pulse", None),
    ("device", "apply_reset_pulse", "device.apply_reset_pulse", None),
    ("device", "pulse_energy", None, None),
)

# The hooks that recount the simulated events (sim.*). They sit at the
# network and crossbar API, so the counts do not depend on how a layer is
# implemented, and they are few enough calls to leave timings alone.
SIM_HOOKS = frozenset({"init_array", "program_cells", "compute_thresholds", "training_epoch", "recall_probe"})

# Simulated cell events: the numerator of sim_events_per_s.
EVENT_COUNTS = ("sim.set_pulses", "sim.reset_pulses", "sim.cell_reads")
SIM_COUNTS = EVENT_COUNTS + ("sim.probe_steps",)

ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans and counts for calls through the installed hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counts; installed hooks stay."""
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self._stack = [-1]
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str | None, counter=None):
        counts = self.counts
        calls = f"{span or fn.__module__.rsplit('.', 1)[-1] + '.' + fn.__name__}.calls"
        if span is None:

            def count_only(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return count_only
        name_id = self._name_id(span)

        def traced(*args, **kwargs):
            counts[calls] += 1
            sid = len(self.start)
            self.parent.append(self._stack[-1])
            self.name.append(name_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def call(self, span: str, fn, *args):
        """Run fn(*args) as a span of its own (the root of one invocation)."""
        return self.wrap(fn, span)(*args)

    def install(self, only: frozenset[str] | None = None) -> "Tracer":
        """Patch the hooked functions at every pcmxbar binding (all, or those in only)."""
        if self._patched:
            raise RuntimeError("tracer hooks are already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == "pcmxbar" or name.startswith("pcmxbar.")]
        for module_name, fn_name, span, counter in HOOKS:
            if only is not None and fn_name not in only:
                continue
            original = getattr(importlib.import_module(f"pcmxbar.{module_name}"), fn_name)
            wrapper = self.wrap(original, span, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        duration = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return duration - children

    def layer_totals(self) -> dict[str, float]:
        """Inclusive (``<span>.s``) and self (``<span>.self_s``) seconds per span name."""
        duration = self.durations()
        name = np.frombuffer(self.name, dtype=np.uint16)
        inclusive = np.bincount(name, weights=duration, minlength=len(self.names))
        own = np.bincount(name, weights=self.self_times(), minlength=len(self.names))
        totals = {}
        for i, span in enumerate(self.names):
            totals[f"{span}.s"] = float(inclusive[i])
            totals[f"{span}.self_s"] = float(own[i])
        return totals

    def root_seconds(self) -> float:
        duration = self.durations()
        return float(duration[np.frombuffer(self.parent, dtype=np.int64) < 0].sum())

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: id,parent,name,start_s,end_s,self_s."""
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid]!r},{self.end[sid]!r},{float(own[sid])!r}\n"
                )
