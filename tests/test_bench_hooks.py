"""The benchmark tracer's hooks still fit the functions they patch.

perfbench/tracer.py wraps pcmxbar functions by module and name, and its
counters read arguments by position (or by keyword). A rename or a moved
parameter breaks a traced benchmark run (`perfbench/run.py --trace 1`)
without failing any other test. These tests load the tracer (and the
workloads and pins) from their files, change nothing in them, and check
them against the package.
"""
from __future__ import annotations

import importlib
import inspect
import json
import re
import sys

from pcmxbar.cli import EXIT_OK, main

from conftest import PERFBENCH, digests, load_module

# How a counter reads an argument of the hooked call: _arg(args, kwargs, index, "name").
ARG_READ = re.compile(r'_arg\(args, kwargs, (\d+), "(\w+)"\)')


def hooked(module_name: str, fn_name: str):
    return getattr(importlib.import_module(f"pcmxbar.{module_name}"), fn_name, None)


def pcmxbar_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "pcmxbar" or name.startswith("pcmxbar.")
        for attr, value in vars(module).items()
    }


def test_every_hook_target_resolves(tracer):
    missing = [f"pcmxbar.{m}.{f}" for m, f, _, _ in tracer.HOOKS if not callable(hooked(m, f))]
    assert missing == []


def test_counter_arguments_sit_at_the_index_they_are_read(tracer):
    read = set()
    for module_name, fn_name, _, counter in tracer.HOOKS:
        if counter is None:
            continue
        params = list(inspect.signature(hooked(module_name, fn_name)).parameters)
        for index, name in ARG_READ.findall(inspect.getsource(counter)):
            assert params[int(index) : int(index) + 1] == [name], f"{fn_name}{tuple(params)} reads {name} at {index}"
            read.add(name)
    assert read == {"n", "array", "gated_wls", "stimulus", "partial"}


def test_install_counts_a_run_and_uninstall_restores_every_binding(tracer, tmp_path):
    before = pcmxbar_bindings()
    t = tracer.Tracer().install()
    try:
        assert pcmxbar_bindings() != before
        assert main(["learn", "--config", "paper10x10.json", "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    finally:
        t.uninstall()
    assert pcmxbar_bindings() == before
    assert {name: t.counts[name] > 0 for name in tracer.SIM_COUNTS} == dict.fromkeys(tracer.SIM_COUNTS, True)
    assert t.counts["network.recall_probe.calls"] >= 1


def test_traced_learn_times_the_array_writer(tracer, tmp_path):
    t = tracer.Tracer().install()
    try:
        assert main(["learn", "--config", "paper10x10.json", "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    finally:
        t.uninstall()
    assert t.counts["crossbar.save_resistance_csv.calls"] >= 1
    assert "crossbar.save_resistance_csv" in t.names


def test_traced_learn_times_the_device_laws(tracer, tmp_path):
    # init_array and program_cells call the device laws through their own
    # module bindings, which the tracer patches
    t = tracer.Tracer().install()
    try:
        assert main(["learn", "--config", "paper10x10.json", "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    finally:
        t.uninstall()
    assert t.counts["device.apply_reset_pulse.calls"] == t.counts["crossbar.init_array.calls"] >= 1
    assert t.counts["device.apply_set_pulse.calls"] == t.counts["crossbar.program_cells.calls"] >= 1
    assert {"device.apply_set_pulse", "device.apply_reset_pulse"} <= set(t.names)


def test_traced_256_workloads_recount_the_pinned_events(tracer, tmp_path):
    # The benchmark's counting warm-up recounts sim.* through SIM_HOOKS and
    # reports correct: false unless the totals equal the pins, and so does a
    # run whose output files differ from the pinned digests by a byte. The
    # bundled sweep's totals are held by test_bundled_sweep_event_contract.
    workloads = load_module("perfbench_workloads", PERFBENCH / "workloads.py")
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    seed = workloads.DEFAULT_SEED
    root = PERFBENCH.parent
    learn_dir = None
    for name in ("learn256", "recall256"):
        workload = workloads.WORKLOADS[name]
        config_path, out_dir = workloads.write_inputs(workload, root, seed, tmp_path / name)
        if workload.trained:
            # the arrays of the learn run just made, as the benchmark's set-up stores them
            workloads.write_trained_arrays(learn_dir, out_dir, seed, workload.n)
        with tracer.Tracer().install(only=tracer.SIM_HOOKS) as counter:
            assert main(workloads.cli_argv(workload, config_path, out_dir)) == EXIT_OK
        assert {k: counter.counts[k] for k in tracer.SIM_COUNTS} == pins[name][str(seed)]["sim"], name
        assert digests(out_dir) == pins[name][str(seed)]["files"], name
        learn_dir = out_dir
