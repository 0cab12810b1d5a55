"""Serialization tests: JSON config round-trips, bundled files, report output."""
from __future__ import annotations

import copy
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmxbar import ExperimentConfig, InitVariant, PulseRole, learn_and_recall
from pcmxbar.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIMULATION, main
from pcmxbar.configio import (
    HISTOGRAM_CSV_HEADER,
    SWEEP_CSV_HEADER,
    _decode,
    bundled_config_path,
    config_from_dict,
    config_to_dict,
    histograms_csv,
    json_text,
    load_config,
    load_config_dict,
    load_sweep,
    recall_json,
    report_json,
    report_to_dict,
    sweep_rows_csv,
    traces_jsonl,
)
from pcmxbar.errors import ConfigParseError, SimulationError
from pcmxbar.experiments import HISTOGRAM_BINS, SweepRow, distribution_history
from pcmxbar.network import ProbeResult, ProbeStep


def test_bundled_default_config_loads():
    config = load_config(bundled_config_path("paper10x10.json"))
    assert config.n == 10
    assert config.seed == 1
    assert config.device.sigma_c2c == 0.0
    assert config.protocol.threshold_factor == 2.0
    assert config.recall_target.on_set() == frozenset({0, 1, 2, 3, 5})
    assert config.recall_stimulus.on_set() == frozenset({0, 1, 2, 3})
    assert len(config.patterns) == 2


def test_bundled_sweep_config_loads():
    config, spec = load_sweep(bundled_config_path("sweep10x10.json"))
    assert spec.cvs == (0.05, 0.09, 0.3, 0.6)
    assert spec.seeds_per_cv == 200
    assert config.n == 10


def test_config_round_trip_through_dict():
    config = load_config(bundled_config_path("paper10x10.json"))
    again = config_from_dict(config_to_dict(config))
    assert again == config


def test_device_round_trip():
    config = load_config(bundled_config_path("paper10x10.json"))
    d = config_to_dict(config)
    assert config_from_dict(d).device == config.device
    assert d["device"]["r_reset_partial_median"] == 22000.0


def test_protocol_round_trip():
    config = load_config(bundled_config_path("paper10x10.json"))
    assert config_from_dict(config_to_dict(config)).protocol == config.protocol


def test_config_dict_is_json_clean():
    config = load_config(bundled_config_path("paper10x10.json"))
    text = json.dumps(config_to_dict(config), sort_keys=True)
    assert config_from_dict(json.loads(text)) == config


def test_missing_key_is_a_parse_error():
    d = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    del d["device"]
    with pytest.raises(ConfigParseError):
        config_from_dict(d)
    d2 = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    del d2["device"]["alpha_set"]
    with pytest.raises(ConfigParseError):
        config_from_dict(d2)


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config_dict(path)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config_dict(tmp_path / "nope.json")


def test_sweep_section_required_for_sweep_load(tmp_path):
    config = load_config_dict(bundled_config_path("paper10x10.json"))
    path = tmp_path / "nosweep.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigParseError):
        load_sweep(path)


def test_float_field_takes_an_int_and_optional_keys_default():
    # the int is stored as a float, so the echo in report.json reads 0.0
    d = load_config_dict(bundled_config_path("paper10x10.json"))
    d["protocol"]["read_pulse"]["t_rise"] = 0
    d.pop("snapshot_every")
    config = config_from_dict(d)
    assert type(config.protocol.read_pulse.t_rise) is float
    assert config.snapshot_every == 0
    assert config == config_from_dict(config_to_dict(config))


# Each case sets one key of the bundled sweep config: (key path, value, the
# key path the error must name). Checks raised by a dataclass itself name the
# dataclass's own key.
BAD_CONFIGS = {
    "bool-given-a-string": (("protocol", "include_diagonal"), "false", "protocol.include_diagonal"),
    "int-given-a-fraction": (("n",), 10.9, "n"),
    "int-given-an-integral-float": (("n",), 10.0, "n"),
    "int-given-a-bool": (("protocol", "pulses_per_coactivation"), True, "protocol.pulses_per_coactivation"),
    "float-given-a-string": (("device", "alpha_set"), "0.6", "device.alpha_set"),
    "nan-sigma-c2c": (("device", "sigma_c2c"), math.nan, "device.sigma_c2c"),
    "nan-program-pulse-width": (("protocol", "program_pulse", "t_width"), math.nan, "protocol.program_pulse.t_width"),
    "nan-reset-pulse-fall": (("protocol", "reset_pulse", "t_fall"), math.nan, "protocol.reset_pulse.t_fall"),
    "unsorted-sweep-cvs": (("sweep", "cvs"), [0.6, 0.05], "sweep"),
    "zero-seeds-per-cv": (("sweep", "seeds_per_cv"), 0, "sweep"),
    "sweep-cv-out-of-range": (("sweep", "cvs"), [2.5], "sweep"),
    "negative-seed": (("seed",), -1, "seed"),
    "pattern-length-not-n": (("patterns", 0), [1, 1, 1, 1, 0, 1, 0, 0, 0], "patterns[0]"),
    "unknown-pulse-role": (("protocol", "program_pulse", "role"), "write", "protocol.program_pulse.role"),
    "init-median-above-r-max": (("init", "median"), 1e300, "init.median"),
    "init-median-at-r-min": (("init", "median"), 10000.0, "init.median"),
    "target-without-off-neuron": (("recall_target",), [1] * 10, "recall_target"),
    "stimulus-without-on-neuron": (("recall_stimulus",), [0] * 10, "recall_stimulus"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_value_is_a_parse_error_naming_file_and_key(tmp_path, capsys, case):
    keys, value, named = BAD_CONFIGS[case]
    d = load_config_dict(bundled_config_path("sweep10x10.json"))
    parent = d
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigParseError) as excinfo:
        load_sweep(path)
    assert f"config file {path}: {named}" in str(excinfo.value)
    # learn reads no sweep section, so only the sweep command sees those cases
    command = "sweep" if named == "sweep" else "learn"
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and named in err and "Traceback" not in err
    assert not out_dir.exists()


# ---------------------------------------------------------------- mutated configs

BUNDLED = [load_config_dict(bundled_config_path(name)) for name in ("paper10x10.json", "sweep10x10.json")]


def _key_paths(node, prefix=()):
    """Key path of every value below node, node itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _json_values(integers):
    scalars = st.one_of(st.none(), st.booleans(), integers, st.floats(), st.text(max_size=8))
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4), st.dictionaries(st.text(max_size=8), children, max_size=4)
        ),
        max_leaves=8,
    )


def _same_type(value, integers):
    """Values of value's JSON type, floats mostly near value, so that many mutants still parse."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return integers
    if isinstance(value, float):
        return st.one_of(st.floats(), st.floats(0.5, 2.0).map(lambda f: value * f))
    if isinstance(value, str):
        return st.sampled_from([m.value for enum in (PulseRole, InitVariant) for m in enum])
    return _json_values(integers)


@st.composite
def mutated_configs(draw, integers):
    """A bundled config with one to three keys deleted, retyped or given a new value of their type."""
    config = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.sampled_from(list(_key_paths(config))))
        parent = config
        for key in keys[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "retype", "change"]))
        if action == "delete":
            del parent[keys[-1]]
        elif action == "retype":
            parent[keys[-1]] = draw(_json_values(integers))
        else:
            parent[keys[-1]] = draw(_same_type(parent[keys[-1]], integers))
    return config


@settings(max_examples=300, deadline=None)
@given(mutated_configs(st.integers()))
def test_mutated_config_parses_or_is_a_parse_error(d):
    try:
        config = config_from_dict(d)
    except ConfigParseError:
        return
    assert config_from_dict(config_to_dict(config)) == config


# Small integers only: a parsed pulses_per_coactivation of 10**9 is a valid,
# very long run, not a boundary case.
@settings(max_examples=60, deadline=None)
@given(mutated_configs(st.integers(-3, 12)))
def test_cli_on_mutated_config_exits_with_a_documented_code(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(d))
        code = main(["learn", "--config", str(path), "--out-dir", str(Path(tmp) / "out"), "--epochs", "1", "--quiet"])
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_SIMULATION}


# ---------------------------------------------------------------- reports


def _small_report():
    config = load_config(bundled_config_path("paper10x10.json"))
    return learn_and_recall(config)


def test_report_json_units_and_shape():
    report = _small_report()
    d = report_to_dict(report)
    assert d["epochs_to_recall"] == 1
    assert d["total_energy_J"] == report.total_energy
    assert set(d["energy_breakdown_J"]) == {
        "training_program",
        "training_read",
        "probe_read",
    }
    assert len(d["thresholds_A"]) == 10
    assert d["initial_stats"]["mean_ohm"] == 1.0e6
    assert d["config"]["seed"] == 1
    text = report_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(report_json(report))


def test_traces_jsonl_one_line_per_trace():
    report = _small_report()
    lines = traces_jsonl(report).strip().split("\n")
    assert len(lines) == len(report.traces)
    first = json.loads(lines[0])
    assert first["phase"] == "train"
    assert first["epoch"] == 1
    assert len(first["currents_A"]) == 10
    # firing neurons read nothing; JSON carries null
    assert first["currents_A"][0] is None
    assert first["firing_set"] == [0, 1, 2, 3, 5]
    assert "program_energy_J" in first and "read_energy_J" in first


def test_a_threshold_that_is_not_finite_is_not_written_but_a_nan_current_is_null():
    report = _small_report()
    config = report.config
    currents = np.array([math.nan, 1.5e-7])
    probe = ProbeResult(frozenset({0}), [ProbeStep(currents, frozenset())], 0.0)
    recall = json.loads(recall_json(config, probe, np.array([1.0e-7, 2.0e-7]), False))
    assert recall["steps"][0]["currents_A"] == [None, 1.5e-7]
    for threshold in (math.nan, math.inf):
        thresholds = np.array([1.0e-7, threshold])
        with pytest.raises(SimulationError, match="^cannot write recall.json: a result is not finite"):
            recall_json(config, probe, thresholds, False)
        report.thresholds = thresholds
        with pytest.raises(SimulationError, match="^cannot write report.json: a result is not finite"):
            report_json(report)


# floats whose text is easy to get wrong, and currents as a probe reads them
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1e16, 1e-7]),
    st.floats(9e-8, 1.1e-7),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), finite_floats, st.text(max_size=6)
)
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(st.text(max_size=6), children, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payload=json_payloads)
@example(payload={"z": [{"a": [[1e-7, None], []], "b": {}}, 2], "": {"\u00e9\n\"": [-0.0, 5e-324, 1e308, 10**30]}})
@example(payload=[[[[]]], {"k": [{"m": True}]}, "\ud800\t"])
def test_indented_json_text_is_json_dumps_text(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert json_text("out.json", payload, indent=2) == expected


@st.composite
def payloads_holding_a_non_finite_float(draw):
    """A non-finite float, wrapped 0-4 times in a list or dict beside finite scalars."""
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.permutations(draw(st.lists(json_scalars, max_size=3)) + [value]))
        if draw(st.booleans()):
            value = items
        else:
            keys = draw(st.lists(st.text(max_size=6), min_size=len(items), max_size=len(items), unique=True))
            value = dict(zip(keys, items))
    return value


@pytest.mark.parametrize("indent", [None, 2])
@settings(max_examples=100, deadline=None)
@given(payload=payloads_holding_a_non_finite_float())
def test_json_text_of_a_non_finite_float_at_any_depth_is_simulation_error(indent, payload):
    with pytest.raises(SimulationError, match=r"^cannot write out\.json: a result is not finite"):
        json_text("out.json", payload, indent=indent)


def test_sweep_rows_csv_format():
    rows = [
        SweepRow(cv=0.09, median_epochs=1.0, mean_energy=1.4e-10, success_rate=1.0),
        SweepRow(cv=0.60, median_epochs=5.0, mean_energy=7.6e-08, success_rate=0.5),
    ]
    text = sweep_rows_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER == "cv,median_epochs,mean_energy_J,success_rate"
    assert lines[1].startswith("0.09,1.0,")
    assert len(lines) == 3


def test_histograms_csv_format():
    config = load_config(bundled_config_path("paper10x10.json"))
    report = learn_and_recall(config)
    hist = distribution_history(report)
    text = histograms_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == HISTOGRAM_CSV_HEADER == "epoch,bin_low_ohm,bin_high_ohm,count"
    # 2 snapshots x HISTOGRAM_BINS bins
    assert len(lines) == 1 + 2 * HISTOGRAM_BINS
    epoch, lo, hi, count = lines[1].split(",")
    assert epoch == "0"
    assert float(lo) < float(hi)
    assert int(count) >= 0


def test_bundled_config_survives_reserialization(tmp_path):
    # a config written back from memory parses to the same ExperimentConfig
    config = load_config(bundled_config_path("paper10x10.json"))
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(config_to_dict(config), indent=2))
    assert load_config(path) == config


def test_config_from_dict_produces_experiment_config():
    config = load_config(bundled_config_path("paper10x10.json"))
    assert isinstance(config, ExperimentConfig)


def test_decode_raises_type_error_for_a_field_type_it_cannot_decode():
    # a config class with a field no JSON decoder serves is a programming
    # error, not a bad config file, so it is no ConfigParseError
    @dataclass(frozen=True)
    class Labelled:
        label: str

    with pytest.raises(TypeError, match=r"^no JSON decoding for config field type <class 'str'>$"):
        _decode(Labelled, {"label": "x"}, "")
