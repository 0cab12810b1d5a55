"""JSON and CSV serialization: configs in, reports and summaries out.

Config keys mirror the dataclass field names. Output keys carry SI unit
suffixes (_J, _A, _ohm) on every dimensioned number. Serialization is
deterministic: keys are sorted, floats use repr, and nothing varies between
identical runs, so reruns of the same config and seed are byte-identical.
"""
from __future__ import annotations

import enum
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .crossbar import ArrayStats
from .errors import ConfigParseError, SimulationError
from .experiments import ExperimentConfig, RunReport, SweepRow, SweepSpec
from .network import EpochTrace, Pattern, ProbeResult

SWEEP_CSV_HEADER = "cv,median_epochs,mean_energy_J,success_rate"
HISTOGRAM_CSV_HEADER = "epoch,bin_low_ohm,bin_high_ohm,count"


# Fields a config file may leave out; they keep their dataclass defaults.
# Every other field of every config dataclass is required.
OPTIONAL_KEYS = frozenset({"max_epochs", "seed", "snapshot_every", "tuned_cv_max"})


def config_to_dict(config) -> dict:
    """JSON-ready dict of a config dataclass, keyed by its field names.

    Enums become their values, tuples become lists and a Pattern becomes a
    list of 0/1 ints.
    """
    return {f.name: _encode(getattr(config, f.name)) for f in fields(config)}


def _encode(value):
    if isinstance(value, Pattern):
        return [int(b) for b in value.bits]
    if is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# get_type_hints evaluates every string annotation anew; the config classes are fixed.
_field_types = functools.cache(get_type_hints)


def _decode(tp, value, path: str):
    """Build a value of type tp from parsed JSON, checking the JSON type strictly.

    path is the dotted key of value in the config; every error names it.
    """
    if tp is Pattern:
        if not isinstance(value, list) or not all(type(b) in (bool, int) and b in (0, 1) for b in value):
            raise ConfigParseError(f"{path} must be a list of 0/1 bits")
        return Pattern(tuple(bool(b) for b in value))
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigParseError(f"{path or 'config'} must be a JSON object, got {value!r}")
        hints = _field_types(tp)
        kwargs = {}
        for f in fields(tp):
            key = f"{path}.{f.name}" if path else f.name
            if f.name in value:
                kwargs[f.name] = _decode(hints[f.name], value[f.name], key)
            elif f.name not in OPTIONAL_KEYS:
                raise ConfigParseError(f"missing key '{key}'")
        try:
            return tp(**kwargs)
        except (ValueError, SimulationError) as exc:
            raise ConfigParseError(f"{path}: {exc}" if path else str(exc)) from exc
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigParseError(f"{path} must be a JSON list, got {value!r}")
        item_type = get_args(tp)[0]
        return tuple(_decode(item_type, v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            allowed = ", ".join(repr(m.value) for m in tp)
            raise ConfigParseError(f"{path} must be one of {allowed}, got {value!r}") from None
    if tp is bool:
        if type(value) is not bool:
            raise ConfigParseError(f"{path} must be true or false, got {value!r}")
        return value
    if tp is int:
        if type(value) is not int:
            raise ConfigParseError(f"{path} must be a JSON integer, got {value!r}")
        return value
    if tp is float:
        # a negation, so that NaN fails too; an int beyond the float range compares exactly
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ConfigParseError(f"{path} must be a finite number, got {value!r}")
        return float(value)
    raise TypeError(f"no JSON decoding for config field type {tp!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    """ExperimentConfig from a parsed config; keys other than its fields are ignored."""
    return _decode(ExperimentConfig, d, "")


def load_config_dict(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"config file {path} is not UTF-8 text: {exc}") from exc
    try:
        d = json.loads(text)
    # JSONDecodeError is a ValueError, and so is an integer past Python's
    # digit limit; deep nesting overflows the decoder's recursion
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigParseError(f"config file {path} must hold a JSON object")
    return d


def load_config(path: str | Path) -> ExperimentConfig:
    d = load_config_dict(path)
    try:
        return config_from_dict(d)
    except ConfigParseError as exc:
        raise ConfigParseError(f"config file {path}: {exc}") from exc


def load_sweep(path: str | Path) -> tuple[ExperimentConfig, SweepSpec]:
    d = load_config_dict(path)
    try:
        if "sweep" not in d:
            raise ConfigParseError("missing key 'sweep'")
        return config_from_dict(d), _decode(SweepSpec, d["sweep"], "sweep")
    except ConfigParseError as exc:
        raise ConfigParseError(f"config file {path}: {exc}") from exc


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped inside the package."""
    path = resources.files("pcmxbar").joinpath("configs", name)
    return Path(str(path))


def json_text(name: str, payload, indent: int | None = None) -> str:
    """Text of the JSON output file name: payload with sorted keys, then a newline.

    JSON (RFC 8259) has no Infinity or NaN; a payload holding one raises SimulationError.
    """
    try:
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SimulationError(f"cannot write {name}: a result is not finite ({exc})") from exc


def _json_floats(values) -> list:
    """values as a list of floats, with NaN as None (JSON null)."""
    return [None if math.isnan(v) else v for v in values.tolist()]


def stats_to_dict(stats: ArrayStats) -> dict:
    return {
        "mean_ohm": stats.mean,
        "std_ohm": stats.std,
        "cv": stats.cv,
        "min_ohm": stats.min,
        "max_ohm": stats.max,
        "median_ohm": stats.median,
    }


# A probe always reaches its fixpoint, so trace and recall records carry
# "converged": true only to keep the key in both formats.
def trace_to_dict(trace: EpochTrace) -> dict:
    return {
        "epoch": trace.epoch,
        "phase": trace.phase,
        "firing_set": sorted(trace.firing_set),
        "currents_A": _json_floats(trace.currents),
        "program_energy_J": trace.program_energy,
        "read_energy_J": trace.read_energy,
        "converged": True,
    }


def report_to_dict(report: RunReport) -> dict:
    return {
        "config": config_to_dict(report.config),
        "epochs_to_recall": report.epochs_to_recall,
        "total_energy_J": report.total_energy,
        "energy_breakdown_J": {k: v for k, v in sorted(report.energy_breakdown.items())},
        "initial_cv": report.initial_stats.cv,
        "initial_stats": stats_to_dict(report.initial_stats),
        "final_stats": stats_to_dict(report.final_stats),
        "thresholds_A": report.thresholds.tolist(),
        "contrast_history": list(report.contrast_history),
        "traces": [trace_to_dict(t) for t in report.traces],
    }


def report_json(report: RunReport) -> str:
    return json_text("report.json", report_to_dict(report), indent=2)


def traces_jsonl(report: RunReport) -> str:
    return "".join(json_text("traces.jsonl", trace_to_dict(t)) for t in report.traces)


def recall_json(config: ExperimentConfig, probe: ProbeResult, thresholds, success: bool) -> str:
    """recall.json text: the probe's final firing set, success flag and per-step currents."""
    payload = {
        "config": config_to_dict(config),
        "final_firing": sorted(probe.final_firing),
        "success": success,
        "converged": True,
        "read_energy_J": probe.read_energy,
        "thresholds_A": thresholds.tolist(),
        "steps": [
            {
                "step": index,
                "newly_fired": sorted(step.newly_fired),
                "currents_A": _json_floats(step.currents),
            }
            for index, step in enumerate(probe.steps)
        ],
    }
    return json_text("recall.json", payload, indent=2)


def sweep_rows_csv(rows: list[SweepRow]) -> str:
    """sweep.csv text; raises SimulationError if a class's mean energy is not finite.

    median_epochs is inf by design when over half the seeds never recall.
    """
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        if not math.isfinite(row.mean_energy):
            raise SimulationError(
                f"cannot write sweep.csv: the mean energy of cv {row.cv!r} is not finite ({row.mean_energy!r} J)"
            )
        lines.append(f"{row.cv!r},{row.median_epochs!r},{row.mean_energy!r},{row.success_rate!r}")
    return "\n".join(lines) + "\n"


def histograms_csv(histograms) -> str:
    """Flatten SnapshotHistogram records into epoch,bin_low_ohm,bin_high_ohm,count."""
    lines = [HISTOGRAM_CSV_HEADER]
    for h in histograms:
        edges = h.bin_edges.tolist()
        for lo, hi, count in zip(edges, edges[1:], h.counts.tolist()):
            lines.append(f"{h.epoch},{lo!r},{hi!r},{count}")
    return "\n".join(lines) + "\n"
