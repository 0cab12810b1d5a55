"""Command line front end.

Subcommands: learn (full learn-and-recall run), recall (read-only probe of a
stored array), sweep (variation classes to a CSV summary), device-curve
(gradual-SET staircase of a single cell). Exit codes: 0 success, 2 bad
config, 3 file system trouble, 4 simulation error or out of memory.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .configio import (
    bundled_config_path,
    histograms_csv,
    json_text,
    load_config,
    load_sweep,
    recall_json,
    report_json,
    stats_to_dict,
    sweep_rows_csv,
    traces_jsonl,
)
from .crossbar import array_stats, load_resistance_csv, save_resistance_csv
from .device import apply_set_pulse
from .errors import ConfigParseError, DimensionMismatch, SimulationError
from .experiments import distribution_history, learn_and_recall, variation_sweep
from .network import compute_thresholds, recall_probe, recall_success

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SIMULATION = 4


def _resolve_config(path: str) -> Path:
    """Accept a file path or the bare name of a bundled configuration."""
    candidate = Path(path)
    if candidate.is_file():
        return candidate
    bundled = bundled_config_path(candidate.name)
    if candidate.name == str(candidate) and bundled.is_file():
        return bundled
    raise ConfigParseError(f"config file not found: {path}")


def _apply_overrides(config, args):
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.epochs is not None:
        config = replace(config, max_epochs=args.epochs)
    return config


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cmd_learn(args) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    report = learn_and_recall(config)
    # Serialized before any file changes, so a non-finite result writes nothing;
    # traces.jsonl holds only records the report holds too.
    report_text = report_json(report)
    out = Path(args.out_dir)
    snapdir = out / "snapshots"
    kept = report.snapshots if config.snapshot_every > 0 else []
    snapshot_files = [(matrix, snapdir / f"epoch_{epoch:04d}.csv") for epoch, matrix in kept]
    # an earlier run's snapshot files go, so the directory holds what a fresh one would
    for path in [*snapdir.glob("epoch_*.csv"), snapdir / "stats.jsonl", out / "histograms.csv"]:
        path.unlink(missing_ok=True)
    _write(out / "report.json", report_text)
    _write(out / "traces.jsonl", traces_jsonl(report))
    arrays = [(report.snapshots[0][1], out / "array_initial.csv"), *snapshot_files]
    if config.snapshot_every > 0:
        snapdir.mkdir(parents=True, exist_ok=True)
        stats_lines = [
            json_text("stats.jsonl", {"epoch": epoch, **stats_to_dict(array_stats(matrix))})
            for epoch, matrix in report.snapshots
        ]
        _write(snapdir / "stats.jsonl", "".join(stats_lines))
        _write(out / "histograms.csv", histograms_csv(distribution_history(report)))
    # In epoch order, each array differs from the one before only where it
    # was programmed, and only those cells are formatted anew.
    arrays.append((report.final_resistance, out / "array_final.csv"))
    save_resistance_csv(arrays)
    if report.epochs_to_recall is None:
        _say(args, f"recall not reached within {config.max_epochs} epochs")
    else:
        _say(args, f"recall after {report.epochs_to_recall} epoch(s)")
    _say(args, f"total energy: {report.total_energy:.4e} J")
    _say(args, f"wrote {out / 'report.json'}")
    return EXIT_OK


def _load_stored(path: Path, params):
    """The stored array at path; out of memory, the error names the file."""
    try:
        return load_resistance_csv(path, params)
    except MemoryError as exc:
        raise MemoryError(f"reading {path}: {exc}") from None


def _cmd_recall(args) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    out = Path(args.out_dir)
    trained_path = out / "array_final.csv"
    baseline_path = out / "array_initial.csv"
    for path in (trained_path, baseline_path):
        if not path.is_file():
            raise FileNotFoundError(f"no stored array at {path}; run learn into this directory first")
    trained, baseline = (_load_stored(path, config.device) for path in (trained_path, baseline_path))
    for path, array in ((trained_path, trained), (baseline_path, baseline)):
        if array.n != config.n:
            raise DimensionMismatch(f"{path}: array dimension {array.n} != config n {config.n}")
    thresholds = compute_thresholds(baseline, config.recall_stimulus, config.protocol)
    probe = recall_probe(trained, config.recall_stimulus, thresholds, config.protocol)
    success = recall_success(probe.final_firing, config.recall_target)
    _write(out / "recall.json", recall_json(config, probe, thresholds, success))
    _say(args, f"final firing set: {sorted(probe.final_firing)}")
    _say(args, f"wrote {out / 'recall.json'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base, spec = load_sweep(_resolve_config(args.config))
    base = _apply_overrides(base, args)
    rows = variation_sweep(base, spec)
    out = Path(args.out_dir)
    _write(out / "sweep.csv", sweep_rows_csv(rows))
    for row in rows:
        _say(
            args,
            f"cv={row.cv:g}: median_epochs={row.median_epochs:g} "
            f"mean_energy={row.mean_energy:.4e} J success_rate={row.success_rate:.2f}",
        )
    _say(args, f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_device_curve(args) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    pulses = args.epochs if args.epochs is not None else 50
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    resistance = np.array([config.init.median])  # one cell
    lines = ["pulse_index,resistance_ohm", f"0,{config.init.median!r}"]
    for k in range(1, pulses + 1):
        resistance = apply_set_pulse(resistance, config.protocol.program_pulse, config.device, rng)
        lines.append(f"{k},{float(resistance[0])!r}")
    out = Path(args.out_dir)
    _write(out / "device_curve.csv", "\n".join(lines) + "\n")
    _say(args, f"wrote {out / 'device_curve.csv'} ({pulses} pulses)")
    return EXIT_OK


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmxbar",
        description="Phase-change synaptic crossbar simulator: Hebbian learning and pattern recall.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "learn": (_cmd_learn, "run learn-and-recall, write report, traces, and array snapshots"),
        "recall": (_cmd_recall, "probe a stored array in --out-dir with the configured stimulus"),
        "sweep": (_cmd_sweep, "run the variation sweep, write sweep.csv"),
        "device-curve": (_cmd_device_curve, "trace the gradual-SET staircase of one cell"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config JSON path or bundled config name")
        p.add_argument("--out-dir", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the config seed (>= 0)")
        p.add_argument(
            "--epochs", type=_int_at_least(1), default=None, help="override max epochs (pulses for device-curve; >= 1)"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except MemoryError as exc:
        print(f"simulation error: out of memory with config {args.config}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


# Programmatic entry point: run_cli(argv) returns the process exit status.
run_cli = main


if __name__ == "__main__":
    sys.exit(main())
