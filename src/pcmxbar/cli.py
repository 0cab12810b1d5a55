"""Command line front end.

Subcommands: learn (full learn-and-recall run), recall (read-only probe of a
stored array), sweep (variation classes to a CSV summary), device-curve
(gradual-SET staircase of a single cell). Exit codes: 0 success, 2 bad
config, 3 file system trouble, 4 simulation error or out of memory.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
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
from .crossbar import load_resistance_csv, save_resistance_csv
from .device import apply_set_pulse
from .errors import ConfigParseError, CorruptArrayFile, SimulationError
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


def _array_files(arrays, stage: Path, snapshots: bool):
    """(ohms, path) of each array learn stores, from a run's (epoch, ohms) stream in epoch order."""
    for epoch, matrix in arrays:
        if epoch is None:
            yield matrix, stage / "array_final.csv"
            continue
        if epoch == 0:
            yield matrix, stage / "array_initial.csv"
        if snapshots:
            yield matrix, stage / "snapshots" / f"epoch_{epoch:04d}.csv"


def _cmd_learn(args, out: Path, nearest: Path) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    snapshots = config.snapshot_every > 0
    # Files are written into a scratch directory on out's file system (in out, else in its
    # nearest existing ancestor) and moved in once all are complete, so a run that fails
    # before then leaves out, and whatever holds it, as it found them.
    with tempfile.TemporaryDirectory(prefix=".learn-", dir=nearest) as scratch:
        stage = Path(scratch)
        if snapshots:
            (stage / "snapshots").mkdir()
        # Each array is written while its epoch is current, in epoch order, so
        # it differs from the one before only where it was programmed, and
        # only those cells are formatted anew.
        report = learn_and_recall(
            config, store=lambda arrays: save_resistance_csv(_array_files(arrays, stage, snapshots))
        )
        # Serialized before any file moves into out, so a non-finite result
        # leaves out as it was; traces.jsonl holds only records the report holds too.
        _write(stage / "report.json", report_json(report))
        _write(stage / "traces.jsonl", traces_jsonl(report))
        if snapshots:
            stats = [{"epoch": s.epoch, **stats_to_dict(s.stats)} for s in report.snapshots]
            _write(stage / "snapshots" / "stats.jsonl", "".join(json_text("stats.jsonl", line) for line in stats))
            _write(stage / "histograms.csv", histograms_csv(distribution_history(report)))
        # an earlier run's snapshot files (and a directory they leave empty) go, so out holds what a fresh run would
        snapdir = out / "snapshots"
        for path in [*snapdir.glob("epoch_*.csv"), snapdir / "stats.jsonl", out / "histograms.csv"]:
            path.unlink(missing_ok=True)
        if not snapshots and snapdir.is_dir() and not any(snapdir.iterdir()):
            snapdir.rmdir()
        for src in sorted(stage.rglob("*")):
            if src.is_file():
                dst = out / src.relative_to(stage)
                dst.parent.mkdir(parents=True, exist_ok=True)
                src.replace(dst)
    if report.epochs_to_recall is None:
        _say(args, f"recall not reached within {config.max_epochs} epochs")
    else:
        _say(args, f"recall after {report.epochs_to_recall} epoch(s)")
    _say(args, f"total energy: {report.total_energy:.4e} J")
    _say(args, f"wrote {out / 'report.json'}")
    return EXIT_OK


def _load_stored(path: Path, config):
    """The stored array at path, checked as recall needs it; each error names the file.

    The file must exist (else FileNotFoundError, exit 3), load within memory
    and hold a config.n x config.n array; any array recall cannot use is a
    CorruptArrayFile (exit 4).
    """
    if not path.is_file():
        raise FileNotFoundError(f"no stored array at {path}; run learn into this directory first")
    try:
        array = load_resistance_csv(path, config.device)
    except MemoryError as exc:
        raise MemoryError(f"reading {path}: {exc}") from None
    if array.n != config.n:
        raise CorruptArrayFile(f"{path}: array dimension {array.n} != config n {config.n}")
    return array


def _cmd_recall(args, out: Path, nearest: Path) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    trained, baseline = (_load_stored(out / name, config) for name in ("array_final.csv", "array_initial.csv"))
    thresholds = compute_thresholds(baseline, config.recall_stimulus, config.protocol)
    probe = recall_probe(trained, config.recall_stimulus, thresholds, config.protocol)
    success = recall_success(probe.final_firing, config.recall_target)
    _write(out / "recall.json", recall_json(config, probe, thresholds, success))
    _say(args, f"final firing set: {sorted(probe.final_firing)}")
    _say(args, f"wrote {out / 'recall.json'}")
    return EXIT_OK


def _cmd_sweep(args, out: Path, nearest: Path) -> int:
    base, spec = load_sweep(_resolve_config(args.config))
    base = _apply_overrides(base, args)
    rows = variation_sweep(base, spec)
    _write(out / "sweep.csv", sweep_rows_csv(rows))
    for row in rows:
        _say(
            args,
            f"cv={row.cv:g}: median_epochs={row.median_epochs:g} "
            f"mean_energy={row.mean_energy:.4e} J success_rate={row.success_rate:.2f}",
        )
    _say(args, f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_device_curve(args, out: Path, nearest: Path) -> int:
    config = _apply_overrides(load_config(_resolve_config(args.config)), args)
    pulses = args.epochs if args.epochs is not None else 50
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    resistance = np.array([config.init.median])  # one cell
    lines = ["pulse_index,resistance_ohm", f"0,{config.init.median!r}"]
    for k in range(1, pulses + 1):
        resistance = apply_set_pulse(resistance, config.protocol.program_pulse, config.device, rng)
        lines.append(f"{k},{float(resistance[0])!r}")
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
    # each takes the args, --out-dir as a Path, and its nearest existing path (a directory)
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
        out = Path(args.out_dir)
        # a link counts as there: a dangling one is no directory to write in
        nearest = next(p for p in (out, *out.absolute().parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise NotADirectoryError(f"--out-dir {args.out_dir}: {nearest} is not a directory")
        return args.func(args, out, nearest)
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
