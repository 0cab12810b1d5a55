"""Benchmark workloads: seeded input generation and output checks.

Each workload is one pcmxbar CLI subcommand run on a config generated from
the workload seed. The program only ever sees the generated files: the
config, and for recall the two arrays a set-up learn run stored, with the
neurons relabeled by the seed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Seed whose output digests reproduce the bundled sweep config (seed 1).
DEFAULT_SEED = 1

# Sweep rows the bundled sweep10x10.json gives at its own seed:
# (cv, success_rate, median_epochs) per variation class.
BASELINE_SWEEP_ROWS = ((0.05, 1.0, 1.0), (0.09, 1.0, 1.0), (0.3, 0.64, 4.0), (0.6, 0.535, 5.0))

# Files a recall run reads from its --out-dir; set-up places them there.
TRAINED_ARRAYS = ("array_initial.csv", "array_final.csv")


def bundled_sweep_dict(root: Path) -> dict:
    return json.loads((root / "src" / "pcmxbar" / "configs" / "sweep10x10.json").read_text())


def sweep_config(root: Path, seed: int) -> dict:
    """The bundled 800-run sweep at n = 10 with the workload seed as master seed."""
    config = bundled_sweep_dict(root)
    config["seed"] = seed
    return config


def learn_config(root: Path, seed: int, n: int = 256) -> dict:
    """A large-array learn run: cv 0.6 partial-RESET init, two complementary patterns.

    The patterns are the two halves of a seeded permutation of the neurons;
    the recall stimulus is the first 80% of the first half (in permutation
    order) and the target is the whole first half. Cycle-to-cycle SET noise
    is on so the programming path draws from the generator.
    """
    config = bundled_sweep_dict(root)
    del config["sweep"]
    perm = np.random.default_rng(seed).permutation(n)
    half = perm[: n // 2]

    def bits(on) -> list[int]:
        row = [0] * n
        for i in on:
            row[int(i)] = 1
        return row

    config["device"]["sigma_c2c"] = 0.05
    config.update(
        n=n,
        seed=seed,
        max_epochs=5,
        snapshot_every=1,
        init={"variant": "uniform_partial_reset", "cv": 0.6, "median": config["device"]["r_reset_partial_median"]},
        patterns=[bits(half), bits(perm[n // 2 :])],
        recall_stimulus=bits(half[: round(0.8 * len(half))]),
        recall_target=bits(half),
    )
    return config


def relabeling(seed: int, n: int) -> np.ndarray:
    """Neuron i of the relabeled network is neuron perm[i] of the original.

    Identity for the default seed, else a seeded permutation.
    """
    return np.arange(n) if seed == DEFAULT_SEED else np.random.default_rng(seed).permutation(n)


def relabel_config(config: dict, perm: np.ndarray) -> dict:
    relabeled = dict(config)
    for key in ("recall_stimulus", "recall_target"):
        relabeled[key] = [config[key][i] for i in perm]
    relabeled["patterns"] = [[pattern[i] for i in perm] for pattern in config["patterns"]]
    return relabeled


def write_relabeled_array(src: Path, dst: Path, perm: np.ndarray) -> None:
    """Copy a resistance CSV with rows and columns permuted, in the program's own format."""
    with open(src, newline="") as fh:
        rows = [[float(v) for v in record] for record in csv.reader(fh) if record]
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in perm:
            writer.writerow([repr(rows[i][j]) for j in perm])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pcmxbar CLI subcommand
    loader: str  # configio function that parses this workload's config
    n: int = 256

    @property
    def trained(self) -> bool:
        """Recall reads arrays that a set-up learn run stores first."""
        return self.command == "recall"

    def config(self, root: Path, seed: int) -> dict:
        if self.command == "sweep":
            return sweep_config(root, seed)
        if self.trained:
            # Recall work depends on how long the recruitment cascade runs,
            # which differs from one trained network to the next. The seed
            # therefore relabels the neurons of one trained network: new
            # inputs, the same cascade and the same cost.
            return relabel_config(learn_config(root, DEFAULT_SEED, self.n), relabeling(seed, self.n))
        return learn_config(root, seed, self.n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep10x10", "sweep", "load_sweep"),
        Workload("learn256", "learn", "load_config"),
        Workload("recall256", "recall", "load_config"),
    )
}


def write_trained_arrays(learn_dir: Path, out_dir: Path, seed: int, n: int) -> None:
    """Place the arrays of the default-seed learn run, relabeled for seed, in out_dir."""
    perm = relabeling(seed, n)
    for name in TRAINED_ARRAYS:
        write_relabeled_array(learn_dir / name, out_dir / name, perm)


def write_inputs(workload: Workload, root: Path, seed: int, workdir: Path) -> tuple[Path, Path]:
    """Write the generated config into workdir; return (config path, out dir)."""
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / f"{workload.name}.json"
    config_path.write_text(json.dumps(workload.config(root, seed), indent=2) + "\n")
    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    return config_path, out_dir


def cli_argv(workload: Workload, config_path: Path, out_dir: Path) -> list[str]:
    return [workload.command, "--config", str(config_path), "--out-dir", str(out_dir), "--quiet"]


def baseline_sweep_problems(out_dir: Path) -> list[str]:
    """Compare sweep.csv against the ROADMAP baseline rows of the bundled sweep."""
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = [(float(r["cv"]), float(r["success_rate"]), float(r["median_epochs"])) for r in csv.DictReader(fh)]
    if rows != list(BASELINE_SWEEP_ROWS):
        return [f"sweep rows {rows} differ from the baseline {list(BASELINE_SWEEP_ROWS)}"]
    return []
