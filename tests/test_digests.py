"""Pinned output digests: the simulator's files must keep every byte.

The sha256 values were taken from the per-cell loop implementation, before
the array paths were vectorized. A refactor that changes a single bit of a
resistance, current, energy or formatted number fails here, which a rerun
comparison of one build (acceptance criterion 7) cannot see.

Both bundled configs are noise-free, so the inline noisy config below is
what pins the cycle-to-cycle noise stream of the programming path and the
lognormal draws of a wide-variation init.
"""
from __future__ import annotations

import hashlib
import json

from pcmxbar.cli import EXIT_OK, main
from pcmxbar.configio import bundled_config_path, config_to_dict, load_config, sweep_rows_csv

from conftest import digests

PAPER10X10 = {
    "array_final.csv": "e6f85929d5bf5e818b8797980a09715e12bd3582a58e0af05b3a6521b279c1ad",
    "array_initial.csv": "3aa27a43ec900f6a2311078b14de0a8be4594bfa9283ddb5c1345a92da1c49b2",
    "histograms.csv": "f8690e92c38a798d8700c6932c7d2cd9818d4d4fb7d4f45177b25ad27b311de7",
    "recall.json": "156dea2a684b28a97c4758d92d7d2905d137112f1c67241605176555a708b06d",
    "report.json": "2d174d4194f82515fad0b819dc62a751e40201a1c11f3b3ad58d6b37de0cc59b",
    "snapshots/epoch_0000.csv": "3aa27a43ec900f6a2311078b14de0a8be4594bfa9283ddb5c1345a92da1c49b2",
    "snapshots/epoch_0001.csv": "e6f85929d5bf5e818b8797980a09715e12bd3582a58e0af05b3a6521b279c1ad",
    "snapshots/stats.jsonl": "2551b090c40085c24cda13ac6825008f037b60700b43e81774aad1052fd2ab15",
    "traces.jsonl": "de3cf9a62c080bd68fcf251ba7929ee6e7b532feb0de5b3842c6bef8d63b01fe",
}

NOISY32 = {
    "array_final.csv": "6bac77b667f058017c8e956b8691d1bc2eae3fa294fecb1349c78462b4ebd150",
    "array_initial.csv": "c75cc4263195a999aaa141898ba9c75e2f9f896d92cf560364caff9740e424b9",
    "histograms.csv": "bd5196919bee428ecf6ecc44a4890338ccb8c2088dcd0d0950fde8f90a672efe",
    "recall.json": "cc4d76b2a9dae8e1b68a1984788e4df2434fa59545e6835057376f33e387cecd",
    "report.json": "99dd8bfb575809241fc84b05a1b664184f91f8b806a1d61c07159e70938615ba",
    "snapshots/epoch_0000.csv": "c75cc4263195a999aaa141898ba9c75e2f9f896d92cf560364caff9740e424b9",
    "snapshots/epoch_0001.csv": "14f2f831a96e4abb3c66bcda1e5ef54e904bb45696b1ed9399c988d5c7c11bc5",
    "snapshots/epoch_0002.csv": "d3cbcb0c4a68c0880920fe9e32d06596f9ce483c0c9ce9d188eab6ffc58ff04f",
    "snapshots/epoch_0003.csv": "ab53165e4bcb309b15d2a8f83e1cb097db86586e45356381ce3c04930f8bdbc0",
    "snapshots/epoch_0004.csv": "d142947a17f4990d70ebd2fb425bc19c8f9da2943ab43efc201436411c80dda2",
    "snapshots/epoch_0005.csv": "03b3b60a4a8ba312a70ab36fba4a91010abbf111ff956dba5eaa6e3e757eee57",
    "snapshots/epoch_0006.csv": "6bac77b667f058017c8e956b8691d1bc2eae3fa294fecb1349c78462b4ebd150",
    "snapshots/stats.jsonl": "8436f9b2ef00d333ebc9068c9f6fcc437c38b369211db3e0ed19b35a715cc3a5",
    "traces.jsonl": "3474522cd3b09acf845d7ff88faf36562df869b3d96fd936c0d43e11aad08178",
}

SWEEP10X10_CSV = "e70f69fc12dacf49be8bc0d0edef3bfc5dd1f0fe57cc7f0a5ae5c54ab2e928a0"

# sweep.csv of the small noisy sweep below, which runs the branches the
# bundled sweep skips: SET noise, no diagonal, two pulses per coactivation.
NOISY_SWEEP_CSV = "8461148372b4195116e05130c8a0781c08f1ea956a883bfd436a07884bb8c9a6"

# device_curve.csv of `pcmxbar device-curve` at its default 50 pulses. The
# noisy config draws cycle-to-cycle noise on every pulse.
PAPER10X10_DEVICE_CURVE = "058f2e469bac22f3f295423cc59cda5fa82bdb42aa9b4a8f2756db02864d2648"
NOISY32_DEVICE_CURVE = "a30c731c47b7def41368d2b76154df598ba731034418062d145849e39267d160"


def noisy32_config() -> dict:
    """n = 32, cv 0.6 partial-RESET init, 5 % SET noise, a snapshot every epoch.

    Two interleaved complementary patterns; the stimulus is the first 13 of
    the 16 ON neurons of the first one. The run exhausts its 6 epochs
    without recall, so every epoch is programmed, read and snapshotted.
    """
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    n = 32
    even, odd = set(range(0, n, 2)), set(range(1, n, 2))

    def bits(on) -> list[int]:
        return [1 if i in on else 0 for i in range(n)]

    spec["device"]["sigma_c2c"] = 0.05
    spec.update(
        n=n,
        max_epochs=6,
        snapshot_every=1,
        init={"variant": "uniform_partial_reset", "cv": 0.6, "median": spec["device"]["r_reset_partial_median"]},
        patterns=[bits(even), bits(odd)],
        recall_stimulus=bits(set(range(0, 26, 2))),
        recall_target=bits(even),
    )
    return spec


def write_noisy32_config(tmp_path):
    config = tmp_path / "noisy32.json"
    config.write_text(json.dumps(noisy32_config()))
    return config


def learn_and_recall_digests(config: str, out_dir) -> dict[str, str]:
    for command in ("learn", "recall"):
        assert main([command, "--config", config, "--out-dir", str(out_dir), "--quiet"]) == EXIT_OK
    return digests(out_dir)


def device_curve_digest(config: str, out_dir) -> str:
    assert main(["device-curve", "--config", config, "--out-dir", str(out_dir), "--quiet"]) == EXIT_OK
    return hashlib.sha256((out_dir / "device_curve.csv").read_bytes()).hexdigest()


def test_paper10x10_learn_artifacts_are_pinned(tmp_path):
    assert learn_and_recall_digests("paper10x10.json", tmp_path / "out") == PAPER10X10


def test_noisy_learn_artifacts_are_pinned(tmp_path):
    config = write_noisy32_config(tmp_path)
    assert learn_and_recall_digests(str(config), tmp_path / "out") == NOISY32


def test_paper10x10_device_curve_is_pinned(tmp_path):
    assert device_curve_digest("paper10x10.json", tmp_path / "out") == PAPER10X10_DEVICE_CURVE


def test_noisy_device_curve_is_pinned(tmp_path):
    config = write_noisy32_config(tmp_path)
    assert device_curve_digest(str(config), tmp_path / "out") == NOISY32_DEVICE_CURVE


def test_sweep10x10_csv_is_pinned(ensemble):
    # `pcmxbar sweep` writes exactly sweep_rows_csv of these rows
    _, _, rows, _ = ensemble
    assert hashlib.sha256(sweep_rows_csv(rows).encode()).hexdigest() == SWEEP10X10_CSV


def test_noisy_sweep_csv_is_pinned(tmp_path):
    # the bundled sweep's patterns and classes, 10 seeds per cv; 3 of the 10
    # cv 0.6 runs never recall
    spec = json.loads(bundled_config_path("sweep10x10.json").read_text())
    spec["device"]["sigma_c2c"] = 0.05
    spec["protocol"].update(include_diagonal=False, pulses_per_coactivation=2)
    spec["sweep"]["seeds_per_cv"] = 10
    config = tmp_path / "noisy_sweep.json"
    config.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir), "--quiet"]) == EXIT_OK
    assert hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest() == NOISY_SWEEP_CSV
