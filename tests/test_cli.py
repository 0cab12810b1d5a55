"""Command-line tests: subcommands end to end in temp directories.

All invocations go through main(argv), in-process except for the
out-of-memory tests, which run it in a child that limits its own memory;
exit codes and files are the contract under test.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pcmxbar
from pcmxbar import experiments
from pcmxbar.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIMULATION, main, run_cli
from pcmxbar.configio import bundled_config_path, config_to_dict, load_config, stats_to_dict
from pcmxbar.crossbar import array_stats, load_resistance_csv, save_resistance_csv


def learn_into(tmp_path, *extra: str) -> int:
    return main(
        ["learn", "--config", "paper10x10.json", "--out-dir", str(tmp_path), *extra]
    )


# ---------------------------------------------------------------- learn


def test_learn_writes_expected_artifacts(tmp_path):
    assert learn_into(tmp_path) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["epochs_to_recall"] == 1
    assert report["total_energy_J"] > 0
    assert (tmp_path / "traces.jsonl").is_file()
    assert (tmp_path / "array_initial.csv").is_file()
    assert (tmp_path / "array_final.csv").is_file()
    # bundled default keeps per-epoch snapshots on
    assert (tmp_path / "histograms.csv").read_text().startswith("epoch,bin_low_ohm")
    assert (tmp_path / "snapshots" / "epoch_0000.csv").is_file()
    assert (tmp_path / "snapshots" / "epoch_0001.csv").is_file()
    stats = [
        json.loads(line)
        for line in (tmp_path / "snapshots" / "stats.jsonl").read_text().splitlines()
    ]
    assert [s["epoch"] for s in stats] == [0, 1]
    assert stats[0]["cv"] == 0.0


@pytest.mark.parametrize("epochs", [4, 3], ids=["ends-on-snapshot", "ends-between"])
def test_learn_stats_lines_are_the_stats_of_the_stored_arrays(tmp_path, monkeypatch, epochs):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["device"]["sigma_c2c"] = 0.05
    spec["snapshot_every"] = 2
    spec["recall_target"] = [1] * 9 + [0]  # out of reach: the run trains for every epoch it may
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    computed = []
    monkeypatch.setattr(experiments, "array_stats", lambda matrix: computed.append(matrix) or array_stats(matrix))
    out = tmp_path / "out"
    argv = ["learn", "--config", str(config_path), "--out-dir", str(out), "--epochs", str(epochs), "--quiet"]
    assert main(argv) == EXIT_OK
    lines = (out / "snapshots" / "stats.jsonl").read_text().splitlines()
    params = load_config(config_path).device
    for line, epoch in zip(lines, [0, 2, 4]):
        stored = load_resistance_csv(out / "snapshots" / f"epoch_{epoch:04d}.csv", params).resistance
        assert json.loads(line) == {"epoch": epoch, **stats_to_dict(array_stats(stored))}
    assert len(lines) == (3 if epochs == 4 else 2)
    # once per distinct array: the initial one, epoch 2 and the final one, which
    # is epoch 4's snapshot when the run ends on it
    assert len(computed) == 3


def test_learn_array_csv_is_plain_ohm_matrix(tmp_path):
    learn_into(tmp_path)
    rows = (tmp_path / "array_initial.csv").read_text().strip().split("\n")
    assert len(rows) == 10
    assert all(len(r.split(",")) == 10 for r in rows)
    assert float(rows[0].split(",")[0]) == 1.0e6


def test_learn_seed_override_changes_nothing_when_noise_free(tmp_path):
    # cv = 0 and sigma = 0: the run is seed-independent by construction
    a, b = tmp_path / "a", tmp_path / "b"
    assert learn_into(a, "--seed", "1") == EXIT_OK
    assert learn_into(b, "--seed", "99") == EXIT_OK
    assert (a / "report.json").read_text() != (b / "report.json").read_text()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["config"]["seed"] == 1 and rb["config"]["seed"] == 99
    # everything except the echoed seed matches
    ra["config"]["seed"] = rb["config"]["seed"] = 0
    assert ra == rb


def test_learn_epochs_override_caps_run(tmp_path):
    code = main(
        [
            "learn",
            "--config",
            "paper10x10.json",
            "--out-dir",
            str(tmp_path),
            "--epochs",
            "1",
        ]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["max_epochs"] == 1


def test_learn_quiet_silences_stdout(tmp_path, capsys):
    learn_into(tmp_path, "--quiet")
    assert capsys.readouterr().out == ""


def test_learn_reports_progress(tmp_path, capsys):
    learn_into(tmp_path)
    out = capsys.readouterr().out
    assert "recall after 1 epoch(s)" in out
    assert "total energy" in out


# ---------------------------------------------------------------- recall


def test_recall_probes_stored_array(tmp_path):
    learn_into(tmp_path)
    code = main(
        ["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    recall = json.loads((tmp_path / "recall.json").read_text())
    assert recall["final_firing"] == [0, 1, 2, 3, 5]
    assert recall["success"] is True
    assert recall["converged"] is True
    assert len(recall["thresholds_A"]) == 10
    assert recall["steps"][0]["newly_fired"] == [5]
    # driven neurons carry no read current
    assert recall["steps"][0]["currents_A"][0] is None


def test_recall_without_stored_array_is_io_error(tmp_path, capsys):
    code = main(
        ["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_IO
    assert "array_final.csv" in capsys.readouterr().err


def test_recall_without_baseline_array_is_io_error(tmp_path, capsys):
    learn_into(tmp_path, "--quiet")
    (tmp_path / "array_initial.csv").unlink()
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_IO
    assert "array_initial.csv" in capsys.readouterr().err
    assert not (tmp_path / "recall.json").exists()


@pytest.mark.parametrize("name", ["array_final.csv", "array_initial.csv"])
@pytest.mark.parametrize("cell", ["nan", "1e2", "ohm"])
def test_recall_rejects_corrupt_array_naming_the_file(tmp_path, capsys, name, cell):
    learn_into(tmp_path, "--quiet")
    path = tmp_path / name
    rows = path.read_text().splitlines()
    rows[3] = ",".join([cell] + rows[3].split(",")[1:])
    path.write_text("\n".join(rows) + "\n")
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_SIMULATION
    assert name in capsys.readouterr().err
    assert not (tmp_path / "recall.json").exists()


def test_recall_rejects_empty_array_without_warning(tmp_path, capsys):
    learn_into(tmp_path, "--quiet")
    (tmp_path / "array_final.csv").write_text("")
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "array_final.csv: array dimension 0 != config n 10" in err
    assert "Warning" not in err
    assert not (tmp_path / "recall.json").exists()


@pytest.mark.parametrize(
    "name, dimension",
    [("array_final.csv", 3), ("array_initial.csv", 3), ("array_final.csv", 1), ("array_initial.csv", 1)],
    ids=["array_final.csv", "array_initial.csv", "one-cell-array_final.csv", "one-cell-array_initial.csv"],
)
def test_recall_rejects_array_of_other_dimension_naming_the_file(tmp_path, capsys, name, dimension):
    # every cell is in range, so only the dimension rule judges the file
    learn_into(tmp_path, "--quiet")
    (tmp_path / name).write_text((",".join(["1000000.0"] * dimension) + "\r\n") * dimension)
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert f"{name}: array dimension {dimension} != config n 10" in err and "Traceback" not in err
    assert not (tmp_path / "recall.json").exists()


@pytest.mark.parametrize("name", ["array_final.csv", "array_initial.csv"])
def test_recall_rejects_array_that_is_not_utf8_naming_the_file(tmp_path, capsys, name):
    # the decoder reads in chunks, so the csv reader's count said "line 0" for a byte on line 3
    learn_into(tmp_path, "--quiet")
    path = tmp_path / name
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\r\n".join(lines))
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert f"{name} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
    assert ", line" not in err and "Traceback" not in err
    assert not (tmp_path / "recall.json").exists()


# ---------------------------------------------------------------- sweep


def test_sweep_writes_ordered_csv(tmp_path):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["snapshot_every"] = 0
    spec["sweep"] = {"cvs": [0.09, 0.60], "seeds_per_cv": 5, "tuned_cv_max": 0.15}
    config_path = tmp_path / "small_sweep.json"
    config_path.write_text(json.dumps(spec))
    code = main(
        ["sweep", "--config", str(config_path), "--out-dir", str(tmp_path), "--quiet"]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "cv,median_epochs,mean_energy_J,success_rate"
    cvs = [float(line.split(",")[0]) for line in lines[1:]]
    assert cvs == [0.09, 0.60]


# ---------------------------------------------------------------- device-curve


def test_device_curve_traces_geometric_staircase(tmp_path):
    code = main(
        [
            "device-curve",
            "--config",
            "paper10x10.json",
            "--out-dir",
            str(tmp_path),
            "--epochs",
            "5",
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "device_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "pulse_index,resistance_ohm"
    assert len(lines) == 7  # header + pulse 0..5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 1.0e6
    expected = [1.0e4 + 9.9e5 * 0.4**k for k in range(6)]
    assert values == pytest.approx(expected, rel=1e-12)
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("median", [1e300, 5000.0, 0.0, -1e6])
def test_device_curve_rejects_init_median_outside_device_range(tmp_path, capsys, median):
    # the staircase started at this median and clamped only from pulse 1 on
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["init"]["median"] = median
    path = tmp_path / "far_median.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    code = main(["device-curve", "--config", str(path), "--out-dir", str(out_dir), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config file {path}: init.median" in err and "Traceback" not in err
    assert not out_dir.exists()


# ---------------------------------------------------------------- exit codes


def test_missing_config_names_the_path(tmp_path, capsys):
    code = main(
        ["learn", "--config", str(tmp_path / "ghost.json"), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ghost.json" in err


def test_malformed_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["learn", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_config_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code = main(["learn", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "utf16.json is not UTF-8 text" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, text",
    [("deep.json", "[" * 200_000), ("longint.json", '{"n": ' + "1" * 5000 + "}")],
    ids=["nesting-past-recursion-limit", "int-past-digit-limit"],
)
def test_config_json_cannot_hold_is_config_error_naming_the_file(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code = main(["learn", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{name} is not valid JSON" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulation_error_has_its_own_exit_code(tmp_path, capsys):
    learn_into(tmp_path, "--quiet")
    path = tmp_path / "array_final.csv"
    rows = path.read_text().splitlines()
    rows[0] = ",".join(["1e2"] + rows[0].split(",")[1:])  # below r_min: no valid stored array
    path.write_text("\n".join(rows) + "\n")
    code = main(["recall", "--config", "paper10x10.json", "--out-dir", str(tmp_path)])
    assert code == EXIT_SIMULATION
    assert "simulation error" in capsys.readouterr().err


def test_learn_result_json_cannot_hold_is_simulation_error_naming_the_file(tmp_path, capsys):
    # finite and above threshold, but its square overflows the pulse energy
    # to inf, which json.dumps wrote as Infinity
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["protocol"]["program_pulse"]["amplitude"] = 1e200
    path = tmp_path / "huge_pulse.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main(["learn", "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation error: cannot write report.json" in err and "Traceback" not in err
    assert not (out_dir / "report.json").exists()
    assert not out_dir.exists()


def test_sweep_energy_not_finite_is_simulation_error_naming_the_file(tmp_path, capsys):
    # the squared amplitude overflows every class's mean energy to inf; an
    # inf median_epochs is legal, an inf energy is not
    spec = json.loads(bundled_config_path("sweep10x10.json").read_text())
    spec["protocol"]["program_pulse"]["amplitude"] = 1e200
    spec["sweep"]["seeds_per_cv"] = 2
    path = tmp_path / "huge_pulse_sweep.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation error: cannot write sweep.csv" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["learn", "sweep"])
def test_stimulus_without_on_neuron_is_config_error(tmp_path, capsys, command):
    # the recall probe cannot start from it
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["recall_stimulus"] = [0] * 10
    spec["sweep"] = {"cvs": [0.09], "seeds_per_cv": 2}
    path = tmp_path / "all_off.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config file {path}: recall_stimulus" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["learn", "sweep"])
def test_target_without_off_neuron_is_config_error(tmp_path, capsys, command):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["recall_target"] = [1] * 10  # weight contrast needs an OFF neuron
    spec["sweep"] = {"cvs": [0.09], "seeds_per_cv": 2}
    path = tmp_path / "all_on.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config file {path}: recall_target" in err and "Traceback" not in err
    assert not out_dir.exists()


def merged(base, edit):
    """base with edit laid over it, nested objects merged key by key; a non-object edit replaces base."""
    if not (isinstance(base, dict) and isinstance(edit, dict)):
        return edit
    return {**base, **{key: merged(base.get(key), value) for key, value in edit.items()}}


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("learn", {"n": 1}, "config file {path}: n must be >= 2"),
        ("learn", {"patterns": []}, "config file {path}: need at least one training pattern"),
        ("learn", {"max_epochs": 0}, "config file {path}: max_epochs must be >= 1"),
        ("learn", {"snapshot_every": -1}, "config file {path}: snapshot_every must be >= 0"),
        (
            "learn",
            {"device": {"r_reset_full_median": 2.0e7}},
            "config file {path}: device: r_reset_full_median must lie in (r_min, r_max]",
        ),
        (
            "learn",
            {"protocol": {"reset_pulse": {"amplitude": 1.0}}},
            "config file {path}: reset_pulse amplitude below v_reset_threshold",
        ),
        (
            "learn",
            {"protocol": {"pulses_per_coactivation": 0}},
            "config file {path}: protocol: pulses_per_coactivation must be >= 1",
        ),
        (
            "learn",
            {"protocol": {"reset_pulse": {"role": "set"}}},
            "config file {path}: protocol: reset_pulse must have role RESET",
        ),
        ("sweep", {"sweep": {"cvs": 0.3, "seeds_per_cv": 2}}, "config file {path}: sweep.cvs must be a JSON list, got 0.3"),
        ("learn", [], "config file {path} must hold a JSON object"),
    ],
    ids=["n-1", "no-patterns", "max-epochs-0", "snapshot-every-negative", "full-reset-median-above-r_max",
         "reset-amplitude-below-threshold", "pulses-per-coactivation-0", "reset-pulse-role-set", "cvs-not-a-list",
         "not-an-object"],
)
def test_config_breaking_a_rule_is_config_error_naming_the_file_and_rule(tmp_path, capsys, command, edit, message):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(merged(spec, edit)))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out_dir), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {message.format(path=path)}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["learn", "device-curve"])
@pytest.mark.parametrize(
    "flag, value", [("--epochs", "0"), ("--epochs", "-5"), ("--epochs", "two"), ("--seed", "-1"), ("--seed", "x")]
)
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", "paper10x10.json", "--out-dir", str(tmp_path), flag, value])
    assert excinfo.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["learn", "recall", "sweep", "device-curve"])
@pytest.mark.parametrize(
    "dangling, under",
    [(False, False), (False, True), (True, False), (True, True)],
    ids=["file", "under-file", "dangling-link", "under-dangling-link"],
)
def test_out_dir_that_is_or_lies_under_a_file_exits_3_before_any_run(
    tmp_path, capsys, monkeypatch, command, dangling, under
):
    blocker = tmp_path / "blocker"
    if dangling:
        blocker.symlink_to(tmp_path / "missing")  # exists() is False for it
    else:
        blocker.write_bytes(b"mine")

    def load_nothing(*_):
        raise AssertionError("a config was loaded")

    monkeypatch.setattr("pcmxbar.cli.load_config", load_nothing)
    monkeypatch.setattr("pcmxbar.cli.load_sweep", load_nothing)
    out_dir = blocker / "out" if under else blocker
    config = "sweep10x10.json" if command == "sweep" else "paper10x10.json"
    assert main([command, "--config", config, "--out-dir", str(out_dir)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "--out-dir" in err and "Traceback" not in err
    if dangling:
        assert blocker.is_symlink() and not blocker.exists()
    else:
        assert blocker.read_bytes() == b"mine"
    assert sorted(tmp_path.iterdir()) == [blocker]  # no .learn-* directory left behind


def test_out_dir_that_links_to_a_directory_is_written_through_the_link(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(["learn", "--config", "paper10x10.json", "--out-dir", str(link), "--epochs", "1", "--quiet"]) == EXIT_OK
    assert link.is_symlink() and (target / "report.json").is_file()


# A child interpreter lowers its own address-space limit to the size it has
# after importing the CLI plus a headroom, then runs main. The limit binds that
# child only: the test process keeps its own.
UNDER_MEMORY_LIMIT = """
import resource, sys
from pcmxbar.cli import main
size = next(int(line.split()[1]) * 1024 for line in open("/proc/self/status") if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[2:]))
"""


def run_with_headroom(headroom: int, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(pcmxbar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", UNDER_MEMORY_LIMIT, str(headroom), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def config_of_size(tmp_path, n: int):
    """paper10x10.json scaled to n neurons: two complementary halves, a quarter as stimulus."""
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    half = [1] * (n // 2) + [0] * (n - n // 2)
    spec.update(
        n=n,
        snapshot_every=0,
        patterns=[half, [1 - b for b in half]],
        recall_stimulus=[1] * (n // 4) + [0] * (n - n // 4),
        recall_target=half,
    )
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps(spec))
    return path


def traced_learn_peak(config, out_dir, epochs: int) -> int:
    """tracemalloc's peak, in bytes, over one learn of the given epochs."""
    argv = ["learn", "--config", str(config), "--out-dir", str(out_dir), "--epochs", str(epochs), "--quiet"]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_learn_peak_memory_does_not_grow_with_the_kept_snapshots(tmp_path):
    n = 128
    spec = json.loads(config_of_size(tmp_path, n).read_text())
    # out of reach, so every epoch runs, and every epoch is kept
    spec.update(snapshot_every=1, recall_target=[1] * (n - 1) + [0])
    config = tmp_path / "long.json"
    config.write_text(json.dumps(spec))
    traced_learn_peak(config, tmp_path / "warm", 1)  # one-time allocations fall outside both peaks
    short, long = (traced_learn_peak(config, tmp_path / f"out{epochs}", epochs) for epochs in (4, 16))
    for epochs in (4, 16):
        out = tmp_path / f"out{epochs}"
        assert json.loads((out / "report.json").read_text())["epochs_to_recall"] is None
        assert len(list((out / "snapshots").glob("epoch_*.csv"))) == epochs + 1
    # twelve more kept epochs may cost at most two n x n float64 matrices
    assert long - short <= 2 * n * n * 8, (short, long)


def test_learn_out_of_memory_is_simulation_error_naming_the_config(tmp_path):
    # one 30000 x 30000 float64 array is 6.71 GiB, far above 1 GiB of headroom
    config = config_of_size(tmp_path, 30_000)
    out_dir = tmp_path / "out"
    done = run_with_headroom(1 << 30, "learn", "--config", str(config), "--out-dir", str(out_dir), "--quiet")
    assert done.returncode == EXIT_SIMULATION, done.stderr
    assert f"simulation error: out of memory with config {config}: Unable to allocate" in done.stderr
    assert "(30000, 30000)" in done.stderr and "Traceback" not in done.stderr
    assert not out_dir.exists()


def test_recall_out_of_memory_is_simulation_error_naming_the_stored_array(tmp_path):
    # a 2000 x 2000 array is 30.5 MiB of float64, parsed under 32 MiB of headroom
    config = config_of_size(tmp_path, 2000)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    row = ",".join(["1e6"] * 2000) + "\n"
    for name in ("array_final.csv", "array_initial.csv"):
        (out_dir / name).write_text(row * 2000)
    done = run_with_headroom(32 << 20, "recall", "--config", str(config), "--out-dir", str(out_dir), "--quiet")
    assert done.returncode == EXIT_SIMULATION, done.stderr
    prefix = f"simulation error: out of memory with config {config}: reading {out_dir / 'array_final.csv'}: "
    assert done.stderr.startswith(prefix) and done.stderr[len(prefix):].strip()  # numpy's allocation message
    assert "Traceback" not in done.stderr
    assert sorted(p.name for p in out_dir.iterdir()) == ["array_final.csv", "array_initial.csv"]


def test_run_cli_is_main():
    assert run_cli is main


# ---------------------------------------------------------------- determinism


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert learn_into(a) == EXIT_OK
    assert learn_into(b) == EXIT_OK
    for name in ("report.json", "traces.jsonl", "array_initial.csv", "array_final.csv", "histograms.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def output_tree(root):
    """Every file's bytes and every directory (as None) under root, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("snapshot_every", [1, 0])
def test_learn_rerun_into_used_out_dir_leaves_what_a_fresh_dir_gets(tmp_path, snapshot_every):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["snapshot_every"] = snapshot_every
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    # an earlier run that never recalls keeps five snapshots (epochs 0-4)
    spec.update(snapshot_every=1, protocol={**spec["protocol"], "threshold_factor": 1.0e4})
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(spec))
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    argv = ["learn", "--quiet", "--out-dir"]
    assert main([*argv, str(used), "--config", str(slow_path), "--epochs", "4"]) == EXIT_OK
    assert (used / "snapshots" / "epoch_0004.csv").is_file()
    assert main([*argv, str(used), "--config", str(config_path)]) == EXIT_OK
    assert main([*argv, str(fresh), "--config", str(config_path)]) == EXIT_OK
    assert output_tree(used) == output_tree(fresh)
    # a file the run did not write stays, and so does the directory holding it
    (used / "snapshots").mkdir(exist_ok=True)
    (used / "snapshots" / "notes.txt").write_text("mine")
    assert main([*argv, str(used), "--config", str(config_path)]) == EXIT_OK
    assert output_tree(used) == {**output_tree(fresh), "snapshots": None, "snapshots/notes.txt": b"mine"}


def test_learn_failing_while_it_writes_leaves_out_dir_as_it_found_it(tmp_path, capsys, monkeypatch):
    parent = tmp_path / "runs"
    used, fresh = parent / "used", parent / "new" / "fresh"
    assert main(["learn", "--quiet", "--config", "paper10x10.json", "--out-dir", str(used)]) == EXIT_OK
    # the second run never recalls, so each of its files would differ from the first run's
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["protocol"]["threshold_factor"] = 1.0e4
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(spec))
    before, listing = output_tree(used), sorted(parent.iterdir())

    def write_one_then_fail(files):
        save_resistance_csv([next(iter(files))])
        raise MemoryError("Unable to allocate 91.6 MiB for an array")

    monkeypatch.setattr("pcmxbar.cli.save_resistance_csv", write_one_then_fail)
    for out_dir in (used, fresh):
        argv = ["learn", "--quiet", "--config", str(slow_path), "--out-dir", str(out_dir), "--epochs", "2"]
        assert main(argv) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert err.startswith(f"simulation error: out of memory with config {slow_path}: ") and "Traceback" not in err
        assert output_tree(used) == before
        assert sorted(parent.iterdir()) == listing
    assert not fresh.parent.exists()


def test_learn_into_existing_out_dir_writes_nothing_beside_it(tmp_path, monkeypatch):
    # out is writable but its parent is not (a user's directory under a root-owned
    # one), and a symlink elsewhere points at it
    fresh, parent, link = tmp_path / "fresh", tmp_path / "srv", tmp_path / "link"
    out = parent / "results"
    out.mkdir(parents=True)
    link.symlink_to(out, target_is_directory=True)
    argv = ["learn", "--quiet", "--config", "paper10x10.json", "--out-dir"]
    assert main([*argv, str(fresh)]) == EXIT_OK
    beside = sorted(tmp_path.iterdir()) + [out]
    listings = []

    def look_beside_then_write(files):
        listings.append(sorted(tmp_path.iterdir()) + sorted(parent.iterdir()))
        save_resistance_csv(files)

    monkeypatch.setattr("pcmxbar.cli.save_resistance_csv", look_beside_then_write)
    parent.chmod(0o555)  # binds a user who is not root; the listings check every user
    try:
        for out_dir in (out, link):
            assert main([*argv, str(out_dir)]) == EXIT_OK
    finally:
        parent.chmod(0o755)
    assert listings == [beside, beside]
    assert link.is_symlink()
    assert output_tree(out) == output_tree(fresh)
