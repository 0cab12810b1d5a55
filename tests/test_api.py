"""The package namespace: the config model and the run entry points, nothing more."""
from __future__ import annotations

import importlib

import pcmxbar

EXPORTED = {
    "DeviceParams",
    "PulseSpec",
    "PulseRole",
    "ProtocolParams",
    "InitScheme",
    "InitVariant",
    "Pattern",
    "ExperimentConfig",
    "SweepSpec",
    "learn_and_recall",
    "variation_sweep",
    "class_reports",
    "distribution_history",
}

# kernels and helpers the package does not export, by defining module
KEPT_IN_MODULES = {
    "crossbar": [
        "CrossbarArray",
        "ArrayStats",
        "array_stats",
        "init_array",
        "program_cells",
        "read_bitline",
        "load_resistance_csv",
        "save_resistance_csv",
    ],
    "device": ["apply_set_pulse", "apply_reset_pulse", "pulse_energy"],
    "network": ["compute_thresholds", "training_epoch", "recall_probe", "recall_success"],
    "experiments": ["scheme_for_cv", "weight_contrast"],
}


def test_package_exports_the_config_model_and_entry_points_only():
    assert sorted(pcmxbar.__all__) == sorted(EXPORTED)
    assert len(pcmxbar.__all__) == len(EXPORTED)
    for name in pcmxbar.__all__:
        assert getattr(pcmxbar, name) is not None, name
    for module_name, names in KEPT_IN_MODULES.items():
        module = importlib.import_module(f"pcmxbar.{module_name}")
        for name in names:
            assert not hasattr(pcmxbar, name), f"pcmxbar.{name} is still bound in the package"
            assert getattr(module, name, None) is not None, f"pcmxbar.{module_name}.{name}"
