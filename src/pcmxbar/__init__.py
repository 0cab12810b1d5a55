"""Behavioral simulator of a phase-change synaptic crossbar.

Layers, bottom up: device (one programmable cell), crossbar (1T1R array),
network (Hebbian learning and integrate-and-fire recall), experiments
(learn-and-recall runs, variation sweeps), cli (command line front end).
"""
from .crossbar import (
    ArrayStats,
    CrossbarArray,
    InitScheme,
    InitVariant,
    array_stats,
    init_array,
    load_resistance_csv,
    program_cells,
    read_bitline,
    save_resistance_csv,
)
from .device import (
    DeviceParams,
    PulseRole,
    PulseSpec,
    apply_reset_pulse,
    apply_set_pulse,
    pulse_energy,
)
from .experiments import (
    ExperimentConfig,
    SweepSpec,
    class_reports,
    distribution_history,
    learn_and_recall,
    scheme_for_cv,
    variation_sweep,
    weight_contrast,
)
from .network import (
    Pattern,
    ProtocolParams,
    compute_thresholds,
    recall_probe,
    recall_success,
    training_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayStats",
    "CrossbarArray",
    "DeviceParams",
    "ExperimentConfig",
    "InitScheme",
    "InitVariant",
    "Pattern",
    "ProtocolParams",
    "PulseRole",
    "PulseSpec",
    "SweepSpec",
    "apply_reset_pulse",
    "apply_set_pulse",
    "array_stats",
    "class_reports",
    "compute_thresholds",
    "distribution_history",
    "init_array",
    "learn_and_recall",
    "load_resistance_csv",
    "program_cells",
    "pulse_energy",
    "read_bitline",
    "recall_probe",
    "recall_success",
    "save_resistance_csv",
    "scheme_for_cv",
    "training_epoch",
    "variation_sweep",
    "weight_contrast",
]
