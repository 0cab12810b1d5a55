"""Behavioral simulator of a phase-change synaptic crossbar.

Layers, bottom up: device (one programmable cell), crossbar (1T1R array),
network (Hebbian learning and integrate-and-fire recall), experiments
(learn-and-recall runs, variation sweeps), cli (command line front end).

The package exports the config model and the run entry points; the kernels
are imported from their modules (pcmxbar.device, pcmxbar.crossbar,
pcmxbar.network).
"""
from .crossbar import InitScheme, InitVariant
from .device import DeviceParams, PulseRole, PulseSpec
from .experiments import (
    ExperimentConfig,
    SweepSpec,
    class_reports,
    distribution_history,
    learn_and_recall,
    variation_sweep,
)
from .network import Pattern, ProtocolParams

__version__ = "0.1.0"

__all__ = [
    "DeviceParams",
    "ExperimentConfig",
    "InitScheme",
    "InitVariant",
    "Pattern",
    "ProtocolParams",
    "PulseRole",
    "PulseSpec",
    "SweepSpec",
    "class_reports",
    "distribution_history",
    "learn_and_recall",
    "variation_sweep",
]
