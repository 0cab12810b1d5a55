"""The package namespace: the config model and the run entry points, nothing more."""
from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import pcmxbar

from conftest import PERFBENCH

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
        "read_bitlines",
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


def attribute_loads(tree: ast.AST) -> Counter:
    """How many times tree loads each attribute name."""
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_src_defines_nothing_it_never_reaches(tracer):
    # every top-level def and class is loaded by name elsewhere in src/,
    # exported, or patched by the benchmark tracer; every method and property
    # but a dunder is loaded as an attribute outside its own body in src/, or
    # in the tracer (dataclass fields are read through dataclasses.fields)
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(pcmxbar.__file__).parent.glob("*.py"))}
    hooks = {(module, name) for module, name, _, _ in tracer.HOOKS}
    loads = []  # (top-level statement, the names it loads)
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
            loads.append((stmt, names))
    unreached = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in pcmxbar.__all__
        and (module, stmt.name) not in hooks
        and not any(stmt.name in names for top, names in loads if top is not stmt)
    ]
    src_loads = sum(map(attribute_loads, trees.values()), Counter())
    # parsed, not run: only the tracer's attribute loads count, not its local names
    tracer_loads = attribute_loads(ast.parse((PERFBENCH / "tracer.py").read_text()))
    unreached += [
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and src_loads[member.name] == attribute_loads(member)[member.name]
        and member.name not in tracer_loads
    ]
    assert unreached == []


def test_the_model_raises_value_error_and_only_the_cli_boundaries_use_errors():
    # the device laws, the network and the experiment model raise ValueError;
    # pcmxbar.errors holds one type per CLI exit code and their base
    package = Path(pcmxbar.__file__).parent
    for module in ("device", "network", "experiments"):
        imports = [
            node
            for node in ast.walk(ast.parse((package / f"{module}.py").read_text()))
            if isinstance(node, ast.ImportFrom) and node.module in ("errors", "pcmxbar.errors")
            or isinstance(node, ast.Import) and any(alias.name == "pcmxbar.errors" for alias in node.names)
        ]
        assert imports == [], f"pcmxbar.{module} imports from pcmxbar.errors"
    errors = ast.parse((package / "errors.py").read_text())
    classes = [stmt.name for stmt in errors.body if isinstance(stmt, ast.ClassDef)]
    assert sorted(classes) == ["ConfigParseError", "CorruptArrayFile", "SimulationError"]
