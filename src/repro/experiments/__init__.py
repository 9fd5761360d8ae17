"""Experiment harness: Table-II defaults, scenario construction, runs,
and the per-figure reproduction entry points.

Quick use::

    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(seed=7))
    print(result.summary.as_percent())

Each paper figure is a row of :data:`repro.experiments.figures.FIGURES`;
``run_figure(name)`` runs its grid and returns a
:class:`~repro.experiments.figures.FigureResult` whose series mirror the
published plot.
"""

from repro.attacks.scenarios import ATTACKS
from repro.core.defenses import DEFENSES, DefenseContext
from repro.experiments.config import DefenseKind, ExperimentConfig, TopologyKind
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import BuiltScenario, build_scenario
from repro.sim.topology import TOPOLOGIES
from repro.util.registry import Registry, UnknownComponentError
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.workload import (
    WORKLOADS,
    DynamicWorkload,
    DynamicWorkloadConfig,
    TransferRecord,
    WorkloadBuild,
    WorkloadContext,
)


def __getattr__(name: str):
    # A run never executes these modules: each is imported on the first
    # read of one of its names (PEP 562).
    if name in ("FIGURES", "FigureResult", "run_figure"):
        from repro.experiments import figures as module
    elif name in ("format_figure", "format_summary"):
        from repro.experiments import reporting as module
    elif name in ("Finding", "Severity", "ValidationReport", "validate_config"):
        from repro.experiments import validation as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "ATTACKS",
    "DEFENSES",
    "FIGURES",
    "TOPOLOGIES",
    "WORKLOADS",
    "BuiltScenario",
    "DefenseContext",
    "DefenseKind",
    "ExperimentConfig",
    "ExperimentResult",
    "FigureResult",
    "Registry",
    "TopologyKind",
    "UnknownComponentError",
    "WorkloadBuild",
    "WorkloadContext",
    "build_scenario",
    "DynamicWorkload",
    "DynamicWorkloadConfig",
    "Finding",
    "PRESETS",
    "Severity",
    "TransferRecord",
    "ValidationReport",
    "format_figure",
    "format_summary",
    "get_preset",
    "run_experiment",
    "run_figure",
    "validate_config",
]
