"""Experiment harness: Table-II defaults, scenario construction, runs,
sweeps, and the per-figure reproduction entry points.

Quick use::

    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(seed=7))
    print(result.summary.as_percent())

Each paper figure has a function in :mod:`repro.experiments.figures`
returning a :class:`~repro.experiments.figures.FigureResult` whose series
mirror the published plot.
"""

from repro.attacks.scenarios import ATTACKS
from repro.core.defenses import DEFENSES, DefenseContext
from repro.experiments.config import DefenseKind, ExperimentConfig, TopologyKind
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import BuiltScenario, build_scenario
from repro.sim.topology import TOPOLOGIES
from repro.util.registry import Registry, UnknownComponentError
from repro.experiments.sweeps import SweepResult, sweep
from repro.experiments.figures import (
    FigureResult,
    fig3a,
    fig3b,
    fig4a,
    fig4b,
    fig5a,
    fig5b,
    fig5c,
    fig6a,
    fig6b,
    fig6c,
    fig7,
)
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.reporting import format_figure, format_summary
from repro.experiments.validation import (
    Finding,
    Severity,
    ValidationReport,
    validate_config,
)
from repro.experiments.workload import (
    WORKLOADS,
    DynamicWorkload,
    DynamicWorkloadConfig,
    TransferRecord,
    WorkloadBuild,
    WorkloadContext,
)

__all__ = [
    "ATTACKS",
    "DEFENSES",
    "TOPOLOGIES",
    "WORKLOADS",
    "BuiltScenario",
    "DefenseContext",
    "DefenseKind",
    "ExperimentConfig",
    "ExperimentResult",
    "FigureResult",
    "Registry",
    "SweepResult",
    "TopologyKind",
    "UnknownComponentError",
    "WorkloadBuild",
    "WorkloadContext",
    "build_scenario",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
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
    "sweep",
    "validate_config",
]
