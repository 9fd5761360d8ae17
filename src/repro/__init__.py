"""repro — a full reproduction of MAFIC (Chen, Kwok, Hwang; ICDCSW'05).

MAFIC (MAlicious Flow Identification and Cutoff) is an adaptive packet
dropping scheme run at Attack Transit Routers to push back DDoS attacks:
suspicious victim-bound flows are probed by dropping their packets with
probability ``Pd`` while forging duplicate ACKs toward the claimed
source; flows that slow down within ``2 x RTT`` are nice (never dropped
again), flows that do not are cut completely.

Package layout:

- :mod:`repro.core` — the MAFIC algorithm (tables, probing, policies).
- :mod:`repro.sim` — the discrete-event network simulator substrate.
- :mod:`repro.transport` — TCP/CBR agents and sinks.
- :mod:`repro.counting` — LogLog set-union counting pushback.
- :mod:`repro.attacks` — spoofing models, zombies, attack scenarios.
- :mod:`repro.metrics` — the paper's evaluation metrics.
- :mod:`repro.experiments` — config, runner, and the paper figures as planned grids.

Quickstart::

    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(seed=7))
    print(result.summary.as_percent())
"""

from repro.core import MaficAgent, MaficConfig
from repro.experiments import ExperimentConfig, run_experiment

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "MaficAgent",
    "MaficConfig",
    "run_experiment",
    "__version__",
]
