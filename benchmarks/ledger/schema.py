"""What the ledger measures: workloads, layers, and every metric by name.

This table is the single declaration the harness, ``compare.py``, the
self-test and ``BENCHMARK.json`` are checked against.  A metric names the
workloads it is measured on; the driver's contract wants every metric on
every workload, so ``run.py`` writes 0 there for a per-layer metric that
does not apply (the ledger's own result file simply omits it).
"""

from __future__ import annotations

from dataclasses import dataclass

#: name -> why it exists (one line; BENCHMARK.json carries the same text).
WORKLOADS = {
    "table2_seeds": (
        "paper-default (Table II) run_experiment to serialised JSON: the "
        "canonical user run, every sim layer in its natural proportion; "
        "memos and flow tables are read/hit"
    ),
    "bare_forward": (
        "same domain and traffic, defense=none, no trace: engine+link+"
        "queues+node do the work and core none, so packet-path work shows "
        "here first and a defence-layer change must not move it"
    ),
    "rotation_stress": (
        "rotation-stress preset, every attack packet a new flow: route/"
        "label/hash memos miss and the SFT is written, where table2_seeds "
        "hits and reads them"
    ),
    "scale_8x": (
        "huge_topology(8) with forced activation: 400 flows on 320 routers, "
        "working set beyond every cache, build_scenario (topology, routing, "
        "networkx) a third of the op"
    ),
    "observed_run": (
        "table2_seeds with an EventBus feeding LiveMetrics and a gzip "
        "JsonlSink: obs plus json/gzip are a third of the op; its ratio to "
        "table2_seeds is the observation overhead"
    ),
    "campaign_cells": (
        "12 tiny cells through run_campaign into a fresh store, then the "
        "lease-pull executor, warm reports and no-op resumes: spec, store, "
        "fsync and leases dominate, not simulation"
    ),
    "cli_cold": (
        "cold subprocess python -m repro run --preset paper-default: the "
        "wall a shell user waits, of which import is a third; everywhere "
        "else import lands in setup_s"
    ),
}

SIM = ("table2_seeds", "bare_forward", "rotation_stress", "scale_8x",
       "observed_run")
MAFIC = ("table2_seeds", "rotation_stress", "scale_8x", "observed_run")
IN_PROCESS = SIM + ("campaign_cells",)
ALL = IN_PROCESS + ("cli_cold",)
CAMPAIGN = ("campaign_cells",)
CLI = ("cli_cold",)

#: The repo's modules, grouped as the ROADMAP names them.
LAYERS = (
    "sim.engine", "sim.link", "sim.queues", "sim.node", "sim.routing",
    "sim.address", "sim.packet", "sim.topology", "sim.monitor", "sim.trace",
    "transport", "attacks", "core", "counting", "metrics", "obs", "util",
    "experiments", "campaign.spec", "campaign.store", "campaign.worker",
    "analysis", "ext.numpy", "ext.networkx", "ext.json_gzip", "ext.other",
)

#: Regression bounds, as a share of the parent's median.  Timings carry
#: 0.25 where ISSUE 11 asked for 0.1: the acceptance driver wants the
#: run-to-run spread under a third of the bound, and on this host the
#: calibrated median of an 8 s run still spreads 3-11% (README, noise
#: method).
TIMING_BOUND = 0.25
MEMORY_BOUND = 0.05
SETUP_BOUND = 0.25
#: Fidelity metrics are simulated statistics: bound in percentage points.
FIDELITY_BOUND_PP = 0.1


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    workloads: tuple[str, ...]
    #: None: reported, never gated (every per-layer metric).
    bound: float | None = None
    #: True: ``bound`` is an absolute difference, not a share.
    absolute: bool = False
    #: True: in BENCHMARK.json's end_to_end, so the driver gates it.
    #: The rest of the end-to-end list is gated by compare.py only: the
    #: driver wants each of its metrics on all seven workloads and never
    #: zero, which only these three can honestly be.
    driver_gated: bool = False
    #: True: a run may legitimately have no reading (see the definition).
    optional: bool = False
    #: True: a count the program makes, which repeats bit for bit.
    exact: bool = False


def _timing(name, unit, better, workloads):
    return Metric(name, unit, better, workloads, TIMING_BOUND)


def _fidelity(name, better):
    return Metric(name, "%", better, MAFIC, FIDELITY_BOUND_PP, absolute=True)


END_TO_END = (
    Metric("wall_s", "s", "lower", ALL, TIMING_BOUND, driver_gated=True),
    Metric("peak_rss_mib", "MiB", "lower", ALL, MEMORY_BOUND,
           driver_gated=True),
    Metric("setup_s", "s", "lower", ALL, SETUP_BOUND, driver_gated=True),
    _timing("events_per_s", "1/s", "higher", SIM),
    _timing("ns_per_packet_hop", "ns", "lower", SIM),
    _timing("cells_per_s", "1/s", "higher", CAMPAIGN),
    _timing("cell_ms_p50", "ms", "lower", CAMPAIGN),
    _timing("report_s", "s", "lower", CAMPAIGN),
    _fidelity("alpha_pct", "higher"),
    _fidelity("beta_pct", "higher"),
    _fidelity("theta_p_pct", "lower"),
    _fidelity("theta_n_pct", "lower"),
    _fidelity("lr_pct", "lower"),
)


_PHASES = (
    ("phase.import_s", IN_PROCESS), ("phase.build_s", SIM),
    ("phase.simulate_s", SIM), ("phase.summarise_s", SIM),
    ("phase.serialise_s", SIM), ("phase.plan_s", CAMPAIGN),
    ("phase.resume_s", CAMPAIGN), ("phase.lease_pass_s", CAMPAIGN),
)

_COUNTS = (
    ("engine.events", SIM), ("engine.pushes", SIM),
    ("engine.peak_pending", SIM), ("engine.event_pool_reuse", SIM),
    ("packet.pool_reuse", SIM), ("link.packets_offered", SIM),
    ("link.packets_sent", SIM), ("link.hook_drops", SIM),
    ("queues.enqueued", SIM), ("queues.drops", SIM),
    ("node.forwarded", SIM), ("node.no_route_drops", SIM),
    ("core.examined", SIM), ("core.dropped_probe", SIM),
    ("core.dropped_pdt", SIM), ("core.probes", SIM),
    ("core.sft_admissions", SIM), ("core.sft_evictions", SIM),
    ("obs.events_emitted", ("observed_run",)),
    ("store.artifacts_written", CAMPAIGN), ("worker.cells_leased", CAMPAIGN),
)

#: Each drive rides the traced run of the workload whose end-to-end
#: metric it is predicted to move (README, interaction table).
_DRIVES = (
    ("drive.engine.ns_per_event", "ns", ("bare_forward",)),
    ("drive.link.ns_per_packet", "ns", ("bare_forward",)),
    ("drive.hashing.ns_per_key", "ns", ("rotation_stress",)),
    ("drive.mafic.ns_per_packet_new", "ns", ("rotation_stress",)),
    ("drive.mafic.ns_per_packet_known", "ns", ("table2_seeds",)),
    ("drive.loglog.ns_per_add", "ns", ("table2_seeds",)),
    ("drive.obs.ns_per_event_live", "ns", ("observed_run",)),
    ("drive.obs.ns_per_event_recorded", "ns", ("observed_run",)),
    ("drive.store.write_ms", "ms", CAMPAIGN),
    ("drive.store.read_ms", "ms", CAMPAIGN),
    ("drive.lease.claim_ms", "ms", CAMPAIGN),
    ("drive.config_hash_us", "us", CAMPAIGN),
)

_CLI = (
    "cli.import_s", "cli.import_networkx_s", "cli.import_numpy_s",
    "cli.import_repro_campaign_s", "cli.import_repro_obs_s",
    "cli.list_presets_s",
)

PER_LAYER = (
    tuple(Metric(f"layer.{layer}.self_s", "s", "lower", ALL)
          for layer in LAYERS)
    + tuple(Metric(f"layer.{layer}.calls", "count", "lower", ALL)
            for layer in LAYERS)
    + (Metric("trace_overhead_ratio", "x", "lower", ALL),
       Metric("raw_wall_s", "s", "lower", ALL),
       Metric("host_slowdown", "x", "lower", ALL))
    + tuple(Metric(name, "s", "lower", on) for name, on in _PHASES)
    # Reported only once 20 per-cell samples exist (the tail rule).
    + (Metric("cell_ms_tail", "ms", "lower", CAMPAIGN, optional=True),
       Metric("cell_ms_tail_pctile", "%", "higher", CAMPAIGN, optional=True))
    + tuple(Metric(name, "count", "lower", on, exact=True)
            for name, on in _COUNTS)
    + tuple(Metric(name, unit, "lower", on) for name, unit, on in _DRIVES)
    + tuple(Metric(name, "s", "lower", CLI) for name in _CLI)
    # The pure build's numbers, measured only when the auto-selected
    # build is the compiled one (otherwise wall_s already is the pure one).
    + (Metric("pure.wall_s", "s", "lower", ("table2_seeds",), optional=True),
       Metric("pure.events_per_s", "1/s", "higher", ("table2_seeds",),
              optional=True))
)

#: What the driver reads with --trace 1: every per-layer metric, plus the
#: end-to-end metrics it cannot gate (they have no value on some
#: workloads), so they still reach its log.
DRIVER_PER_LAYER = PER_LAYER + tuple(
    m for m in END_TO_END if not m.driver_gated
)
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.driver_gated)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def declared_on(metrics, workload: str) -> list[Metric]:
    return [m for m in metrics if workload in m.workloads]


#: How long one untraced run measures, in the driver's form.
RUN_SECONDS = 8


def benchmark_json() -> dict:
    """The content of the repo's BENCHMARK.json (the self-test holds the
    file to it)."""
    def row(metric: Metric) -> dict:
        return {"name": metric.name, "unit": metric.unit,
                "better": metric.better}

    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{**row(m), "bound": m.bound}
                       for m in DRIVER_END_TO_END],
        "per_layer": [row(m) for m in DRIVER_PER_LAYER],
    }
