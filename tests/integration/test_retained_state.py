"""A run holds only what it reads.

MAFIC sits at every ATR and a LogLog counter at the head of every
``SimplexLink``, so per-link and per-epoch bookkeeping multiplies with
the domain.  Each bound below fails on the state it replaced:

* a link of a built ``huge_topology(1)`` retains at most
  :data:`LINK_BYTES` from ``sim/link.py`` (its name, its delivery
  target, a hook tuple when it has hooks): four bound methods cached per
  link and an empty hook list each made it ~447;
* no instance of a class on the ``slots-on-hotpath`` roster (links,
  queues, routers, tables, senders, agents, counters, streams) carries
  a ``__dict__`` once a scenario is built;
* the traffic monitor keeps its latest matrix and an epoch count, and
  the pushback coordinator its latest report, an epoch count and the
  ATRs it started, so a run twice as long leaves each the same bytes,
  where a matrix history and a report list grew by one an epoch;
* a plain ``run_experiment`` process does not import the modules a run
  never executes (the event bus among them: a bus-free run never makes
  an event), and their public names still resolve through the packages
  (PEP 562);
* a bus-free run makes no ``NullSink.__bool__`` call: every producer
  holds ``None``, whose falsy test runs no Python frame.
"""

import gc
import importlib
import subprocess
import sys
import tracemalloc

import pytest

import repro.experiments
import repro.metrics
import repro.obs
from repro.counting.loglog import LogLogLinkCounter
from repro.counting.pushback import PushbackCoordinator, PushbackPolicyConfig
from repro.counting.setunion import TrafficMatrixEstimator
from repro.experiments.presets import huge_topology, paper_default
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import build_scenario
from repro.lint.rules.slots import HOT_CLASSES
from repro.obs.bus import NullSink
from repro.sim.engine import Simulator
from repro.sim.monitor import MatrixSnapshot, TrafficMonitor

#: Seen: 140 (a 64-byte name, a 64-byte bound ``receive``, and a hook
#: tuple on the 32 links that carry hooks).
LINK_BYTES = 192

#: Two monitors at different run lengths are "the same" within this:
#: the sizes of their one held snapshot's dicts and floats may differ
#: by an allocator quantum (seen: 8).  A history adds ~900 an epoch.
SAME_BYTES = 64

#: What a run never executes: figures, their text rendering, config
#: validation, the post-hoc flow report, the serve-mode aggregators, and
#: with no bus attached the event classes and the bus itself.
POST_HOC = (
    "repro.experiments.figures",
    "repro.experiments.reporting",
    "repro.experiments.validation",
    "repro.metrics.flowreport",
    "repro.obs.aggregators",
    "repro.obs.events",
    "repro.obs.bus",
)

#: Roster classes a built ``huge_topology(1)`` scenario makes.
BUILT_ROSTER = {
    "SimplexLink", "DropTailQueue", "Router", "Host", "RoutingTable",
    "_HostDelivery", "FlowStats", "TcpSender", "CbrSender", "Zombie",
    "MaficStats", "MaficAgent", "FlowTables", "TableCounters",
    "DupAckProber", "AdaptiveMaficPolicy", "LogLogCounter",
    "LogLogLinkCounter", "Pcg64Stream",
}


def test_no_roster_class_instance_of_a_built_scenario_has_a_dict():
    roster = {
        getattr(importlib.import_module(module), name)
        for module, names in HOT_CLASSES.items() for name in names
    }
    scenario = build_scenario(huge_topology(1))
    found: dict[str, int] = {}
    with_dict: dict[str, int] = {}
    for obj in gc.get_objects():
        cls = type(obj)
        if cls in roster:
            found[cls.__name__] = found.get(cls.__name__, 0) + 1
            if hasattr(obj, "__dict__"):
                with_dict[cls.__name__] = with_dict.get(cls.__name__, 0) + 1
    assert BUILT_ROSTER <= set(found), BUILT_ROSTER - set(found)
    assert found["SimplexLink"] >= len(scenario.topology.links)
    assert with_dict == {}


def test_a_built_link_retains_at_most_192_bytes_of_its_own():
    gc.collect()
    tracemalloc.start()
    try:
        scenario = build_scenario(huge_topology(1))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/sim/link.py")]
    )
    links = scenario.topology.links
    per_link = sum(stat.size for stat in held.statistics("filename")) / len(links)
    assert per_link <= LINK_BYTES, f"{per_link:.0f} bytes a link"
    # Every link without a hook shares the one empty tuple.
    bare = [link for link in links if not link.head_hooks]
    assert bare and len({id(link.head_hooks) for link in bare}) == 1


def _monitor_retained(until: float) -> tuple[int, int]:
    """Bytes still held from allocations made under ``monitor.py``
    after ``until`` seconds of epochs, and the epochs taken."""
    sim = Simulator()
    estimator = TrafficMatrixEstimator()
    for name in ("in0", "in1"):
        counter = LogLogLinkCounter(name, k=8)
        for uid in range(200):
            counter.sketch.add(uid)
        estimator.register_ingress(counter)
    estimator.register_egress(LogLogLinkCounter("out0", k=8))
    monitor = TrafficMonitor(sim, estimator, period=0.25, reset_each_epoch=False)
    gc.collect()
    tracemalloc.start(32)
    try:
        monitor.start()
        sim.run(until=until)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/sim/monitor.py", all_frames=True)]
    )
    return sum(trace.size for trace in held.traces), monitor.epochs


def test_a_run_twice_as_long_leaves_the_monitor_the_same_bytes():
    _monitor_retained(0.5)  # one-time caches the first estimates fill
    short, short_epochs = _monitor_retained(5.0)
    long, long_epochs = _monitor_retained(10.0)
    assert (short_epochs, long_epochs) == (20, 40)
    assert short > 0
    assert abs(long - short) <= SAME_BYTES


def _coordinator_retained(epochs: int) -> tuple[int, int]:
    """Bytes still held from allocations made under ``pushback.py``
    after ``epochs`` overload epochs, and the epochs it counted."""
    ingresses = [f"in{i}" for i in range(8)]
    snapshots = [
        MatrixSnapshot(
            time=0.25 * (epoch + 1),
            sources=ingresses,
            destinations=["victim"],
            matrix=[[125.0 + epoch % 3] for _ in ingresses],
            ingress_totals=dict.fromkeys(ingresses, 125.0),
            egress_totals={"victim": 1000.0 + 8 * (epoch % 3)},
        )
        for epoch in range(epochs)
    ]
    calm = MatrixSnapshot(0.0, ingresses, ["victim"], [[10.0] for _ in ingresses],
                          {}, {"victim": 80.0})
    coordinator = PushbackCoordinator("victim", PushbackPolicyConfig(warmup_epochs=1))
    coordinator.on_snapshot(calm)
    gc.collect()
    tracemalloc.start(32)
    try:
        for snapshot in snapshots:
            coordinator.on_snapshot(snapshot)
        gc.collect()
        traced = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = traced.filter_traces(
        [tracemalloc.Filter(True, "*/repro/counting/pushback.py", all_frames=True)]
    )
    return sum(trace.size for trace in held.traces), coordinator.overload_epochs


def test_a_run_twice_as_long_leaves_the_coordinator_the_same_bytes():
    _coordinator_retained(2)
    short, short_epochs = _coordinator_retained(20)
    long, long_epochs = _coordinator_retained(40)
    assert (short_epochs, long_epochs) == (20, 40)
    assert short > 0
    assert abs(long - short) <= SAME_BYTES


def test_a_run_does_not_import_what_it_never_executes():
    code = (
        "import sys\n"
        "from repro.experiments.presets import paper_default\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(paper_default().with_overrides(\n"
        "    total_flows=10, n_routers=8, duration=2.0, seed=3))\n"
        f"print('LOADED', [m for m in {POST_HOC!r} if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip() == "LOADED []"


@pytest.mark.parametrize("package", [repro.experiments, repro.metrics, repro.obs])
def test_every_public_name_still_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError):
        package.no_such_name  # noqa: B018


def test_the_lazy_names_are_the_modules_own():
    from repro.experiments.figures import FIGURES
    from repro.metrics.flowreport import build_flow_report
    from repro.obs.aggregators import LiveMetrics

    assert repro.experiments.FIGURES is FIGURES
    assert repro.metrics.build_flow_report is build_flow_report
    assert repro.obs.LiveMetrics is LiveMetrics


def test_a_bus_free_run_makes_no_null_sink_call():
    null_bool = NullSink.__bool__.__code__
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is null_bool:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run_experiment(paper_default().with_overrides(
            total_flows=10, n_routers=8, duration=2.0, seed=3
        ))
    finally:
        sys.setprofile(previous)
    # The guarded emits were reached: the defence dropped and passed
    # packets and the victim saw arrivals.
    collector = result.scenario.defense_collector
    assert collector.total_dropped > 0
    assert collector.total_examined > collector.total_dropped
    assert calls == 0
