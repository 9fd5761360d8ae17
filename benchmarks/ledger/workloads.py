"""The seven workloads, as they run inside one fresh child process.

Each workload object is driven by ``run.py`` in three steps: ``prepare``
(import ``repro``, build inputs from the seed, one untimed warm-up op —
together the workload's set-up), then either ``measure`` (tracing off:
the end-to-end metrics) or ``trace`` (a profiler installed by the
harness: the per-layer metrics).  Every op's output goes through the
:class:`Gate`; an op that fails it is counted, never dropped.

All ``repro`` imports are inside functions: importing this module must
cost nothing, because the import of ``repro`` is itself measured.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple

import drives
import layers
from ledgerstats import exact, quartiles, summarise, tail_value
from schema import LAYERS

#: Per-op floors for Table-II runs, from benchmarks/test_fig3/5: the
#: Pd=90% accuracy series must average above 98.5% and false positives
#: stay under the figure's ceiling; every true ATR is identified.
ALPHA_FLOOR_PCT = 98.5
THETA_P_CEILING_PCT = 1.0

FIDELITY = ("alpha", "beta", "theta_p", "theta_n", "Lr")

#: The domain every Table-II-shaped workload shrinks to under --check.
TINY = {"total_flows": 10, "n_routers": 8, "duration": 2.0}


class Gate:
    """The per-op correctness gate and its tally."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self._problems: list[str] = []

    def seed(self, key: str, fingerprint: str) -> None:
        """Register the reference a key's later ops must reproduce."""
        self.fingerprints.setdefault(key, fingerprint)

    def identical(self, key: str, fingerprint: str) -> None:
        """Every op of one key must reproduce the first one bit for bit."""
        if self.fingerprints.setdefault(key, fingerprint) != fingerprint:
            self.problem(f"{key}: output differs from the first op of this key")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problem(message)

    def problem(self, message: str) -> None:
        self._problems.append(message)

    def close_op(self, label: str) -> None:
        """End one op: it failed if any check since the last close did."""
        self.ops += 1
        if self._problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in self._problems]
            self._problems = []


def digest(value) -> str:
    """A short stable hash of a JSON-friendly value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def fingerprint(result) -> str:
    """Everything of a run that must be bit-identical on repetition
    (the ``bench_obs_overhead`` shape: floats by their hex)."""
    summary = dataclasses.asdict(result.summary)
    return digest({
        "summary": {
            key: (value.hex() if isinstance(value, float) else value)
            for key, value in summary.items()
        },
        "series_total": [value.hex() for value in result.series.total_kbps],
        "events_executed": result.events_executed,
        "identified_atrs": sorted(result.identified_atrs),
        "activation_time": (
            None if result.activation_time is None
            else result.activation_time.hex()
        ),
    })


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _imported(fn) -> float:
    """Seconds ``fn`` (a function that only imports) takes."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class Sample(NamedTuple):
    """What one timed simulation op leaves behind (seconds calibrated
    unless named raw)."""

    config: object
    pct: dict          # MetricsSummary.as_percent()
    events: int
    hops: int          # sum of SimplexLink.packets_sent
    wall_s: float
    raw_wall_s: float
    slowdown: float
    simulate_s: float  # ExperimentResult.wall_seconds


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: True: the ops are subprocesses this process only waits for, so the
    #: clock calibrates beside them, not while they run.
    in_child = False

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.gate = Gate()
        self.import_s = 0.0

    def budget_left(self, started: float, seconds: float, done: int,
                    at_least: int) -> bool:
        return done < at_least or time.perf_counter() - started < seconds

    def result(self, metrics: dict) -> dict:
        return {
            "ops": self.gate.ops,
            "failed": self.gate.failed,
            "failures": self.gate.failures[:20],
            "fingerprints": self.gate.fingerprints,
            "metrics": metrics,
        }


# --------------------------------------------------------------------------
# The five simulation workloads


class SimWorkload(Workload):
    """One op = ``run_experiment(config)`` through to serialised JSON."""

    n_seeds = 4
    mafic = True      # the defence must activate
    banded = False    # Table-II bands apply
    traced_ops = 2
    phase_ops = 0     # untraced ops of the traced run; 0: one per seed

    def base_config(self):
        raise NotImplementedError

    def tiny_overrides(self) -> dict:
        return TINY

    def prepare(self) -> None:
        def imports():
            import repro.experiments.presets  # noqa: F401
            import repro.experiments.runner  # noqa: F401
        self.import_s = _imported(imports)
        base = self.base_config()
        if self.tiny:
            base = base.with_overrides(**self.tiny_overrides())
        n = 2 if self.tiny else self.n_seeds
        self.configs = [
            base.with_overrides(seed=self.seed + i) for i in range(n)
        ]
        self.warm_up()

    def warm_up(self) -> None:
        result, _ = self.execute(self.configs[0])
        self.gate.seed(self.key(self.configs[0]), fingerprint(result))

    def key(self, config) -> str:
        return f"seed={config.seed}"

    def execute(self, config):
        """The timed body: (result, raw seconds spent serialising)."""
        from repro.experiments.runner import run_experiment

        result = run_experiment(config)
        return result, self.serialise(result)

    @staticmethod
    def serialise(result) -> float:
        started = time.perf_counter()
        series = result.series
        json.dumps({
            "summary": dataclasses.asdict(result.summary),
            "series": {
                "times": series.times, "total_kbps": series.total_kbps,
                "attack_kbps": series.attack_kbps,
                "legit_kbps": series.legit_kbps,
            },
        })
        return time.perf_counter() - started

    def check(self, result, config) -> None:
        gate = self.gate
        gate.identical(self.key(config), fingerprint(result))
        gate.require(result.events_executed > 0, "no events executed")
        if self.mafic:
            gate.require(result.activation_time is not None,
                         "the defence never activated")
        if self.banded and not self.tiny:
            pct = result.summary.as_percent()
            gate.require(pct["alpha"] >= ALPHA_FLOOR_PCT,
                         f"alpha {pct['alpha']:.2f}% under {ALPHA_FLOOR_PCT}%")
            gate.require(pct["theta_p"] <= THETA_P_CEILING_PCT,
                         f"theta_p {pct['theta_p']:.3f}% over the ceiling")
            gate.require(result.atr_recall == 1.0,
                         f"ATR recall {result.atr_recall:.0%}, not 100%")

    # ------------------------------------------------------------ untraced

    def _ops(self, clock, seconds: float, at_least: int, consume) -> None:
        """Run ops round-robin over the seeds, handing each to
        ``consume(config, timed)`` (``timed.result`` is ``execute``'s
        pair); no result outlives its call, so peak memory is one
        scenario's, as in a user's run."""
        started = time.perf_counter()
        done = 0
        while self.budget_left(started, seconds, done, at_least):
            config = self.configs[done % len(self.configs)]
            timed = clock.timed(lambda: self.execute(config))
            self.check(timed.result[0], config)
            self.gate.close_op(f"op {done} {self.key(config)}")
            consume(config, timed)
            del timed
            done += 1

    def _sim_rows(self, samples: list[Sample]) -> dict:
        """End-to-end rows of a run's samples."""
        rows = {
            "wall_s": summarise([s.wall_s for s in samples], "s"),
            "raw_wall_s": summarise([s.raw_wall_s for s in samples], "s"),
            "host_slowdown": summarise([s.slowdown for s in samples], "x"),
            "events_per_s": summarise(
                [s.events / s.simulate_s for s in samples], "1/s"),
            "ns_per_packet_hop": summarise(
                [1e9 * s.simulate_s / s.hops for s in samples], "ns"),
        }
        if self.mafic:
            by_seed = {s.config.seed: s.pct for s in samples}
            for name in FIDELITY:
                mean = sum(p[name] for p in by_seed.values()) / len(by_seed)
                rows[f"{name.lower()}_pct"] = exact(mean, "%")
        return rows

    @staticmethod
    def _sample(config, timed) -> Sample:
        result, _ = timed.result
        hops = sum(link.packets_sent for link in result.scenario.topology.links)
        # The runner's own stopwatch ran through the calibration chunks.
        simulate = result.wall_seconds * timed.net_share / timed.slowdown
        return Sample(config, result.summary.as_percent(),
                      result.events_executed, hops, timed.raw / timed.slowdown,
                      timed.raw, timed.slowdown, simulate)

    def measure(self, clock, seconds: float) -> dict:
        samples = []
        self._ops(
            clock, seconds, max(3, len(self.configs)),
            lambda config, timed: samples.append(self._sample(config, timed)),
        )
        self.closing_checks()
        rows = self._sim_rows(samples)
        rows["peak_rss_mib"] = exact(peak_rss_mib(resource.RUSAGE_SELF), "MiB")
        return self.result(rows)

    # -------------------------------------------------------------- traced

    def trace(self, clock, seconds: float) -> dict:
        from repro.experiments.scenario import build_scenario

        samples, phases, counts = [], [], {}

        def consume(config, timed):
            result, ser = timed.result
            sample = self._sample(config, timed)
            samples.append(sample)
            counts.update(self.counts(result))
            # The build span is a second, separate call: run_experiment
            # builds inside itself and offers no seam to time it there.
            built = clock.timed(lambda: build_scenario(config))
            build = built.raw / built.slowdown
            serialise = ser * timed.net_share / timed.slowdown
            phases.append((build, sample.simulate_s, serialise, max(
                0.0, sample.wall_s - build - sample.simulate_s - serialise)))

        self._ops(clock, 0.0, self.phase_ops or len(self.configs), consume)
        self.closing_checks()
        rows = self._sim_rows(samples)
        rows.pop("wall_s")  # end-to-end walls come from the untraced run
        rows["phase.import_s"] = exact(self.import_s, "s")
        for i, name in enumerate(("build", "simulate", "serialise", "summarise")):
            rows[f"phase.{name}_s"] = summarise([p[i] for p in phases], "s")
        rows.update({name: exact(v, "count") for name, v in counts.items()})

        n_traced = 1 if self.tiny else self.traced_ops
        traced_walls, totals = [], {layer: [0.0, 0] for layer in LAYERS}
        for i in range(n_traced):
            config = self.configs[i % len(self.configs)]
            profiler = cProfile.Profile()

            def profiled():
                profiler.enable()
                try:
                    return self.execute(config)
                finally:
                    profiler.disable()

            # Chunks run under the profiler would time it, not the host.
            timed = clock.timed(profiled, during=False)
            self.check(timed.result[0], config)
            self.gate.close_op(f"traced op {i} {self.key(config)}")
            traced_walls.append(timed.raw / timed.slowdown)
            slow = timed.slowdown
            del timed
            profiler.create_stats()
            for layer, (sec, calls) in layers.attribute(profiler.stats).items():
                totals[layer][0] += sec / slow / n_traced
                totals[layer][1] += calls / n_traced
        rows.update(layer_rows(totals))
        rows["trace_overhead_ratio"] = exact(
            quartiles(traced_walls)[1] / quartiles([s.wall_s for s in samples])[1],
            "x")
        rows.update(self.drive_rows(clock))
        return self.result(rows)

    def drive_rows(self, clock) -> dict:
        return {}

    def closing_checks(self) -> None:
        """Checks that need a run of their own, after the timed ops."""

    @staticmethod
    def counts(result) -> dict:
        """Exact counters read from public attributes after an op."""
        from repro.sim.packet import packet_pool_stats

        scenario = result.scenario
        topology = scenario.topology
        queue = scenario.sim.queue_stats()
        links = topology.links
        nodes = list(topology.routers.values()) + list(topology.hosts.values())
        agents = list(scenario.agents.values())

        def total(objects, attr):
            return sum(getattr(o, attr) for o in objects)

        stats = [agent.stats for agent in agents]
        tables = [agent.tables.counters for agent in agents]
        return {
            "engine.events": result.events_executed,
            "engine.pushes": queue["pushes"],
            "engine.peak_pending": queue["peak_occupancy"],
            "engine.event_pool_reuse": queue["event_pool_reused"],
            "packet.pool_reuse": packet_pool_stats()["reused"],
            "link.packets_offered": total(links, "packets_offered"),
            "link.packets_sent": total(links, "packets_sent"),
            "link.hook_drops": total(links, "hook_drops"),
            "queues.enqueued": sum(link.queue.enqueued for link in links),
            "queues.drops": sum(link.queue.drops for link in links),
            "node.forwarded": total(nodes, "packets_forwarded"),
            "node.no_route_drops": total(nodes, "packets_dropped_no_route"),
            "core.examined": total(stats, "packets_examined"),
            "core.dropped_probe": total(stats, "packets_dropped_probe"),
            "core.dropped_pdt": total(stats, "packets_dropped_pdt"),
            "core.probes": total(stats, "probes_initiated"),
            "core.sft_admissions": total(tables, "sft_admissions"),
            "core.sft_evictions": total(tables, "sft_evictions"),
        }


def layer_rows(totals: dict) -> dict:
    rows = {}
    for layer, (sec, calls) in totals.items():
        rows[f"layer.{layer}.self_s"] = exact(sec, "s")
        rows[f"layer.{layer}.calls"] = exact(calls, "count")
    return rows


def _median_row(samples, scale: float, unit: str) -> dict:
    return summarise([s * scale for s in samples], unit)


class Table2Seeds(SimWorkload):
    name = "table2_seeds"
    banded = True

    def base_config(self):
        from repro.experiments.presets import paper_default

        return paper_default()

    def drive_rows(self, clock) -> dict:
        rows = {
            "drive.mafic.ns_per_packet_known": _median_row(
                drives.mafic_known(clock, self.seed), 1e9, "ns"),
            "drive.loglog.ns_per_add": _median_row(
                drives.loglog(clock, self.seed), 1e9, "ns"),
        }
        rows.update(self.pure_rows())
        return rows

    def pure_rows(self) -> dict:
        """The pure build's numbers when the compiled one is selected."""
        from repro.sim._core import ENGINE_IMPL

        if ENGINE_IMPL != "compiled" or os.environ.get("REPRO_NO_COMPILED"):
            return {}
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                "--child", "measure", "--workload", self.name,
                "--seed", str(self.seed), "--seconds", "3", "--trace", "0",
                "--t0", str(time.time())] + (["--tiny"] if self.tiny else [])
        done = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, timeout=170,
            env={**os.environ, "REPRO_NO_COMPILED": "1"}, check=True,
        )
        pure = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {"pure.wall_s": pure["wall_s"],
                "pure.events_per_s": pure["events_per_s"]}


class BareForward(SimWorkload):
    name = "bare_forward"
    mafic = False

    def base_config(self):
        from repro.experiments.presets import paper_default

        return paper_default().with_overrides(
            defense="none", trace_enabled=False, streaming_series=True)

    def drive_rows(self, clock) -> dict:
        return {
            "drive.engine.ns_per_event": _median_row(
                drives.engine(clock, self.seed), 1e9, "ns"),
            "drive.link.ns_per_packet": _median_row(
                drives.link(clock, self.seed), 1e9, "ns"),
        }


class RotationStress(SimWorkload):
    name = "rotation_stress"
    n_seeds = 2

    def base_config(self):
        from repro.experiments.presets import rotation_stress

        # 3.0 s of the preset's 4.5: the per-packet cost of a one-packet
        # flow is the same in every second after activation (1.25 s), and
        # the shorter op fits several into one measured run.
        return rotation_stress().with_overrides(duration=3.0)

    def drive_rows(self, clock) -> dict:
        return {
            "drive.hashing.ns_per_key": _median_row(
                drives.hashing(clock, self.seed), 1e9, "ns"),
            "drive.mafic.ns_per_packet_new": _median_row(
                drives.mafic_new(clock, self.seed), 1e9, "ns"),
        }


class Scale8x(SimWorkload):
    name = "scale_8x"
    n_seeds = 2
    # One of each: a traced op here costs 7 s.
    traced_ops = 1
    phase_ops = 1

    def base_config(self):
        from repro.experiments.presets import huge_topology

        # The stock preset never triggers pushback on this checkout (its
        # report card is all zeros), so activation is forced: otherwise
        # this would silently measure an undefended flood.
        return huge_topology(1 if self.tiny else 8).with_overrides(
            force_activation_at=1.25, duration=2.25)

    def tiny_overrides(self) -> dict:
        return {}


class ObservedRun(SimWorkload):
    name = "observed_run"
    banded = True

    def base_config(self):
        from repro.experiments.presets import paper_default

        return paper_default()

    def prepare(self) -> None:
        self._recordings = 0
        self._refolded = False
        super().prepare()

    def execute(self, config):
        from repro.experiments.runner import run_experiment
        from repro.obs import EventBus, LiveMetrics
        from repro.obs.recorder import JsonlSink

        self._recordings += 1
        self.live = LiveMetrics(window=1.0)
        self.sink = JsonlSink(
            os.path.join(self.workdir, f"run-{self._recordings % 2}.jsonl.gz"),
            metadata={"benchmark": "ledger/observed_run"},
        )
        bus = EventBus()
        bus.subscribe(self.live)
        bus.subscribe(self.sink)
        try:
            result = run_experiment(config, bus=bus)
        finally:
            self.sink.close()
        return result, self.serialise(result)

    def check(self, result, config) -> None:
        super().check(result, config)
        self.gate.require(self.sink.events_written > 0, "nothing was recorded")
        if not self._refolded:
            self._refolded = True
            self.check_refold()

    def closing_checks(self) -> None:
        """Observing must not change a bit: a bus-free run of the first
        seed lands on the fingerprint its observed ops share."""
        from repro.experiments.runner import run_experiment

        config = self.configs[0]
        self.gate.identical(self.key(config),
                            fingerprint(run_experiment(config)))
        self.gate.close_op("bus-free reference")

    def check_refold(self) -> None:
        """The recording, replayed, lands on the live aggregator's snapshot."""
        from repro.obs import LiveMetrics
        from repro.obs.recorder import open_recording

        recording = open_recording(self.sink.path)
        refolded = LiveMetrics(window=1.0)
        for event in recording.events():
            refolded.emit(event)
        self.gate.require(not recording.unknown_kinds,
                          "the recording holds unknown event kinds")
        self.gate.require(refolded.snapshot() == self.live.snapshot(),
                          "refolded recording differs from the live snapshot")

    def trace(self, clock, seconds: float) -> dict:
        out = super().trace(clock, seconds)
        out["metrics"]["obs.events_emitted"] = exact(
            self.sink.events_written, "count")
        return out

    def drive_rows(self, clock) -> dict:
        return {
            "drive.obs.ns_per_event_live": _median_row(
                drives.obs_live(clock, self.seed), 1e9, "ns"),
            "drive.obs.ns_per_event_recorded": _median_row(
                drives.obs_recorded(clock, self.seed, self.workdir), 1e9, "ns"),
        }


# --------------------------------------------------------------------------
# campaign_cells


class CampaignCells(Workload):
    """One op = a cold ``run_campaign(jobs=1)`` pass into a fresh store."""

    name = "campaign_cells"
    REPEATS = 10  # warm reports and no-op resumes per run

    def prepare(self) -> None:
        def imports():
            import repro.campaign  # noqa: F401
            import repro.campaign.diff  # noqa: F401
            import repro.campaign.pool  # noqa: F401
        self.import_s = _imported(imports)
        from repro.campaign import CampaignSpec

        # 12 cells a pass (3 waves of 4 at jobs=1): small enough that a
        # run times about ten cold passes, not three.
        points, seeds = (3, 2) if self.tiny else (6, 2)
        self.spec = CampaignSpec(
            name="ledger-cells",
            seeds=tuple(self.seed + i for i in range(seeds)),
            base={"total_flows": 10, "n_routers": 6, "duration": 1.5,
                  "attack_start": 1.05, "topology": "star"},
            axes=({"field": "attack_fraction", "values": tuple(
                round(0.2 + 0.6 * i / (points - 1), 4) for i in range(points)
            )},),
        )
        self.cells = len(self.spec.plan())
        self._stores = 0
        # Warm-up: a cold pass, and the report whose first call in a
        # process pays a ~0.8 s lazy scipy import.
        root, _ = self.cold_pass()
        self.report_json(root)

    def fresh_root(self) -> str:
        self._stores += 1
        return os.path.join(self.workdir, f"store-{self._stores}")

    def cold_pass(self, progress=None):
        from repro.campaign import run_campaign

        root = self.fresh_root()
        report = run_campaign(self.spec, root=root, jobs=1, progress=progress)
        return root, report

    def report_json(self, root: str) -> str:
        from repro.campaign import campaign_report

        return json.dumps(campaign_report(self.spec, root), sort_keys=True)

    def check_pass(self, root: str, report) -> None:
        from repro.campaign import open_store

        gate = self.gate
        planned = {run.run_id for run in self.spec.plan()}
        on_disk = open_store(self.spec, root).run_ids()
        gate.require(report.executed == self.cells and report.complete,
                     f"cold pass executed {report.executed}/{self.cells} cells")
        gate.require(planned <= on_disk, "a planned cell has no artifact")
        gate.identical("report", digest(self.report_json(root)))

    def _cold_passes(self, clock, seconds: float, at_least: int):
        """Timed cold passes: walls, per-cell gaps, the last store root."""
        walls, raws, slows, cell_ms = [], [], [], []
        started = time.perf_counter()
        root = None
        while self.budget_left(started, seconds, len(walls), at_least):
            marks = []

            def progress(done, total, marks=marks):
                marks.append((time.perf_counter(), done))

            timed = clock.timed(lambda: self.cold_pass(progress))
            root, report = timed.result
            # run_campaign reports after each filed wave: a gap between
            # two reports, over the cells filed in it, is one cell's time
            # (with its share of the calibration chunks taken out).
            per_ms = 1e3 * timed.net_share / timed.slowdown
            for (t0, done0), (t1, done1) in zip(marks, marks[1:]):
                cell_ms.append(per_ms * (t1 - t0) / (done1 - done0))
            self.check_pass(root, report)
            self.gate.close_op(f"cold pass {len(walls)}")
            walls.append(timed.raw / timed.slowdown)
            raws.append(timed.raw)
            slows.append(timed.slowdown)
        return walls, raws, slows, cell_ms, root

    def _lease_pass(self, clock, serial_root: str):
        """The lease-pull executor into a second store; it must land on
        the serial store's bytes."""
        from repro.campaign import open_store
        from repro.campaign.diff import diff_stores
        from repro.campaign.pool import run_distributed

        lease_root = self.fresh_root()
        # The pool's worker is a subprocess this process only waits for.
        report, raw, slow, _ = clock.timed(
            lambda: run_distributed(self.spec, root=lease_root, jobs=1),
            during=False)
        gate = self.gate
        gate.require(report.complete and report.deaths == 0,
                     f"lease pass left the campaign incomplete: {report}")
        delta = diff_stores(open_store(self.spec, serial_root).directory,
                            open_store(self.spec, lease_root).directory)
        gate.require(delta.identical,
                     "campaign diff of serial vs lease-pull store is not empty")
        gate.require(self.report_json(serial_root) == self.report_json(lease_root),
                     "serial and lease-pull reports differ")
        gate.close_op("lease pass")
        return report, raw / slow

    def _warm(self, clock, root: str):
        """Warm reports and no-op resumes on a complete store."""
        from repro.campaign import run_campaign

        reports = clock.repeat(lambda: self.report_json(root), self.REPEATS)
        executed = []

        def resume():
            executed.append(run_campaign(self.spec, root=root, jobs=1).executed)

        resumes = clock.repeat(resume, self.REPEATS)
        self.gate.require(not any(executed), "a warm resume executed cells")
        self.gate.close_op("warm resume")
        return reports, resumes

    def _rows(self, walls, raws, slows, cell_ms, reports) -> dict:
        return {
            "wall_s": summarise(walls, "s"),
            "raw_wall_s": summarise(raws, "s"),
            "host_slowdown": summarise(slows, "x"),
            "cells_per_s": summarise([self.cells / w for w in walls], "1/s"),
            "cell_ms_p50": summarise(cell_ms, "ms"),
            "report_s": summarise(reports, "s"),
        }

    def measure(self, clock, seconds: float) -> dict:
        # The lease pass and the warm ops that follow take ~2 s.
        walls, raws, slows, cell_ms, root = self._cold_passes(
            clock, 0.8 * seconds, at_least=2)
        self._lease_pass(clock, root)
        reports, _ = self._warm(clock, root)
        rows = self._rows(walls, raws, slows, cell_ms, reports)
        rows["peak_rss_mib"] = exact(peak_rss_mib(resource.RUSAGE_SELF), "MiB")
        return self.result(rows)

    def trace(self, clock, seconds: float) -> dict:
        from repro.campaign import open_store, run_campaign
        from repro.campaign.worker import run_worker

        walls, raws, slows, cell_ms, root = self._cold_passes(
            clock, 0.0, at_least=1 if self.tiny else 4)
        lease_report, lease_s = self._lease_pass(clock, root)
        reports, resumes = self._warm(clock, root)
        rows = self._rows(walls, raws, slows, cell_ms, reports)
        rows.pop("wall_s")
        plans = clock.repeat(self.spec.plan, self.REPEATS)
        rows.update({
            "phase.import_s": exact(self.import_s, "s"),
            "phase.plan_s": summarise(plans, "s"),
            "phase.resume_s": summarise(resumes, "s"),
            "phase.lease_pass_s": exact(lease_s, "s"),
            "store.artifacts_written": exact(
                len(open_store(self.spec, root).run_ids()), "count"),
            "worker.cells_leased": exact(lease_report.executed, "count"),
        })
        tail = tail_value(cell_ms)
        if tail is not None:
            rows["cell_ms_tail_pctile"] = exact(tail[0], "%")
            rows["cell_ms_tail"] = exact(tail[1], "ms")

        # Traced: a serial cold pass, the lease-pull loop in-process (the
        # pool's worker subprocess is out of a profiler's sight), a
        # report and a resume, all under one profile.
        profiler = cProfile.Profile()
        serial_root, worker_root = self.fresh_root(), self.fresh_root()
        store = open_store(self.spec, worker_root).ensure()
        store.pin_series_bin_width(0.05)
        store.write_manifest(self.spec.to_dict(), series_bin_width=0.05)

        def profiled():
            profiler.enable()
            try:
                report = run_campaign(self.spec, root=serial_root, jobs=1)
                run_worker(store.directory, worker="ledger")
                self.report_json(serial_root)
                run_campaign(self.spec, root=serial_root, jobs=1)
                return report
            finally:
                profiler.disable()

        report, raw, slow, _ = clock.timed(profiled, during=False)
        self.check_pass(serial_root, report)
        self.gate.require(
            self.report_json(worker_root) == self.report_json(serial_root),
            "in-process worker store reports differently from the serial one")
        self.gate.close_op("traced pass")
        profiler.create_stats()
        rows.update(layer_rows({
            layer: (sec / slow, calls)
            for layer, (sec, calls) in layers.attribute(profiler.stats).items()
        }))
        untraced = (quartiles(walls)[1] + lease_s
                    + quartiles(reports)[1] + quartiles(resumes)[1])
        rows["trace_overhead_ratio"] = exact(raw / slow / untraced, "x")

        store_drive = drives.store(clock, self.seed, self.workdir)
        rows.update({
            "drive.store.write_ms": _median_row(store_drive["write"], 1e3, "ms"),
            "drive.store.read_ms": _median_row(store_drive["read"], 1e3, "ms"),
            "drive.lease.claim_ms": _median_row(store_drive["claim"], 1e3, "ms"),
            "drive.config_hash_us": _median_row(
                store_drive["config_hash"], 1e6, "us"),
        })
        return self.result(rows)


# --------------------------------------------------------------------------
# cli_cold


class CliCold(Workload):
    """One op = a cold ``python -m repro run --preset paper-default``."""

    name = "cli_cold"
    in_child = True
    n_seeds = 2

    def argv(self, seed: int) -> list[str]:
        argv = [sys.executable, "-m", "repro", "run", "--preset",
                "paper-default", "--seed", str(seed)]
        if self.tiny:
            argv += ["--flows", str(TINY["total_flows"]),
                     "--routers", str(TINY["n_routers"]),
                     "--duration", str(TINY["duration"])]
        return argv

    def run_cli(self, argv: list[str]) -> str:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        self.gate.require(done.returncode == 0,
                          f"{' '.join(argv[1:])} exited {done.returncode}")
        return done.stdout

    def prepare(self) -> None:
        self.seeds = [self.seed + i for i in range(self.n_seeds)]
        self.printed: dict[int, str] = {}
        self.run_cli(self.argv(self.seeds[0]))

    def op(self, seed: int) -> None:
        out = self.run_cli(self.argv(seed))
        alpha = [line.split()[-1] for line in out.splitlines()
                 if line.startswith("accuracy alpha")]
        self.gate.require(len(alpha) == 1, "no 'accuracy alpha' line printed")
        if alpha:
            self.gate.identical(f"seed={seed}", alpha[0])

    def check_against_in_process(self) -> None:
        """The alpha each subprocess printed is the in-process one."""
        from repro.experiments.presets import paper_default
        from repro.experiments.runner import run_experiment

        for seed in self.seeds:
            config = paper_default().with_overrides(seed=seed)
            if self.tiny:
                config = config.with_overrides(**TINY)
            alpha = run_experiment(config).summary.as_percent()["alpha"]
            printed = self.gate.fingerprints.get(f"seed={seed}")
            self.gate.require(
                printed is None or printed == f"{alpha:.2f}%",
                f"seed {seed}: CLI printed alpha {printed}, in-process "
                f"{alpha:.2f}%")
        self.gate.close_op("in-process alpha")

    def _ops(self, clock, seconds: float, at_least: int):
        walls, raws, slows = [], [], []
        started = time.perf_counter()
        while self.budget_left(started, seconds, len(walls), at_least):
            seed = self.seeds[len(walls) % len(self.seeds)]
            _, raw, slow, _ = clock.timed(lambda: self.op(seed),
                                          during=False)
            self.gate.close_op(f"op {len(walls)} seed={seed}")
            walls.append(raw / slow)
            raws.append(raw)
            slows.append(slow)
        return walls, raws, slows

    def measure(self, clock, seconds: float) -> dict:
        # The in-process reference runs cost ~2 s after the timed loop.
        walls, raws, slows = self._ops(clock, 0.9 * seconds, at_least=3)
        self.check_against_in_process()
        return self.result({
            "wall_s": summarise(walls, "s"),
            "raw_wall_s": summarise(raws, "s"),
            "host_slowdown": summarise(slows, "x"),
            # The harness only forks here: the memory a user pays is the
            # largest `repro run` child's.
            "peak_rss_mib": exact(peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB"),
        })

    def trace(self, clock, seconds: float) -> dict:
        import pstats

        walls, raws, slows = self._ops(clock, 0.0, at_least=len(self.seeds))
        rows = {
            "raw_wall_s": summarise(raws, "s"),
            "host_slowdown": summarise(slows, "x"),
        }
        python = [sys.executable]

        def spawn(argv):
            return lambda: self.run_cli(python + argv)

        n = 1 if self.tiny else 3
        bare = quartiles(clock.repeat(spawn(["-c", "pass"]), n))[1]
        imported = quartiles(clock.repeat(
            spawn(["-c", "import repro.experiments.cli"]), n))[1]
        rows["cli.import_s"] = exact(imported - bare, "s")
        rows["cli.list_presets_s"] = summarise(clock.repeat(
            spawn(["-m", "repro", "run", "--list-presets"]), n), "s")

        timed = subprocess.run(
            python + ["-X", "importtime", "-c", "import repro.experiments.cli"],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            timeout=170,
        )
        self.gate.require(timed.returncode == 0, "-X importtime run failed")
        cumulative = {}
        for line in timed.stderr.splitlines():
            # "import time:      self [us] | cumulative | imported package"
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        for package in ("networkx", "numpy", "repro.campaign", "repro.obs"):
            rows[f"cli.import_{package.replace('.', '_')}_s"] = exact(
                cumulative.get(package, 0.0), "s")

        # Layers of the CLI path, import included: the subprocess profiles
        # itself (`python -m cProfile`) and the harness reads the dump.
        dump = os.path.join(self.workdir, "cli.prof")
        seed = self.seeds[0]
        _, raw, slow, _ = clock.timed(lambda: self.run_cli(
            python + ["-m", "cProfile", "-o", dump] + self.argv(seed)[1:]),
            during=False)
        rows.update(layer_rows({
            layer: (sec / slow, calls)
            for layer, (sec, calls) in layers.attribute(
                pstats.Stats(dump).stats).items()
        }))
        rows["trace_overhead_ratio"] = exact(
            raw / slow / quartiles(walls)[1], "x")
        self.gate.close_op("traced op")
        self.check_against_in_process()
        return self.result(rows)


REGISTRY = {
    cls.name: cls for cls in (
        Table2Seeds, BareForward, RotationStress, Scale8x, ObservedRun,
        CampaignCells, CliCold,
    )
}
