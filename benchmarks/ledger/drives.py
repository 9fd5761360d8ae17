"""Layer drives: one layer's public function in a loop, the rest absent.

A drive answers the question an end-to-end metric cannot: when a layer
is 3% of every workload, a 30% change to it is below any wall-clock
bound, and a claim about it has to rest on the layer driven alone.  Each
drive returns the calibrated seconds *per item* of several rounds; the
caller reports their median.  Inputs are seeded, so two runs at one seed
drive identical work.
"""

from __future__ import annotations

import os
import random

ROUNDS = 7


def _per_item(clock, make_round, items: int) -> list[float]:
    """Time ``ROUNDS`` rounds; ``make_round()`` builds one round's inputs
    untimed and returns the callable that is timed."""
    rounds = [make_round() for _ in range(ROUNDS)]
    pending = iter(rounds)
    return [s / items for s in clock.repeat(lambda: next(pending)(), ROUNDS)]


def engine(clock, seed: int) -> list[float]:
    """``Simulator.schedule`` + ``run`` over no-op callbacks."""
    from repro.sim.engine import Simulator

    n = 20_000
    rng = random.Random(seed)
    delays = [rng.random() for _ in range(n)]

    def noop() -> None:
        pass

    def make_round():
        def spin():
            sim = Simulator()
            schedule = sim.schedule
            for delay in delays:
                schedule(delay, noop)
            sim.run()
            if sim.events_executed != n:
                raise AssertionError("engine drive lost events")
        return spin

    return _per_item(clock, make_round, n)


def link(clock, seed: int) -> list[float]:
    """``SimplexLink.send`` -> deliver into a host that binds no port."""
    from repro.sim.engine import Simulator
    from repro.sim.link import SimplexLink
    from repro.sim.node import Host
    from repro.sim.packet import FlowKey, Packet
    from repro.sim.queues import DropTailQueue

    n = 8_000
    rng = random.Random(seed)
    keys = [FlowKey(rng.getrandbits(32), 1, 1024 + i % 50, 80)
            for i in range(50)]

    def make_round():
        sim = Simulator()
        src, dst = Host(sim, "src", 1), Host(sim, "dst", 2)
        # All packets are offered at t=0: the queue must hold them all.
        wire = SimplexLink(sim, src, dst, bandwidth_bps=10e9, delay=0.001,
                           queue=DropTailQueue(n))
        packets = [Packet(flow=keys[i % 50], seq=i) for i in range(n)]

        def push():
            send = wire.send
            for packet in packets:
                send(packet)
            sim.run()
            if dst.packets_received != n:
                raise AssertionError("link drive lost packets")
        return push

    return _per_item(clock, make_round, n)


def _mafic(clock, seed: int, distinct_flows: int | None) -> list[float]:
    import numpy as np

    from repro.core.config import MaficConfig
    from repro.core.mafic import MaficAgent
    from repro.sim.engine import Simulator
    from repro.sim.node import Router
    from repro.sim.packet import FlowKey, Packet

    n = 4_000
    rng = random.Random(seed)
    flows = distinct_flows or n
    keys = [FlowKey(rng.getrandbits(32), 1, i & 0xFFFF, 80)
            for i in range(flows)]

    def make_round():
        sim = Simulator()
        agent = MaficAgent(
            sim, Router(sim, "atr"), victim_matcher=lambda ip: True,
            config=MaficConfig(drop_probability=0.5),
            rng=np.random.default_rng(seed),
        )
        agent.activate(0.0)
        packets = [Packet(flow=keys[i % flows], seq=i) for i in range(n)]

        def examine():
            on_packet = agent.on_packet
            for i, packet in enumerate(packets):
                on_packet(packet, None, i * 1e-4)
            if agent.stats.packets_examined != n:
                raise AssertionError("mafic drive skipped packets")
        return examine

    return _per_item(clock, make_round, n)


def mafic_known(clock, seed: int) -> list[float]:
    """``MaficAgent.on_packet`` over 50 flows: tables are hit."""
    return _mafic(clock, seed, 50)


def mafic_new(clock, seed: int) -> list[float]:
    """``MaficAgent.on_packet`` with every packet a new flow."""
    return _mafic(clock, seed, None)


def loglog(clock, seed: int) -> list[float]:
    """``LogLogCounter.add``."""
    from repro.counting.loglog import LogLogCounter

    n = 20_000
    rng = random.Random(seed)
    items = [rng.getrandbits(48) for _ in range(n)]

    def make_round():
        counter = LogLogCounter(k=11)

        def insert():
            add = counter.add
            for item in items:
                add(item)
            if counter.items_added != n:
                raise AssertionError("loglog drive lost items")
        return insert

    return _per_item(clock, make_round, n)


def hashing(clock, seed: int) -> list[float]:
    """``FlowKey`` construction, which hashes the 4-tuple eagerly."""
    from repro.sim.packet import FlowKey

    n = 10_000
    rng = random.Random(seed)
    tuples = [(rng.getrandbits(32), rng.getrandbits(32), i & 0xFFFF, 80)
              for i in range(n)]

    def make_round():
        def build():
            digest = 0
            for src, dst, sport, dport in tuples:
                digest ^= FlowKey(src, dst, sport, dport).hashed()
            return digest
        return build

    return _per_item(clock, make_round, n)


def _obs(clock, seed: int, make_sink) -> list[float]:
    from repro.obs import EventBus
    from repro.obs.events import DefenseDecision, VictimArrival

    n = 10_000
    rng = random.Random(seed)
    events = []
    for i in range(n):
        attack = rng.random() < 0.4
        if i % 4:
            events.append(VictimArrival(i * 1e-4, 1000, attack))
        else:
            events.append(DefenseDecision(
                i * 1e-4, "drop", "probe",
                "attack" if attack else "tcp_legit",
                flow=rng.getrandbits(48), atr="atr0",
            ))

    def make_round():
        sink = make_sink()
        bus = EventBus()
        bus.subscribe(sink)

        def publish():
            emit = bus.emit
            for event in events:
                emit(event)
            sink.close()
        return publish

    return _per_item(clock, make_round, n)


def obs_live(clock, seed: int) -> list[float]:
    """``EventBus.emit`` into a ``LiveMetrics``."""
    from repro.obs import LiveMetrics

    return _obs(clock, seed, lambda: LiveMetrics(window=1.0))


def obs_recorded(clock, seed: int, workdir: str) -> list[float]:
    """``EventBus.emit`` into a gzip ``JsonlSink``."""
    from repro.obs.recorder import JsonlSink

    paths = iter(range(ROUNDS))
    return _obs(
        clock, seed,
        lambda: JsonlSink(os.path.join(workdir, f"drive-{next(paths)}.jsonl.gz")),
    )


def store(clock, seed: int, workdir: str) -> dict[str, list[float]]:
    """``CampaignStore`` write/read of one artifact, lease claim+release,
    and ``ExperimentConfig.config_hash``."""
    from repro.campaign.store import CampaignStore
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(
        total_flows=10, n_routers=6, duration=1.5, topology="star", seed=seed
    )
    result = run_experiment(config).detached()
    run_id = config.config_hash()
    target = CampaignStore(os.path.join(workdir, "drive-store")).ensure()
    n = 20

    def lease_cycle():
        lease = target.try_claim(run_id, "drive")
        if lease is None:
            raise AssertionError("lease drive could not claim a free cell")
        target.release_lease(lease)

    def read():
        if target.read_run(run_id).events_executed != result.events_executed:
            raise AssertionError("store drive read back a different run")

    return {
        "write": clock.repeat(
            lambda: target.write_result(result, series_bin_width=0.05), n),
        "read": clock.repeat(read, n),
        "claim": clock.repeat(lease_cycle, n),
        "config_hash": clock.repeat(config.config_hash, 200),
    }
