"""The serve layer: HTTP endpoints, SSE fan-out, clean shutdown."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import EventBus, LiveMetrics, Verdict, VictimArrival
from repro.obs.serve import (
    STREAMED_KINDS,
    SSEBroker,
    _Server,
)


@pytest.fixture()
def server():
    live = LiveMetrics(window=1.0)
    broker = SSEBroker()
    srv = _Server(("127.0.0.1", 0), live, broker)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    broker.close()
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _get(srv, path: str):
    port = srv.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return response.status, response.headers, response.read()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert body == b"ok\n"

    def test_dashboard_is_self_contained_html(self, server):
        status, headers, body = _get(server, "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        text = body.decode()
        assert "repro serve" in text
        assert "EventSource" in text
        # No external assets: the page must work with no network.
        assert "http://" not in text and "https://" not in text

    def test_metrics_reflects_the_live_sink(self, server):
        server.live.emit(VictimArrival(time=0.2, size=1000, is_attack=True))
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode()
        assert 'repro_victim_arrivals_total{truth="attack"} 1' in text

    def test_state_reports_phase_and_snapshot(self, server):
        server.status.update(mode="run", phase="running")
        status, _, body = _get(server, "/state")
        payload = json.loads(body)
        assert status == 200
        assert payload["mode"] == "run"
        assert payload["phase"] == "running"
        assert payload["live"]["arrivals_total"] == 0

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404

    def test_metrics_content_type_is_prometheus_0_0_4(self, server):
        _, headers, _ = _get(server, "/metrics")
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_flows_endpoint_serves_the_drilldown(self, server):
        from repro.obs.events import DefenseDecision

        server.flows.emit(DefenseDecision(
            time=0.1, action="drop", reason="probe", truth="attack",
            flow=11, atr="ingress2",
        ))
        status, headers, body = _get(server, "/flows")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["tracked_flows"] == 1
        assert payload["top_dropped"][0]["flow"] == 11
        assert payload["top_dropped"][0]["atr"] == "ingress2"

    def test_atrs_endpoint_serves_the_drilldown(self, server):
        server.atrs.emit(Verdict(time=0.1, label=5, verdict="cut",
                                 truth="attack", atr="ingress2"))
        status, _, body = _get(server, "/atrs")
        payload = json.loads(body)
        assert status == 200
        assert payload["atrs"][0]["atr"] == "ingress2"
        assert payload["atrs"][0]["verdicts"] == {"cut": 1}

    def test_metrics_includes_drilldown_and_sse_series(self, server):
        from repro.obs.events import DefenseDecision

        server.flows.emit(DefenseDecision(
            time=0.1, action="drop", reason="probe", truth="attack",
            flow=11, atr="ingress2",
        ))
        server.atrs.emit(Verdict(time=0.2, label=11, verdict="cut",
                                 truth="attack", atr="ingress2"))
        _, _, body = _get(server, "/metrics")
        text = body.decode()
        assert 'repro_flow_drops_total{flow="11",truth="attack"} 1' in text
        assert (
            'repro_atr_verdicts_total{atr="ingress2",verdict="cut"} 1'
            in text
        )
        assert "repro_sse_dropped_events_total 0" in text
        assert "repro_sse_clients 0" in text

    def test_state_carries_sse_backpressure_stats(self, server):
        _, _, body = _get(server, "/state")
        payload = json.loads(body)
        assert payload["sse"] == {
            "clients": 0, "published_events": 0, "dropped_events": 0,
        }

    def test_dashboard_has_drilldown_panels_and_engine_slot(self, server):
        _, _, body = _get(server, "/")
        text = body.decode()
        assert 'id="flows"' in text
        assert 'id="atrs"' in text
        assert 'id="engine"' in text


class TestSSEBroker:
    def test_serializes_once_and_fans_out(self):
        broker = SSEBroker()
        a, b = broker.register(), broker.register()
        broker.emit(Verdict(time=1.0, label=2, verdict="cut", truth="attack"))
        line_a, line_b = a.get(timeout=1), b.get(timeout=1)
        assert line_a == line_b
        assert json.loads(line_a)["kind"] == "defense.verdict"

    def test_slow_client_drops_instead_of_blocking(self):
        from repro.obs.serve import CLIENT_QUEUE_SIZE

        broker = SSEBroker()
        q = broker.register()
        for i in range(CLIENT_QUEUE_SIZE + 50):
            broker.publish({"i": i})
        assert q.qsize() == CLIENT_QUEUE_SIZE  # newest 50 dropped
        assert broker.dropped_events == 50
        assert broker.published_events == CLIENT_QUEUE_SIZE + 50
        stats = broker.stats()
        assert stats["clients"] == 1
        assert stats["dropped_events"] == 50

    def test_drops_counted_per_client(self):
        """Two clients, one drained: only the stuck one loses events."""
        from repro.obs.serve import CLIENT_QUEUE_SIZE

        broker = SSEBroker()
        stuck = broker.register()
        drained = broker.register()
        for i in range(CLIENT_QUEUE_SIZE + 10):
            broker.publish({"i": i})
            while not drained.empty():
                drained.get_nowait()
        assert stuck.qsize() == CLIENT_QUEUE_SIZE
        assert broker.dropped_events == 10

    def test_close_poisons_current_and_future_clients(self):
        broker = SSEBroker()
        before = broker.register()
        broker.close()
        after = broker.register()
        assert before.get(timeout=1) is None
        assert after.get(timeout=1) is None

    def test_streamed_kinds_exclude_per_packet_noise(self):
        assert "victim.arrival" not in STREAMED_KINDS
        assert "defense.decision" not in STREAMED_KINDS
        assert "defense.verdict" in STREAMED_KINDS

    def test_sse_stream_over_http(self, server):
        """A real client on /events sees bus events as SSE frames."""
        bus = EventBus()
        bus.subscribe(server.broker, kinds=STREAMED_KINDS)
        port = server.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/events")
            response = conn.getresponse()
            assert response.headers["Content-Type"] == "text/event-stream"
            # Let the handler register its queue before emitting.
            deadline = time.monotonic() + 2
            while not server.broker._clients and time.monotonic() < deadline:
                time.sleep(0.01)
            bus.emit(Verdict(time=0.5, label=1, verdict="nice",
                             truth="legit"))
            line = response.fp.readline().decode()
            assert line.startswith("data: ")
            payload = json.loads(line[len("data: "):])
            assert payload["kind"] == "defense.verdict"
            assert payload["verdict"] == "nice"
        finally:
            conn.close()


class TestNonFiniteFlagsFailWhereTheyEnter:
    """``--window nan`` would reach ``LiveMetrics`` and ``AtrDrilldown``
    as a window that never prunes; ``--pace nan`` would pass the
    negative-pace test and slice the run into NaN-second pieces."""

    @pytest.mark.parametrize("verb", [["serve"], ["replay", "r.jsonl"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--window", "nan", "window must be positive and finite"),
        ("--window", "inf", "window must be positive and finite"),
        ("--window", "0", "window must be positive and finite"),
        ("--pace", "nan", "pace must be non-negative and finite"),
        ("--pace", "inf", "pace must be non-negative and finite"),
        ("--pace", "-1", "pace must be non-negative and finite"),
    ])
    def test_the_parser_rejects_them_by_name(
        self, capsys, verb, flag, value, message
    ):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*verb, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("pace", [float("nan"), float("inf"), -0.5])
    def test_the_slicer_rejects_them_by_name(self, pace):
        from repro.obs.serve import _paced_slicer

        with pytest.raises(ValueError, match="pace"):
            _paced_slicer(pace, lambda now: None)


@pytest.mark.slow
class TestServeEndToEnd:
    """The CLI process itself: run, serve, SIGINT, exit 0."""

    def test_serve_run_linger_and_clean_interrupt(self, tmp_path):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--flows", "10", "--routers", "8", "--duration", "2",
             "--seed", "3", "--port", "0", "--linger"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=tmp_path,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner
            port = int(banner.split("http://", 1)[1].split("/")[0]
                       .rsplit(":", 1)[1])
            deadline = time.monotonic() + 30
            phase = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/state", timeout=5
                ) as response:
                    state = json.loads(response.read())
                phase = state["phase"]
                if phase == "lingering":
                    break
                time.sleep(0.1)
            assert phase == "lingering"
            assert state["live"]["runs_completed"] == 1
            assert state["live"]["verdicts_total"]  # saw real verdicts
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                assert b"repro_runs_completed_total 1" in response.read()
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "Traceback" not in out
        assert "shutting down" in out


class TestReplayThroughTheBatch:
    def test_replay_serves_what_the_live_run_served(self, tmp_path):
        """Live, the runner's batch feeds the serve stack; replayed, the
        recording goes through the same batch object.  ``/state``'s live
        block, ``/flows`` and ``/atrs`` come out identical."""
        import argparse

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.obs.aggregators import AtrDrilldown, FlowDrilldown
        from repro.obs.recorder import JsonlSink
        from repro.obs.serve import DRILLDOWN_KINDS, _replay_feed

        def stack():
            live = LiveMetrics(window=1.0)
            flows, atrs, broker = FlowDrilldown(), AtrDrilldown(), SSEBroker()
            bus = EventBus()
            bus.subscribe(live)
            bus.subscribe(flows, kinds=DRILLDOWN_KINDS)
            bus.subscribe(atrs, kinds=DRILLDOWN_KINDS)
            bus.subscribe(broker, kinds=STREAMED_KINDS)
            srv = _Server(("127.0.0.1", 0), live, broker, flows, atrs)
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            return bus, srv, thread

        def served(srv):
            state = json.loads(_get(srv, "/state")[2])
            return (
                state["live"],
                json.loads(_get(srv, "/flows")[2]),
                json.loads(_get(srv, "/atrs")[2]),
            )

        path = tmp_path / "flight.jsonl.gz"
        live_bus, live_srv, live_thread = stack()
        replay_bus, replay_srv, replay_thread = stack()
        try:
            with JsonlSink(str(path)) as recorder:
                live_bus.subscribe(recorder)
                run_experiment(
                    ExperimentConfig(total_flows=10, n_routers=8,
                                     duration=2.0, seed=3),
                    bus=live_bus, slice_seconds=0.25,
                    on_slice=lambda now: None,
                )
            assert recorder.events_written > 1024  # several batches
            code = _replay_feed(
                argparse.Namespace(recording=str(path), pace=0.0),
                replay_bus, replay_srv.live, replay_srv.broker,
                replay_srv.status,
            )
            assert code == 0
            assert replay_srv.status["events_replayed"] == recorder.events_written
            live_view, replay_view = served(live_srv), served(replay_srv)
            assert live_view[0]["runs_completed"] == 1
            assert live_view[1]["tracked_flows"] > 0 and live_view[2]["atrs"]
            assert replay_view == live_view
        finally:
            for srv, thread in (
                (live_srv, live_thread), (replay_srv, replay_thread),
            ):
                srv.broker.close()
                srv.shutdown()
                srv.server_close()
                thread.join(timeout=5)


def _cli_env():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    return env


@pytest.mark.slow
class TestRecordReplayEndToEnd:
    def test_replay_serves_a_recorded_run(self, tmp_path):
        env = _cli_env()
        recording = tmp_path / "flight.jsonl.gz"
        run = subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--flows", "10", "--routers", "8", "--duration", "2",
             "--seed", "3", "--record", str(recording)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert recording.exists()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "replay", str(recording),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=tmp_path,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner
            port = int(banner.split("http://", 1)[1].split("/")[0]
                       .rsplit(":", 1)[1])
            deadline = time.monotonic() + 30
            state = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/state", timeout=5
                ) as response:
                    state = json.loads(response.read())
                if state["phase"] == "lingering":
                    break
                time.sleep(0.1)
            assert state["phase"] == "lingering"
            assert state["mode"] == "replay"
            assert state["events_replayed"] > 0
            # The dead run serves like a live one: full aggregates,
            # drill-downs, Prometheus.
            assert state["live"]["runs_completed"] == 1
            assert state["live"]["verdicts_total"]
            assert state["live"]["engine_build"] in ("compiled", "pure")
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/flows", timeout=5
            ) as response:
                flows = json.loads(response.read())
            assert flows["tracked_flows"] > 0
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                assert b"repro_flow_drops_total" in response.read()
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "Traceback" not in out


@pytest.mark.slow
class TestWorkerMultiplexing:
    """What a dashboard parent reads from its workers, one layer below
    HTTP: ``repro.campaign.worker --events --sim-events``."""

    def test_worker_artifacts_match_batch_except_timing(self, tmp_path):
        from repro.campaign.orchestrator import prepare_store, run_campaign
        from repro.obs.events import event_from_dict
        from tests.campaign.conftest import tiny_spec

        # Activation forced so the stream carries the defence's kinds.
        spec = tiny_spec(
            name="worker-mux", seeds=(1, 2),
            base={"duration": 1.6, "force_activation_at": 1.1},
        )
        run_campaign(spec, root=tmp_path / "batch", jobs=1)

        store = prepare_store(spec, tmp_path / "mux")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.campaign.worker",
             str(store.directory), "--worker", "w0",
             "--events", "--sim-events"],
            capture_output=True, text=True, env=_cli_env(),
            cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

        # stdout is a pure JSON-line event stream the parent can demux.
        events = [
            event_from_dict(json.loads(line))
            for line in proc.stdout.splitlines() if line.strip()
        ]
        assert all(event is not None for event in events)
        kinds = {event.kind for event in events}
        assert {"worker.started", "campaign.run", "run.completed",
                "defense.verdict"} <= kinds
        done = [e for e in events if e.kind == "campaign.run"]
        assert {e.run_id for e in done} == {r.run_id for r in spec.plan()}

        # Artifacts byte-identical to batch mode, timing key aside.
        batch_store = (tmp_path / "batch" / spec.name).rglob("*.json")
        for batch_file in batch_store:
            mux_file = (
                tmp_path / "mux" / batch_file.relative_to(tmp_path / "batch")
            )
            assert mux_file.exists(), mux_file
            a = json.loads(batch_file.read_text())
            b = json.loads(mux_file.read_text())
            a.pop("timing", None)
            b.pop("timing", None)
            assert a == b, batch_file


@pytest.mark.slow
class TestServeCampaign:
    def test_dying_workers_are_deaths_in_state_not_a_failed_phase(
        self, tmp_path, server, monkeypatch
    ):
        """``serve --campaign --jobs 2`` under the crash harness: the
        work half survives SIGKILLed workers (respawn, lease reclaim),
        ``/state`` counts the deaths, and after a clean second serve the
        store equals an in-process pass."""
        import argparse
        import functools

        import repro.campaign.orchestrator as orchestrator
        from repro.campaign.diff import diff_stores
        from repro.obs.serve import _serve_campaign
        from tests.campaign.conftest import tiny_spec

        spec = tiny_spec(name="serve-chaos")
        orchestrator.run_campaign(spec, root=tmp_path / "ref", jobs=1)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        args = argparse.Namespace(
            campaign=str(spec_path), root=str(tmp_path / "served"), jobs=2
        )
        bus = EventBus()
        bus.subscribe(server.live)
        bus.subscribe(server.broker, kinds=STREAMED_KINDS)

        def serve() -> int:
            return _serve_campaign(
                args, bus, server.live, server.broker, server.status
            )

        # serve has no --lease-ttl; 15 s per orphaned lease is too slow
        # for a test, so shorten it under the one call serve makes.
        monkeypatch.setattr(
            orchestrator, "run_campaign",
            functools.partial(orchestrator.run_campaign, lease_ttl=0.5),
        )
        # Workers inherit the environment; under this seed w0 and w1
        # both die after their first cell ran, before it is written.
        monkeypatch.setenv("REPRO_CHAOS", "result:0.5")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "every-parent-28")
        code = serve()
        state = json.loads(_get(server, "/state")[2])
        assert state["deaths"] >= 2
        assert (code, state["phase"]) in ((0, "done"), (1, "incomplete"))
        assert state["live"]["runs_completed"] >= state["executed"]

        monkeypatch.delenv("REPRO_CHAOS")
        time.sleep(0.6)  # let orphaned leases expire
        assert serve() == 0
        state = json.loads(_get(server, "/state")[2])
        assert (state["phase"], state["deaths"]) == ("done", 0)
        result = diff_stores(
            tmp_path / "ref" / spec.name, tmp_path / "served" / spec.name
        )
        assert result.identical, result.differing
