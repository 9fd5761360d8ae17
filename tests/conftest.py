"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet, reset_packet_ids


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """Let spawned interpreters (campaign workers, cold-start probes)
    import ``repro`` from this tree, as pyproject's ``pythonpath`` lets
    the test process: that setting changes ``sys.path``, not the
    environment a subprocess inherits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "PYTHONPATH",
            src if not inherited else os.pathsep.join([src, inherited]),
        )
        yield


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    """Isolate the global packet-uid counter between tests."""
    reset_packet_ids()
    yield
    reset_packet_ids()


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator clock."""
    return Simulator()


def make_flow(
    src_ip: int = 0x0A000001,
    dst_ip: int = 0x0A010001,
    src_port: int = 1234,
    dst_port: int = 80,
) -> FlowKey:
    """A flow key with overridable fields."""
    return FlowKey(src_ip, dst_ip, src_port, dst_port)


def make_packet(flow: FlowKey | None = None, **kwargs) -> Packet:
    """A DATA packet on the given (or default) flow."""
    return Packet(flow=flow if flow is not None else make_flow(), **kwargs)
