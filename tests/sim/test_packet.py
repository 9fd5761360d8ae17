"""Tests for repro.sim.packet."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.packet import (
    FlowKey,
    Packet,
    PacketType,
    enable_packet_pool,
    packet_pool_stats,
    reset_packet_ids,
)

ports = st.integers(min_value=0, max_value=0xFFFF)
ips = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _live_keys():
    """FlowKeys the cyclic collector tracks (every live one)."""
    return sum(type(obj) is FlowKey for obj in gc.get_objects())


class TestFlowKey:
    def test_hashed_is_stable(self):
        k = FlowKey(1, 2, 3, 4)
        assert k.hashed() == FlowKey(1, 2, 3, 4).hashed()

    def test_different_tuples_differ(self):
        assert FlowKey(1, 2, 3, 4).hashed() != FlowKey(1, 2, 4, 3).hashed()

    def test_reversed_swaps_endpoints(self):
        k = FlowKey(1, 2, 3, 4)
        r = k.reversed()
        assert (r.src_ip, r.dst_ip, r.src_port, r.dst_port) == (2, 1, 4, 3)

    def test_double_reverse_is_identity(self):
        k = FlowKey(9, 8, 7, 6)
        assert k.reversed().reversed() == k

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            FlowKey(1, 2, 70000, 80)
        with pytest.raises(ValueError):
            FlowKey(1, 2, 80, -1)

    @pytest.mark.parametrize("bad", [-1, 1 << 32, 0x0A000005 + (1 << 32)])
    def test_ip_range_enforced(self, bad):
        with pytest.raises(ValueError, match="src_ip"):
            FlowKey(bad, 2, 3, 4)
        with pytest.raises(ValueError, match="dst_ip"):
            FlowKey(1, bad, 3, 4)

    @given(ips, ips, ports, ports)
    def test_hash_in_64_bit_range(self, a, b, c, d):
        assert 0 <= FlowKey(a, b, c, d).hashed() < (1 << 64)

    def test_frozen(self):
        k = FlowKey(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            k.src_ip = 9  # type: ignore[misc]


class TestPacket:
    def test_uids_unique_and_increasing(self):
        k = FlowKey(1, 2, 3, 4)
        a, b = Packet(flow=k), Packet(flow=k)
        assert b.uid == a.uid + 1

    def test_reset_packet_ids(self):
        k = FlowKey(1, 2, 3, 4)
        Packet(flow=k)
        reset_packet_ids()
        assert Packet(flow=k).uid == 1

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Packet(flow=FlowKey(1, 2, 3, 4), size=0)

    def test_flow_hash_matches_key(self):
        k = FlowKey(5, 6, 7, 8)
        assert Packet(flow=k).flow_hash == k.hashed()

    def test_src_dst_accessors(self):
        p = Packet(flow=FlowKey(5, 6, 7, 8))
        assert p.src_ip == 5
        assert p.dst_ip == 6

    def test_default_type_is_data(self):
        assert Packet(flow=FlowKey(1, 2, 3, 4)).ptype is PacketType.DATA

    def test_make_ack_reverses_flow_and_echoes_timestamp(self):
        """``Packet.build_ack`` is the one ACK recipe (``make_ack``, the
        instance spelling this test is named for, had no caller)."""
        p = Packet(flow=FlowKey(1, 2, 3, 4), seq=7, ts_val=1.25)
        ack = Packet.build_ack(p.flow, p.ts_val, 8, 1.5)
        assert ack.ptype is PacketType.ACK
        assert ack.flow == p.flow.reversed()
        assert ack.ack == 8
        assert ack.ts_ecr == 1.25
        assert ack.ts_val == ack.created_at == 1.5
        assert (ack.seq, ack.size, ack.is_attack) == (0, 40, False)

    def test_attack_flag_defaults_false(self):
        assert not Packet(flow=FlowKey(1, 2, 3, 4)).is_attack


class TestFlowKeyCaches:
    def test_reversed_is_memoized_one_way_without_a_cycle(self):
        k = FlowKey(1, 2, 3, 4)
        r = k.reversed()
        assert r is k.reversed()
        assert r.reversed() == k and hash(r.reversed()) == hash(k)
        # A key and its reverse die by refcount: with the cyclic
        # collector off, nothing of them is left for it to find.
        gc.collect()
        gc.disable()
        try:
            key = FlowKey(5, 6, 7, 8)
            rev = key.reversed()
            before = _live_keys()
            del key, rev
            assert _live_keys() == before - 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_hash_is_precomputed_attribute(self):
        k = FlowKey(1, 2, 3, 4)
        assert k._hash64 == k.hashed()
        assert hash(k) == k.hashed()

    def test_equality_and_ordering_match_field_tuples(self):
        a, b = FlowKey(1, 2, 3, 4), FlowKey(1, 2, 3, 4)
        assert a == b and not (a != b)
        assert a != FlowKey(1, 2, 4, 3)
        keys = [FlowKey(2, 1, 1, 1), FlowKey(1, 2, 3, 4), FlowKey(1, 2, 3, 3)]
        assert sorted(keys) == [
            FlowKey(1, 2, 3, 3), FlowKey(1, 2, 3, 4), FlowKey(2, 1, 1, 1)
        ]

    def test_ordering_against_other_types_raises_type_error(self):
        with pytest.raises(TypeError):
            FlowKey(1, 2, 3, 4) < 5  # noqa: B015 - the comparison IS the test
        assert FlowKey(1, 2, 3, 4) != 5

    def test_usable_as_dict_key(self):
        table = {FlowKey(1, 2, 3, 4): "x"}
        assert table[FlowKey(1, 2, 3, 4)] == "x"

    def test_pickle_roundtrip(self):
        import pickle

        k = FlowKey(9, 8, 7, 6)
        clone = pickle.loads(pickle.dumps(k))
        assert clone == k and clone.hashed() == k.hashed()


@pytest.fixture
def pool():
    """Enable the packet pool for one test, always disabling after."""
    enable_packet_pool(True)
    yield
    enable_packet_pool(False)


class TestPacketPool:
    def test_release_is_noop_while_disabled(self):
        before = packet_pool_stats()
        p = Packet(flow=FlowKey(1, 2, 3, 4))
        p.release()
        p.release()  # no pool, no double-release bookkeeping
        after = packet_pool_stats()
        assert after["released"] == before["released"]
        assert after["free"] == 0

    def test_acquire_reuses_released_packets(self, pool):
        p = Packet.acquire(flow=FlowKey(1, 2, 3, 4))
        p.release()
        q = Packet.acquire(flow=FlowKey(5, 6, 7, 8))
        assert q is p
        stats = packet_pool_stats()
        assert stats["reused"] == 1 and stats["released"] == 1

    def test_reuse_never_leaks_a_stale_field(self, pool):
        """Every field of a recycled packet must be reset — a stale
        ``is_attack`` or timestamp would silently corrupt metrics."""
        dirty = Packet.acquire(
            flow=FlowKey(1, 2, 3, 4), ptype=PacketType.DUP_ACK, size=40,
            seq=77, ack=88, ts_val=1.5, ts_ecr=2.5, created_at=3.5,
            is_attack=True,
        )
        dirty.hop_count = 9
        dirty.ingress_router = "atr3"
        dirty._uid_hash = 123456  # pretend a sketch hashed it
        old_uid = dirty.uid
        dirty.release()

        fresh = Packet.acquire(flow=FlowKey(9, 9, 9, 9))
        assert fresh is dirty  # recycled object...
        assert fresh.flow == FlowKey(9, 9, 9, 9)  # ...with no stale field
        assert fresh.ptype is PacketType.DATA
        assert fresh.size == 1000
        assert fresh.seq == 0 and fresh.ack == 0
        assert fresh.ts_val == 0.0 and fresh.ts_ecr == 0.0
        assert fresh.created_at == 0.0
        assert not fresh.is_attack
        assert fresh.hop_count == 0
        assert fresh.ingress_router is None
        assert fresh._uid_hash is None
        assert fresh.uid == old_uid + 1  # fresh identity for the sketches

    def test_double_release_raises(self, pool):
        p = Packet.acquire(flow=FlowKey(1, 2, 3, 4))
        p.release()
        with pytest.raises(RuntimeError, match="double release"):
            p.release()

    def test_uid_sequence_identical_with_and_without_pool(self):
        reset_packet_ids()
        unpooled = [Packet(flow=FlowKey(1, 2, 3, 4)).uid for _ in range(5)]
        reset_packet_ids()
        enable_packet_pool(True)
        try:
            pooled = []
            for _ in range(5):
                p = Packet.acquire(flow=FlowKey(1, 2, 3, 4))
                pooled.append(p.uid)
                p.release()
        finally:
            enable_packet_pool(False)
        assert pooled == unpooled

    def test_acquire_validates_size(self, pool):
        Packet.acquire(flow=FlowKey(1, 2, 3, 4)).release()
        with pytest.raises(ValueError):
            Packet.acquire(flow=FlowKey(1, 2, 3, 4), size=0)

    def test_rejected_acquire_is_side_effect_free(self, pool):
        """A size-rejected acquire must not pop the pool, skew the
        counters, or leak the recycled object half-reset."""
        p = Packet.acquire(flow=FlowKey(1, 2, 3, 4))
        p.release()
        before = packet_pool_stats()
        with pytest.raises(ValueError):
            Packet.acquire(flow=FlowKey(5, 6, 7, 8), size=-1)
        assert packet_pool_stats() == before
        q = Packet.acquire(flow=FlowKey(5, 6, 7, 8))
        assert q is p  # the pooled packet is still available and intact
