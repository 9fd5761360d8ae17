"""Tests for repro.counting.setunion."""

import pytest

from repro.counting.loglog import LogLogLinkCounter
from repro.counting.setunion import TrafficMatrixEstimator


def _feed(counter, uids):
    for uid in uids:
        counter.sketch.add(uid)
        counter.packets_seen += 1


class TestTrafficMatrixEstimator:
    def _two_by_one(self):
        est = TrafficMatrixEstimator()
        in0 = LogLogLinkCounter("in0", k=12)
        in1 = LogLogLinkCounter("in1", k=12)
        out = LogLogLinkCounter("victim", k=12)
        est.register_ingress(in0)
        est.register_ingress(in1)
        est.register_egress(out)
        return est, in0, in1, out

    def test_pair_estimate_recovers_flow_volume(self):
        est, in0, in1, out = self._two_by_one()
        # in0 sends packets 0..999 to the victim; in1 sends 1000..1499
        # elsewhere (never seen at the victim).
        _feed(in0, range(1000))
        _feed(in1, range(1000, 1500))
        _feed(out, range(1000))
        assert est.pair_estimate("in0", "victim") == pytest.approx(1000, rel=0.3)
        assert est.pair_estimate("in1", "victim") <= 250  # noise floor

    def test_matrix_shape_and_labels(self):
        est, *_ = self._two_by_one()
        sources, destinations, matrix = est.traffic_matrix()
        assert sources == ["in0", "in1"]
        assert destinations == ["victim"]
        assert [len(row) for row in matrix] == [1, 1]

    def test_split_contributions(self):
        est, in0, in1, out = self._two_by_one()
        _feed(in0, range(0, 600))
        _feed(in1, range(600, 1000))
        _feed(out, range(1000))
        m = {
            (i, j): est.pair_estimate(i, j)
            for i in est.ingress_names
            for j in est.egress_names
        }
        assert m[("in0", "victim")] == pytest.approx(600, rel=0.35)
        assert m[("in1", "victim")] == pytest.approx(400, rel=0.35)

    def test_totals(self):
        est, in0, in1, out = self._two_by_one()
        _feed(in0, range(100))
        _feed(out, range(100))
        assert est.ingress_totals()["in0"] == pytest.approx(100, rel=0.25)
        assert est.egress_totals()["victim"] == pytest.approx(100, rel=0.25)

    def test_duplicate_registration_rejected(self):
        est = TrafficMatrixEstimator()
        est.register_ingress(LogLogLinkCounter("a", k=8))
        with pytest.raises(ValueError):
            est.register_ingress(LogLogLinkCounter("a", k=8))
        est.register_egress(LogLogLinkCounter("a", k=8))  # egress namespace separate
        with pytest.raises(ValueError):
            est.register_egress(LogLogLinkCounter("a", k=8))

    def test_reset_clears_all(self):
        est, in0, _, out = self._two_by_one()
        _feed(in0, range(100))
        _feed(out, range(100))
        est.reset()
        assert est.ingress_totals()["in0"] < 1.0
        assert est.egress_totals()["victim"] < 1.0

    def test_names_sorted(self):
        est = TrafficMatrixEstimator()
        est.register_ingress(LogLogLinkCounter("zeta", k=8))
        est.register_ingress(LogLogLinkCounter("alpha", k=8))
        assert est.ingress_names == ["alpha", "zeta"]
