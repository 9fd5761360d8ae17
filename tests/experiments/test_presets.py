"""Tests for the named experiment presets."""

from dataclasses import FrozenInstanceError

import pytest

from repro.experiments.config import DefenseKind
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.validation import validate_config


class TestPresetRegistry:
    def test_every_preset_builds(self):
        for name in PRESETS:
            config = get_preset(name)
            assert config.total_flows >= 1, name

    def test_unknown_preset_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="paper-default"):
            get_preset("nope")

    def test_presets_are_fresh_objects(self):
        a = get_preset("paper-default")
        b = get_preset("paper-default")
        assert a is not b
        with pytest.raises(FrozenInstanceError):
            a.mafic.drop_probability = 0.1


class TestPresetSemantics:
    def test_paper_default_matches_table_ii(self):
        config = get_preset("paper-default")
        assert config.total_flows == 50
        assert config.mafic.drop_probability == 0.9
        assert config.n_routers == 40

    def test_heavy_attack_is_attack_dominated(self):
        config = get_preset("heavy-attack")
        assert config.n_zombies > config.n_legit

    def test_low_rate_probe_forces_activation(self):
        config = get_preset("low-rate-probe")
        assert config.rate_bps == 100e3
        assert config.force_activation_at is not None

    def test_rotation_stress_caps_sft(self):
        config = get_preset("rotation-stress")
        assert config.spoofing.rotate_per_packet
        assert config.mafic.max_sft_entries > 0

    def test_pulsing_stress_enables_renotice(self):
        config = get_preset("pulsing-stress")
        assert config.pulsing_attack
        assert config.mafic.renotice_interval > 0

    def test_filtered_domain(self):
        assert get_preset("filtered-domain").ingress_filtering

    def test_control_plane_preset(self):
        assert get_preset("realistic-control-plane").control_latency

    def test_proportional_baseline(self):
        assert (
            get_preset("proportional-baseline").defense
            is DefenseKind.PROPORTIONAL
        )

    def test_huge_topology_scales_population(self):
        config = get_preset("huge-topology")
        base = get_preset("paper-default")
        assert config.total_flows == 8 * base.total_flows
        assert config.n_routers > base.n_routers
        # Memory discipline: the preset must not hoard trace records at
        # this population.  (``streaming_series`` is inert but hashed:
        # the preset keeps it set so its config hash does not move.)
        assert config.streaming_series
        assert not config.trace_enabled
        # Per-flow behaviour unchanged — only the aggregate grows.
        assert config.attack_fraction == base.attack_fraction
        assert config.rate_bps == base.rate_bps
        assert config.mafic.drop_probability == base.mafic.drop_probability

    def test_huge_topology_scale_parameter(self):
        from repro.experiments.presets import huge_topology

        assert huge_topology(scale=2).total_flows == 100
        assert huge_topology(scale=20).n_routers == 320  # capped
        with pytest.raises(ValueError):
            huge_topology(scale=0)


class TestPresetFeasibility:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_passes_validation(self, name):
        report = validate_config(get_preset(name))
        assert report.ok, [f.message for f in report]
