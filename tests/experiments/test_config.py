"""Tests for repro.experiments.config."""

import pytest

from repro.core.config import MaficConfig
from repro.counting.pushback import PushbackPolicyConfig
from repro.experiments.config import DefenseKind, ExperimentConfig, TopologyKind


class TestTableIIDefaults:
    def test_defaults_match_table_ii(self):
        cfg = ExperimentConfig()
        assert cfg.total_flows == 50  # Vt
        assert cfg.tcp_fraction == 0.95  # Gamma
        assert cfg.rate_bps == 1e6  # R
        assert cfg.n_routers == 40  # N
        assert cfg.mafic.drop_probability == 0.90  # Pd

    def test_default_defense_is_mafic(self):
        assert ExperimentConfig().defense is DefenseKind.MAFIC

    def test_default_topology_is_transit_stub(self):
        assert ExperimentConfig().topology is TopologyKind.TRANSIT_STUB


class TestDerivedCounts:
    def test_workload_partition_sums_to_vt(self):
        cfg = ExperimentConfig(total_flows=50)
        assert cfg.n_zombies + cfg.n_tcp + cfg.n_udp_legit == 50

    def test_zombie_count(self):
        cfg = ExperimentConfig(total_flows=50, attack_fraction=0.4)
        assert cfg.n_zombies == 20

    def test_at_least_one_zombie_when_fraction_positive(self):
        cfg = ExperimentConfig(total_flows=2, attack_fraction=0.1)
        assert cfg.n_zombies == 1

    def test_zero_attack_fraction_means_no_zombies(self):
        cfg = ExperimentConfig(attack_fraction=0.0)
        assert cfg.n_zombies == 0
        assert cfg.n_legit == cfg.total_flows

    def test_tcp_udp_split(self):
        cfg = ExperimentConfig(total_flows=50, attack_fraction=0.4,
                               tcp_fraction=0.9)
        assert cfg.n_tcp == 27
        assert cfg.n_udp_legit == 3

    def test_legit_rate(self):
        cfg = ExperimentConfig(rate_bps=1e6, legit_rate_factor=0.25)
        assert cfg.legit_rate_bps == 250e3

    @pytest.mark.parametrize("vt", [1, 2, 10, 37, 50, 120])
    def test_partition_always_consistent(self, vt):
        cfg = ExperimentConfig(total_flows=vt)
        assert cfg.n_zombies >= 0
        assert cfg.n_tcp >= 0
        assert cfg.n_udp_legit >= 0
        assert cfg.n_zombies + cfg.n_tcp + cfg.n_udp_legit == vt


class TestOverrides:
    def test_with_overrides_copies(self):
        base = ExperimentConfig()
        tweaked = base.with_overrides(total_flows=99, seed=7)
        assert tweaked.total_flows == 99
        assert tweaked.seed == 7
        assert base.total_flows == 50  # original untouched

    def test_mafic_config_replaceable(self):
        cfg = ExperimentConfig(mafic=MaficConfig(drop_probability=0.7))
        assert cfg.mafic.drop_probability == 0.7


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_flows": 0},
            {"tcp_fraction": 1.5},
            {"attack_fraction": -0.1},
            {"rate_bps": 0},
            {"n_routers": 2},
            {"duration": 0},
            {"attack_start": 10.0, "duration": 5.0},
            {"monitor_period": 0},
            {"rate_limit_bps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestSeedValidation:
    """A seed is an int in [0, 2**64): anything else fails at the config,
    never as an alias of a seed in range or deep inside the run."""

    @pytest.mark.parametrize("seed", [2**64 + 1, 2**64, -1])
    def test_rejects_seeds_that_would_alias(self, seed):
        # 2**64 + 1 hashed exactly like 1 under another config_hash.
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            ExperimentConfig(seed=seed)

    @pytest.mark.parametrize("seed", [1.0, True, "1"])
    def test_rejects_non_int_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            ExperimentConfig(seed=seed)


class TestFieldTypeValidation:
    """A field fails at the config, by name: an int field never takes a
    float or bool (it ran as the int under another config_hash, or died
    deep in the build), and a float field never takes nan or inf (it died
    inside the engine or the TCP window)."""

    @pytest.mark.parametrize(
        "name,value",
        [
            ("total_flows", 10.0), ("total_flows", True), ("n_routers", 8.0),
            ("queue_capacity", 256.5), ("queue_capacity", 256.0),
            ("queue_capacity", True), ("loglog_k", 11.0), ("packet_size", 1000.5),
            ("victim_port", 80.0), ("udp_port", False),
        ],
    )
    def test_an_int_field_rejects_a_float_or_bool(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize(
        "name,value",
        [("queue_capacity", 0), ("loglog_k", 21), ("loglog_k", 3), ("udp_port", 65536)],
    )
    def test_an_int_field_rejects_a_value_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize(
        "name,value",
        [
            ("tcp_max_cwnd", float("nan")), ("link_delay", float("nan")),
            ("monitor_period", float("inf")), ("duration", float("inf")),
            ("core_bandwidth_bps", float("nan")), ("link_delay", -0.001),
            ("control_per_hop_processing", float("inf")), ("tcp_max_cwnd", 0.0),
        ],
    )
    def test_a_float_field_rejects_a_non_finite_or_bad_value(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize(
        "config,name",
        [(MaficConfig, "max_sft_entries"), (PushbackPolicyConfig, "warmup_epochs")],
    )
    def test_nested_int_fields_reject_floats(self, config, name):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            config(**{name: 10.0})

    def test_huge_topology_requires_an_int_scale(self):
        from repro.experiments.presets import huge_topology

        with pytest.raises(ValueError, match="scale must be an int"):
            huge_topology(1.5)


class TestForcedActivationValidation:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_a_non_positive_instant_by_name(self, value):
        # At t = 0 β's before-window is empty: every run crashed in
        # summarize instead of the config failing here.
        with pytest.raises(ValueError, match="force_activation_at"):
            ExperimentConfig(force_activation_at=value)

    def test_rejects_an_instant_past_the_run(self):
        with pytest.raises(ValueError, match="force_activation_at"):
            ExperimentConfig(duration=5.0, force_activation_at=5.0)

    def test_an_early_forced_activation_runs(self):
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            total_flows=6, n_routers=6, duration=0.5, attack_start=0.1,
            force_activation_at=0.01,
        )
        assert run_experiment(config).activation_time == 0.01


class TestCanonicalSerialization:
    def test_to_dict_round_trips(self):
        config = ExperimentConfig(
            attack_fraction=0.6,
            topology="multi_tier",
            defense="red_rate_limit",
            topology_args={"n_agg": 2},
            seed=9,
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.to_dict() == config.to_dict()

    def test_nested_dataclasses_round_trip(self):
        config = ExperimentConfig()
        config.mafic.drop_probability = 0.7
        tree = config.to_dict()
        assert tree["mafic"]["drop_probability"] == 0.7
        assert tree["spoofing"]["mode"] == "mixed"
        rebuilt = ExperimentConfig.from_dict(tree)
        assert isinstance(rebuilt.mafic, MaficConfig)
        assert rebuilt.mafic.drop_probability == 0.7

    def test_enum_fields_serialize_as_values(self):
        tree = ExperimentConfig(topology=TopologyKind.STAR).to_dict()
        assert tree["topology"] == "star"
        assert tree["defense"] == "mafic"

    def test_missing_keys_fall_back_to_defaults(self):
        """Artifacts written before a field existed still load."""
        tree = ExperimentConfig().to_dict()
        del tree["workload_args"]
        rebuilt = ExperimentConfig.from_dict(tree)
        assert rebuilt.workload_args == {}

    def test_canonical_json_is_key_order_independent(self):
        config = ExperimentConfig(seed=4)
        tree = config.to_dict()
        shuffled = dict(reversed(list(tree.items())))
        assert (
            ExperimentConfig.from_dict(shuffled).canonical_json()
            == config.canonical_json()
        )


class TestConfigHash:
    def test_hash_is_stable_for_equal_configs(self):
        assert (
            ExperimentConfig(seed=7).config_hash()
            == ExperimentConfig(seed=7).config_hash()
        )

    def test_hash_format(self):
        digest = ExperimentConfig().config_hash()
        assert len(digest) == 16
        int(digest, 16)  # hex

    def test_every_field_perturbs_the_hash(self):
        base = ExperimentConfig().config_hash()
        for overrides in (
            {"seed": 2},
            {"attack_fraction": 0.5},
            {"defense": DefenseKind.PROPORTIONAL},
            {"topology_args": {"n_ingress": 4}},
            {"workload_args": {"x": 1}},
            {"attack_args": {"start_jitter": 0.0}},
            {"defense_args": {"min_thresh": 4.0}},
        ):
            assert ExperimentConfig(**overrides).config_hash() != base

    def test_hash_ignores_python_process(self):
        """The hash is content-derived, not id()/PYTHONHASHSEED-derived."""
        import subprocess
        import sys

        code = (
            "from repro.experiments.config import ExperimentConfig;"
            "print(ExperimentConfig(seed=11).config_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        ).stdout.strip()
        assert out == ExperimentConfig(seed=11).config_hash()


class TestComponentArgsValidation:
    def test_args_must_be_dicts(self):
        with pytest.raises(ValueError, match="topology_args"):
            ExperimentConfig(topology_args=[1, 2])

    def test_arg_keys_must_be_strings(self):
        with pytest.raises(ValueError, match="attack_args"):
            ExperimentConfig(attack_args={1: "x"})


class TestTraceFieldValidation:
    @pytest.mark.parametrize("value", [-5, -1, 2.5, 1.0, True, False, "10"])
    def test_rejects_a_bad_record_cap(self, value):
        with pytest.raises(ValueError, match="trace_max_records"):
            ExperimentConfig().with_overrides(trace_max_records=value)

    @pytest.mark.parametrize("value", [1, 0, None, "yes", 1.0])
    def test_rejects_a_non_bool_switch(self, value):
        with pytest.raises(ValueError, match="trace_enabled"):
            ExperimentConfig().with_overrides(trace_enabled=value)

    @pytest.mark.parametrize("value", [None, 0, 1, 200_000])
    def test_accepts_a_valid_record_cap(self, value):
        assert ExperimentConfig(trace_max_records=value).trace_max_records == value

    def test_from_dict_is_checked_too(self):
        tree = ExperimentConfig().to_dict()
        tree["trace_max_records"] = -5
        with pytest.raises(ValueError, match="trace_max_records"):
            ExperimentConfig.from_dict(tree)


#: config_hash of every preset, and of paper-default under the overrides
#: below, as they were before the trace fields were validated: checking
#: a field must not re-key a valid config.
PRESET_HASHES = {
    "all-illegal-sources": "0653c3fdd3877bcf",
    "all-legal-spoofing": "18c78111b6c8d2e5",
    "filtered-domain": "60f3e8c1294cd455",
    "heavy-attack": "5848c8d7a35153b0",
    "huge-topology": "05655da4519b6e98",
    "low-rate-probe": "47d6902cfbf2de2e",
    "multi-tier-domain": "a478225ad7a7a3a6",
    "paper-default": "b88489a46be87b4c",
    "proportional-baseline": "6f58330d34adf2fd",
    "pulse-train": "f13a36cebab8d4d4",
    "pulsing-stress": "6255b77fb1ffe9ab",
    "realistic-control-plane": "7ca3488d68d5ba53",
    "red-ratelimit": "2356a62b3cba7400",
    "rotation-stress": "0368fb2710a2ed43",
}
OVERRIDE_HASHES = [
    ({"seed": 2}, "2cbc19a2d0aa42b0"),
    ({"trace_max_records": None}, "827869c519650d6c"),
    ({"trace_max_records": 0}, "89312d3faa93fb59"),
    ({"trace_max_records": 50}, "2ccc128f8d4387bf"),
    ({"trace_enabled": False}, "3ec9e71c038c80bf"),
]


class TestPinnedHashes:
    def test_every_preset_keeps_its_hash(self):
        from repro.experiments.presets import PRESETS, get_preset

        assert {name: get_preset(name).config_hash() for name in PRESETS} == (
            PRESET_HASHES
        )

    @pytest.mark.parametrize("overrides,digest", OVERRIDE_HASHES)
    def test_paper_default_overrides_keep_their_hash(self, overrides, digest):
        assert ExperimentConfig().with_overrides(**overrides).config_hash() == digest
