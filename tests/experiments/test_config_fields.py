"""Every field of the configs a run is built from declares its check.

Each field names its check once, in its ``declared(...)``; one
``check_fields`` loop runs them all.  The table below holds the values
the hand-written ``__post_init__`` lists let through: each ran as some
other value or failed later, deep in the build.
"""

import dataclasses

import pytest

from repro.attacks.scenarios import AttackScenarioConfig
from repro.attacks.spoofing import SpoofingModel, SpoofMode
from repro.attacks.zombie import ZombieConfig
from repro.core.config import MaficConfig
from repro.counting.pushback import PushbackPolicyConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.workload import DynamicWorkloadConfig

CONFIGS = [
    ExperimentConfig,
    MaficConfig,
    PushbackPolicyConfig,
    SpoofingModel,
    ZombieConfig,
    AttackScenarioConfig,
    DynamicWorkloadConfig,
]

NAN = float("nan")

#: (config class, constructor kwargs, the field the error must name).
HOLES = [
    (ExperimentConfig, {"ingress_filtering": 1}, "ingress_filtering"),
    (MaficConfig, {"drop_illegal_sources": "no"}, "drop_illegal_sources"),
    (SpoofingModel, {"rotate_per_packet": "no"}, "rotate_per_packet"),
    (ExperimentConfig, {"streaming_series": 1}, "streaming_series"),
    (ExperimentConfig, {"mafic": None}, "mafic"),
    (ExperimentConfig, {"pushback": None}, "pushback"),
    (PushbackPolicyConfig, {"calm_band": NAN}, "calm_band"),
    (PushbackPolicyConfig, {"min_absolute": NAN}, "min_absolute"),
    (PushbackPolicyConfig, {"min_absolute": -5}, "min_absolute"),
    (ExperimentConfig, {"attack": "pulse_train", "pulse_on": -1}, "pulse_on"),
    (ZombieConfig, {"jitter": -1}, "jitter"),
    (ZombieConfig, {"packet_size": 1000.5}, "packet_size"),
    (AttackScenarioConfig, {"n_zombies": 2.5}, "n_zombies"),
    (DynamicWorkloadConfig, {"mean_segments": 2.5}, "mean_segments"),
    (DynamicWorkloadConfig, {"base_port": 70000}, "base_port"),
]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_field_declares_a_check(cls):
    undeclared = [
        f.name for f in dataclasses.fields(cls) if "check" not in f.metadata
    ]
    assert undeclared == []


@pytest.mark.parametrize(
    "cls,kwargs,name",
    HOLES,
    ids=[f"{cls.__name__}-{'-'.join(kwargs)}={list(kwargs.values())[-1]!r}"
         for cls, kwargs, _ in HOLES],
)
def test_a_value_the_old_checks_let_through_fails_by_name(cls, kwargs, name):
    with pytest.raises((ValueError, TypeError), match=name):
        cls(**kwargs)


class TestStoredValues:
    """What a check returns is what the config keeps, so the config and
    its hash agree with what the run uses."""

    def test_a_mode_value_is_coerced_to_its_member(self):
        # Every non-NONE mode branch fell through to MIXED for a string,
        # under NONE's config_hash.
        assert SpoofingModel(mode="none").mode is SpoofMode.NONE

    def test_an_unknown_mode_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            SpoofingModel(mode="sometimes")

    def test_an_int_in_a_float_field_hashes_as_the_float(self):
        # Equal configs, one store cell: paper-default's pinned hash.
        config = ExperimentConfig(rate_bps=1000000)
        assert type(config.rate_bps) is float
        assert config == ExperimentConfig()
        assert config.config_hash() == "b88489a46be87b4c"

    def test_an_int_field_stays_an_int(self):
        assert type(ZombieConfig(packet_size=1000).packet_size) is int

    def test_from_dict_rebuilds_every_nested_config(self):
        config = ExperimentConfig(
            spoofing=SpoofingModel(mode=SpoofMode.NONE),
            mafic=MaficConfig(drop_probability=0.5),
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.spoofing.mode is SpoofMode.NONE
        assert isinstance(rebuilt.pushback, PushbackPolicyConfig)

    def test_from_dict_checks_nested_fields_too(self):
        tree = ExperimentConfig().to_dict()
        tree["pushback"]["min_absolute"] = -5
        with pytest.raises(ValueError, match="min_absolute"):
            ExperimentConfig.from_dict(tree)
