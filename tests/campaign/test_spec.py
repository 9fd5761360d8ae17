"""Tests for repro.campaign.spec: parsing, validation, planning."""

import json

import pytest

from repro.campaign.spec import AxisSpec, CampaignSpec, CampaignSpecError

from tests.campaign.conftest import tiny_spec

TOML_SPEC = """\
name = "pd-sweep"
preset = "paper-default"
seeds = [1, 2]

[base]
total_flows = 20
"mafic.renotice_interval" = 0.5

[base.topology_args]
n_ingress = 4

[[axes]]
field = "mafic.drop_probability"
values = [0.7, 0.9]

[[axes]]
field = "defense"
values = ["mafic", "proportional"]
"""


class TestLoading:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(TOML_SPEC)
        spec = CampaignSpec.load(path)
        assert spec.name == "pd-sweep"
        assert spec.preset == "paper-default"
        assert spec.seeds == (1, 2)
        assert spec.axes[0].field == "mafic.drop_probability"
        assert spec.base["topology_args"] == {"n_ingress": 4}

    def test_load_json(self, tmp_path):
        payload = {
            "name": "j",
            "seeds": [3],
            "axes": [{"field": "attack_fraction", "values": [0.2]}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = CampaignSpec.load(path)
        assert spec.name == "j"
        assert spec.axes == (AxisSpec(field="attack_fraction", values=(0.2,)),)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(CampaignSpecError, match="extension"):
            CampaignSpec.load(path)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown spec keys"):
            CampaignSpec.from_dict({"name": "x", "sedes": [1]})

    def test_string_seeds_rejected(self):
        """'seeds': \"12\" must not silently plan seeds (1, 2)."""
        with pytest.raises(CampaignSpecError, match="array of ints"):
            CampaignSpec.from_dict({"name": "x", "seeds": "12"})

    def test_unknown_axis_key_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown axis keys"):
            CampaignSpec.from_dict({
                "name": "x",
                "axes": [{
                    "field": "attack_fraction", "values": [0.1],
                    "scale": "log",
                }],
            })

    def test_axis_missing_values_rejected(self):
        with pytest.raises(CampaignSpecError, match="'field' and 'values'"):
            CampaignSpec.from_dict(
                {"name": "x", "axes": [{"field": "attack_fraction"}]}
            )

    def test_to_dict_round_trips(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(TOML_SPEC)
        spec = CampaignSpec.load(path)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec


class TestValidation:
    def test_empty_seeds_rejected(self):
        with pytest.raises(CampaignSpecError, match="seed"):
            CampaignSpec(name="x", seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(CampaignSpecError, match="duplicate seeds"):
            CampaignSpec(name="x", seeds=(1, 1))

    def test_non_int_seeds_rejected(self):
        """(1.5, 2.9) must not silently plan seeds (1, 2)."""
        with pytest.raises(CampaignSpecError, match=r"seeds\[0\] must be an int"):
            CampaignSpec(name="x", seeds=(1.5, 2.9))
        with pytest.raises(CampaignSpecError, match=r"seeds\[1\] must be an int"):
            CampaignSpec.from_dict({"name": "x", "seeds": [1, True]})

    def test_aliasing_seeds_rejected(self):
        """2**64 + 1 would run as seed 1: two cells, one sample."""
        with pytest.raises(CampaignSpecError, match=r"seeds\[1\] must be in"):
            CampaignSpec(name="x", seeds=(1, 2**64 + 1))

    def test_duplicate_axis_fields_rejected(self):
        with pytest.raises(CampaignSpecError, match="duplicate axis"):
            CampaignSpec(
                name="x",
                axes=(
                    AxisSpec("attack_fraction", (0.1,)),
                    AxisSpec("attack_fraction", (0.2,)),
                ),
            )

    def test_seed_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="'seeds'"):
            CampaignSpec(name="x", axes=(AxisSpec("seed", (1, 2)),))

    def test_empty_axis_values_rejected(self):
        with pytest.raises(CampaignSpecError, match="at least one value"):
            AxisSpec("attack_fraction", ())

    def test_pathy_names_rejected(self):
        with pytest.raises(CampaignSpecError, match="directory name"):
            CampaignSpec(name="a/b")

    def test_unknown_base_field_rejected(self):
        spec = CampaignSpec(name="x", base={"total_fows": 20})
        with pytest.raises(CampaignSpecError, match="total_fows"):
            spec.base_config()

    def test_unknown_axis_field_rejected(self):
        spec = CampaignSpec(
            name="x", axes=(AxisSpec("atack_fraction", (0.1,)),)
        )
        with pytest.raises(CampaignSpecError, match="atack_fraction"):
            spec.plan()

    def test_unknown_preset_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown preset"):
            CampaignSpec(name="x", preset="nope").base_config()

    def test_invalid_config_value_surfaces(self):
        spec = CampaignSpec(name="x", base={"total_flows": 0})
        with pytest.raises(ValueError):
            spec.plan()


class TestPlanning:
    def test_cross_product_times_seeds(self):
        spec = tiny_spec(
            seeds=(1, 2, 3),
            axes=[
                {"field": "attack_fraction", "values": (0.25, 0.5)},
                {"field": "mafic.drop_probability", "values": (0.7, 0.9)},
            ],
        )
        plan = spec.plan()
        assert len(plan) == 2 * 2 * 3
        # Last axis fastest, seeds innermost.
        assert [run.seed for run in plan[:3]] == [1, 2, 3]
        assert plan[0].point == {
            "attack_fraction": 0.25, "mafic.drop_probability": 0.7,
        }
        assert plan[3].point == {
            "attack_fraction": 0.25, "mafic.drop_probability": 0.9,
        }

    def test_axis_values_reach_the_config(self):
        spec = tiny_spec(
            axes=[
                {"field": "mafic.drop_probability", "values": (0.7,)},
                {"field": "topology_args.n_ingress", "values": (3,)},
            ]
        )
        config = spec.plan()[0].config
        assert config.mafic.drop_probability == 0.7
        assert config.topology_args == {"n_ingress": 3}

    def test_component_name_axis(self):
        spec = tiny_spec(
            axes=[{"field": "defense", "values": ("mafic", "proportional")}]
        )
        defenses = {run.config.defense for run in spec.plan()}
        assert defenses == {"mafic", "proportional"}

    def test_run_ids_are_config_hashes_and_unique(self):
        plan = tiny_spec(seeds=(1, 2, 3)).plan()
        ids = [run.run_id for run in plan]
        assert len(set(ids)) == len(ids)
        assert all(run.run_id == run.config.config_hash() for run in plan)

    def test_plan_is_deterministic(self):
        a = tiny_spec().plan()
        b = tiny_spec().plan()
        assert [run.run_id for run in a] == [run.run_id for run in b]

    def test_duplicate_cells_deduplicated(self):
        spec = tiny_spec(
            axes=[{"field": "attack_fraction", "values": (0.25, 0.25)}]
        )
        assert len(spec.plan()) == len(spec.seeds)

    def test_no_axes_means_seeds_only(self):
        plan = tiny_spec(axes=[]).plan()
        assert len(plan) == 2
        assert all(run.point == {} for run in plan)

    def test_component_table_clobber_rejected(self):
        """A bare 'mafic' axis (typo for 'mafic.drop_probability') must
        fail at plan time, not inside a worker mid-campaign."""
        spec = tiny_spec(axes=[{"field": "mafic", "values": (0.5,)}])
        with pytest.raises(CampaignSpecError, match="component table"):
            spec.plan()
        base_spec = tiny_spec(base={"mafic": 0.5})
        with pytest.raises(CampaignSpecError, match="component table"):
            base_spec.base_config()

    def test_dotted_key_inside_open_args_table(self):
        spec = tiny_spec(base={"topology_args": {"gen.sub": 1}})
        assert spec.base_config().topology_args == {"gen": {"sub": 1}}

    def test_base_does_not_leak_between_cells(self):
        spec = tiny_spec(
            axes=[{"field": "topology_args.n_ingress", "values": (3, 4)}]
        )
        plan = spec.plan()
        args = sorted(
            run.config.topology_args["n_ingress"] for run in plan
        )
        assert args == [3, 3, 4, 4]
