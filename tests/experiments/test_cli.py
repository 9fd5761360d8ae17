"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import LAZY_VERBS, main


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3a", "fig4b", "fig5c", "fig7"):
            assert name in out


class TestRun:
    def test_small_run_prints_metrics(self, capsys):
        code = main([
            "run", "--flows", "8", "--routers", "8", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy alpha" in out
        assert "pushback" in out

    def test_defense_choice_none(self, capsys):
        code = main([
            "run", "--flows", "6", "--routers", "6",
            "--defense", "none", "--seed", "3",
        ])
        assert code == 0
        assert "never triggered" in capsys.readouterr().out

    def test_pd_flag_accepted(self, capsys):
        code = main([
            "run", "--flows", "6", "--routers", "6",
            "--pd", "0.7", "--seed", "3",
        ])
        assert code == 0

    def test_engine_info(self, capsys):
        from repro.sim._core import ENGINE_IMPL

        from repro.sim._core import source_hash

        assert main(["run", "--engine-info"]) == 0
        out = capsys.readouterr().out
        assert f"engine core: {ENGINE_IMPL}" in out
        assert f"_corec.c sha256: {source_hash()}" in out
        if ENGINE_IMPL == "compiled":
            assert f"extension stamp: {source_hash()}" in out


class TestFigure:
    def test_figure_to_stdout(self, capsys):
        code = main(["figure", "fig3a", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# fig3a" in out
        assert "Pd=90%" in out

    def test_figure_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig.dat"
        code = main([
            "figure", "fig7", "--scale", "0.01", "--out", str(target),
        ])
        assert code == 0
        assert target.exists()
        assert "# fig7" in target.read_text()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestValidate:
    def test_feasible_default(self, capsys):
        assert main(["validate"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_infeasible_low_rate(self, capsys):
        assert main(["validate", "--rate", "100000"]) == 1
        out = capsys.readouterr().out
        assert "detection-infeasible" in out
        assert "NOT feasible" in out


class TestRegistryListing:
    def test_list_presets_flag(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-default", "multi-tier-domain", "pulse-train",
                     "red-ratelimit"):
            assert name in out

    def test_list_single_registry(self, capsys):
        assert main(["run", "--list", "defenses"]) == 0
        out = capsys.readouterr().out
        for name in ("mafic", "proportional", "rate_limit", "none",
                     "red_rate_limit"):
            assert name in out
        assert "topologies" not in out

    def test_list_all_registries(self, capsys):
        assert main(["run", "--list", "all"]) == 0
        out = capsys.readouterr().out
        for section in ("topologies:", "workloads:", "attacks:", "defenses:"):
            assert section in out
        assert "multi_tier" in out
        assert "pulse_train" in out

    def test_list_rejects_unknown_registry(self):
        with pytest.raises(SystemExit):
            main(["run", "--list", "sandwiches"])


class TestPresetOverrides:
    def test_preset_run_with_scale_overrides(self, capsys):
        code = main([
            "run", "--preset", "pulse-train", "--flows", "8",
            "--routers", "8", "--duration", "2.0", "--seed", "3",
        ])
        assert code == 0
        assert "accuracy alpha" in capsys.readouterr().out

    def test_component_flags_without_preset(self, capsys):
        code = main([
            "run", "--flows", "8", "--routers", "8", "--duration", "2.0",
            "--topology", "multi_tier", "--seed", "3",
        ])
        assert code == 0
        assert "accuracy alpha" in capsys.readouterr().out

    def test_unknown_component_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--defense", "prayer"])


class TestColdStart:
    """What a plain ``run`` imports: the routed domain is built and the
    CI table computed with numpy alone, and other verbs' packages stay
    unloaded."""

    TINY = ["--preset", "paper-default", "--flows", "8", "--routers", "8",
            "--duration", "2.0", "--seed", "3"]

    @pytest.mark.parametrize("extra", [[], ["--seeds", "2", "--jobs", "1"]],
                             ids=["single", "multi-seed"])
    def test_run_loads_no_networkx_scipy_or_other_verbs(self, extra):
        code = (
            "import runpy, sys\n"
            "sys.argv = ['repro', 'run'] + sys.argv[1:]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    assert not done.code, done.code\n"
            "print('LOADED', sorted(m for m in ('networkx', 'scipy',\n"
            "      'repro.campaign', 'repro.lint') if m in sys.modules))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code] + self.TINY + extra,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "accuracy" in done.stdout
        assert done.stdout.rstrip().endswith("LOADED []")

    def test_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for verb in ("run", "serve", "replay", "figure", "list", "presets",
                     "validate", *LAZY_VERBS):
            assert f"\n    {verb} " in out
        for _, help_text in LAZY_VERBS.values():
            assert help_text.split()[0] in out

    def test_lazy_verbs_still_parse_their_own_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "status", "--help"])
        assert exit_info.value.code == 0
        assert "--root" in capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
