"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import LAZY_VERBS, main
from repro.experiments.config import ExperimentConfig


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


class TestMultiSeed:
    TINY = ["run", "--preset", "paper-default", "--flows", "8",
            "--routers", "8", "--duration", "2.0", "--seed", "3"]

    @pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
    def test_counts_must_be_positive(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.TINY + [flag, "0"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_campaign_workers_print_what_the_loop_prints(self, capsys):
        """``--jobs 2`` runs the seeds as a campaign in worker processes;
        only the wall-time line may differ from the in-process loop."""
        assert main(self.TINY + ["--seeds", "3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out.splitlines()
        assert main(self.TINY + ["--seeds", "3", "--jobs", "2"]) == 0
        workers = capsys.readouterr().out.splitlines()
        assert workers[:-1] == serial[:-1]
        assert serial[-1].endswith("(1 worker)")
        assert workers[-1].endswith("(2 workers)")

    @staticmethod
    def _seed_4_fails(monkeypatch):
        import repro.experiments.cli as cli
        import repro.experiments.runner as runner

        real = runner.run_experiment

        def seed_4_fails(config, **kwargs):
            if config.seed == 4:
                raise RuntimeError("injected fault")
            return real(config, **kwargs)

        monkeypatch.setattr(runner, "run_experiment", seed_4_fails)
        monkeypatch.setattr(cli, "run_experiment", seed_4_fails)

    @pytest.mark.parametrize("jobs", [["--jobs", "1"], []],
                             ids=["jobs-1", "one-cpu"])
    def test_failed_seed_is_named_and_voids_the_table(
        self, jobs, monkeypatch, capsys
    ):
        """The finished seeds still print; the failed one is named on
        stderr, and no interval over the survivors is shown.  One CPU
        and ``--jobs`` unset is one worker: the in-process loop."""
        import repro.campaign.orchestrator as orchestrator

        self._seed_4_fails(monkeypatch)
        monkeypatch.setattr(orchestrator, "default_jobs", lambda: 1)
        assert main(self.TINY + ["--seeds", "3"] + jobs) == 1
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] \
            == ["seed    3", "seed    5"]
        assert "seed 4: RuntimeError: injected fault\n" in captured.err
        assert "Traceback" not in captured.err

    def test_failed_seed_in_a_campaign(self, monkeypatch):
        """The campaign path names a quarantined seed by its last error
        line.  One worker runs the lease-pull loop in this process, where
        the patched simulation reaches it."""
        import repro.experiments.cli as cli

        self._seed_4_fails(monkeypatch)
        config = ExperimentConfig(total_flows=8, n_routers=8, duration=2.0)
        runs, failed, jobs = cli._seeds_as_campaign(config, [3, 4, 5], 1)
        assert [run.config.seed for run in runs] == [3, 5]
        assert failed == [(4, "RuntimeError: injected fault")]
        assert jobs == 1

    def test_failed_seed_in_worker_processes(self, monkeypatch, capsys):
        """A cell that raises in a worker subprocess is retried and
        quarantined, then reported per seed; nothing propagates."""
        import repro.experiments.cli as cli

        bad = ExperimentConfig(
            total_flows=8, n_routers=6, duration=1.4, topology="star",
            topology_args={"warp_factor": 9},
        )
        monkeypatch.setattr(
            cli, "_run_config", lambda args: bad.with_overrides(seed=1)
        )
        assert main(["run", "--seeds", "2", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert "metric" not in captured.out
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("seed ")]
        assert [line.split(":")[0] for line in errors] \
            == ["seed 1", "seed 2"]
        assert all(
            line.split(": ", 1)[1].startswith("TypeError")
            and "warp_factor" in line
            for line in errors
        )


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


class TestFigureScale:
    @pytest.mark.parametrize("scale", ["nan", "0", "-5", "1.5", "inf"])
    def test_a_scale_outside_0_1_is_a_usage_error(self, scale, capsys):
        """Not a traceback from the axis thinning, nor a quietly thinned
        grid: ``0`` and ``-5`` used to run fig3a's 0.01 grid."""
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig3a", "--scale", scale])
        assert exc.value.code == 2
        assert "argument --scale: scale must be in (0, 1]" \
            in capsys.readouterr().err


class TestValidate:
    def test_feasible_default(self, capsys):
        assert main(["validate"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_infeasible_low_rate(self, capsys):
        assert main(["validate", "--rate", "100000"]) == 1
        out = capsys.readouterr().out
        assert "detection-infeasible" in out
        assert "NOT feasible" in out

    def test_checks_a_preset_with_run_s_flags(self, capsys):
        """``validate`` builds its config as ``run`` does: the preset's
        own rate and forced activation, the explicit flags on top."""
        assert main(["validate", "--preset", "low-rate-probe"]) == 0
        assert "attack 250 pps across 20 zombies" in capsys.readouterr().out
        assert main(["validate", "--preset", "low-rate-probe",
                     "--flows", "100", "--rate", "1e6"]) == 0
        assert "attack 5000 pps across 40 zombies" in capsys.readouterr().out


class TestRejectedConfigValues:
    """A flag value the config rejects is a usage error (exit 2) naming
    the field: never a "feasible" verdict, nor a traceback in the build."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["run", "--pd", "5"], "drop_probability"),
            (["run", "--flows", "0"], "total_flows"),
            (["run", "--preset", "pulse-train", "--pd", "-3"], "drop_probability"),
            (["serve", "--pd", "5", "--port", "0"], "drop_probability"),
            (["validate", "--pd", "5"], "drop_probability"),
            (["validate", "--pd", "-3"], "drop_probability"),
            (["validate", "--flows", "0"], "total_flows"),
            (["run", "--preset", "nope"], "unknown preset 'nope'"),
        ],
    )
    def test_exits_2_naming_the_field(self, argv, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"repro {argv[0]}: error: {name}" in captured.err
        assert "serving on" not in captured.out

    def test_pd_replaces_only_the_drop_probability(self):
        from repro.experiments.cli import _build_parser, _run_config
        from repro.experiments.presets import get_preset

        args = _build_parser("run").parse_args(
            ["run", "--preset", "pulse-train", "--pd", "0.7"]
        )
        config = _run_config(args)
        preset = get_preset("pulse-train")
        assert config.mafic.drop_probability == 0.7
        assert config.mafic.renotice_interval == preset.mafic.renotice_interval
        assert config.with_overrides(
            mafic=preset.mafic, seed=preset.seed
        ) == preset


#: Each config flag, a value for it, the field it sets and the value
#: that lands there (none of them the default).
CONFIG_FLAG_CASES = [
    ("--flows", "12", "total_flows", 12),
    ("--pd", "0.7", "mafic.drop_probability", 0.7),
    ("--tcp", "0.5", "tcp_fraction", 0.5),
    ("--routers", "9", "n_routers", 9),
    ("--rate", "5e5", "rate_bps", 5e5),
    ("--duration", "3.5", "duration", 3.5),
    ("--seed", "7", "seed", 7),
    ("--topology", "star", "topology", "star"),
    ("--workload", "web_mice", "workload", "web_mice"),
    ("--attack", "pulsing", "attack", "pulsing"),
    ("--defense", "none", "defense", "none"),
]


@pytest.mark.parametrize("verb", ["run", "serve", "validate"])
def test_the_config_verbs_share_every_config_flag(verb):
    """``run``, ``serve`` and ``validate`` take one set of config flags,
    and each lands on its own field, nested ones included."""
    import argparse
    from operator import attrgetter

    from repro.experiments.cli import _build_parser, _run_config

    parser = _build_parser(verb)
    verb_parser = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices[verb]
    flags = {flag for action in verb_parser._actions
             for flag in action.option_strings}
    assert {case[0] for case in CONFIG_FLAG_CASES} <= flags
    default = ExperimentConfig()
    for flag, text, field, value in CONFIG_FLAG_CASES:
        config = _run_config(parser.parse_args([verb, flag, text]))
        assert attrgetter(field)(default) != value
        assert attrgetter(field)(config) == value, flag
        top = field.split(".")[0]  # and nothing else moved
        assert config.with_overrides(**{top: getattr(default, top)}) \
            == default, flag


@pytest.mark.parametrize("verb", ["run", "serve", "validate"])
def test_a_rejected_rate_is_a_usage_error_on_every_config_verb(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--rate", "0", "--port", "0"] if verb == "serve"
             else [verb, "--rate", "0"])
    assert exc.value.code == 2
    assert f"repro {verb}: error: rate_bps" in capsys.readouterr().err


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
    """What a plain ``run`` imports: the routed domain is built, run and
    its CI table computed with the stdlib alone (no numpy), the config
    hashed without OpenSSL (no ``_hashlib``), and neither other verbs'
    packages nor a process pool are loaded."""

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
            "print('LOADED', sorted(m for m in ('numpy', 'networkx', 'scipy',\n"
            "      'multiprocessing', 'concurrent.futures', '_hashlib',\n"
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

    def test_campaign_worker_import_loads_no_numpy(self):
        # What each campaign worker process pays before its first cell.
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys, repro.campaign.worker\n"
             "print('LOADED', 'numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.rstrip() == "LOADED False"

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
