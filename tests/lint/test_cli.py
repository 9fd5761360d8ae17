"""Tests for ``python -m repro lint`` — the CLI surface, its usage
errors, and the repo's own clean-tree gate."""

import pytest

from repro.experiments.cli import main


@pytest.fixture()
def dirty_tree(tmp_path):
    """A synthetic tree with one wallclock and one bus-guard violation."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import time\n"
        "\n"
        "def stamp(bus, ev):\n"
        "    bus.emit(ev)\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    return tmp_path


class TestLintCommand:
    def test_report_mode_exits_zero(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 0
        out = capsys.readouterr().out
        assert "[bus-guard]" in out and "[no-wallclock-in-sim]" in out

    def test_check_mode_fails_on_findings(self, dirty_tree, capsys):
        assert main(["lint", "--check", str(dirty_tree)]) == 1
        err = capsys.readouterr().err
        assert "1 file(s): 2 finding(s)" in err
        assert "lint --check: 2 finding(s)" in err

    def test_rule_filter(self, dirty_tree, capsys):
        assert main(["lint", "--rule", "bus-guard", str(dirty_tree)]) == 0
        out = capsys.readouterr().out
        assert "[bus-guard]" in out and "[no-wallclock-in-sim]" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "no-wallclock-in-sim", "bus-guard", "atomic-write",
            "event-kind-registry", "slots-on-hotpath", "twin-parity",
            "write-only-state",
        ):
            assert rule_id in out


class TestUsageErrors:
    """A typo exits 2 naming the culprit, never a traceback, a finding
    or a pass over nothing."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--check", *argv])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        err = self._usage_error([missing], capsys)
        assert f"no such file or directory: {missing}" in err

    def test_unknown_rule(self, dirty_tree, capsys):
        err = self._usage_error(["--rule", "nope", str(dirty_tree)], capsys)
        assert "invalid choice: 'nope'" in err

    @pytest.mark.parametrize("target", [".", "notes.txt"])
    def test_path_with_no_python_file(self, target, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
        path = tmp_path / target
        err = self._usage_error([str(path)], capsys)
        assert f"no Python file under {path}" in err

    @pytest.mark.parametrize("flags", [
        ["--json"], ["--baseline"], ["--write-baseline", "--baseline"],
    ], ids=lambda flags: flags[0])
    def test_removed_modes(self, flags, dirty_tree, capsys):
        bad = dirty_tree / "repro" / "sim" / "bad.py"
        err = self._usage_error([*flags, str(bad)], capsys)
        assert f"unrecognized arguments: {flags[0]}" in err


class TestCleanTreeGate:
    def test_repo_source_is_clean(self, capsys):
        """The committed tree passes its own gate: no finding at all.

        This is the acceptance criterion of the lint PR and the
        guarantee every later PR inherits: a regression in src/repro
        fails here before it fails in CI.
        """
        assert main(["lint", "--check"]) == 0
        err = capsys.readouterr().err
        assert err.rstrip().endswith("file(s): 0 finding(s)")
