"""Tests for ``python -m repro lint`` — the CLI surface and the
repo's own clean-tree gate."""

import json

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
        assert "non-baselined finding" in capsys.readouterr().err

    def test_json_output(self, dirty_tree, capsys):
        assert main(["lint", "--json", str(dirty_tree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"bus-guard", "no-wallclock-in-sim"}
        assert all("fingerprint" in f for f in payload["findings"])

    def test_rule_filter(self, dirty_tree, capsys):
        assert main([
            "lint", "--json", "--rule", "bus-guard", str(dirty_tree)
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"bus-guard"}

    def test_write_baseline_then_check_passes(self, dirty_tree, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "--write-baseline", "--baseline", str(baseline),
            str(dirty_tree),
        ]) == 0
        assert main([
            "lint", "--check", "--baseline", str(baseline), str(dirty_tree),
        ]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "no-wallclock-in-sim", "bus-guard", "atomic-write",
            "event-kind-registry", "slots-on-hotpath", "twin-parity",
            "write-only-state",
        ):
            assert rule_id in out


class TestCleanTreeGate:
    def test_repo_source_is_clean(self, capsys):
        """The committed tree passes its own gate with an empty baseline.

        This is the acceptance criterion of the lint PR and the
        guarantee every later PR inherits: a regression in src/repro
        fails here before it fails in CI.
        """
        assert main(["lint", "--check"]) == 0
        err = capsys.readouterr().err
        assert "0 baselined" in err
