"""Tests for ``python -m repro campaign ...`` through the real CLI main."""

import json
import os

import pytest

from repro.experiments.cli import main

SPEC_TOML = """\
name = "cli-tiny"
seeds = [1]

[base]
total_flows = 8
n_routers = 6
duration = 1.4
attack_start = 1.05
topology = "star"

[[axes]]
field = "attack_fraction"
values = [0.5]
"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML)
    return path


def test_status_incomplete_exits_nonzero(tmp_path, spec_path, capsys):
    code = main(
        ["campaign", "status", str(spec_path), "--root", str(tmp_path / "s")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "0/1 runs complete" in out
    assert "missing" in out


def test_run_then_status_and_report(tmp_path, spec_path, capsys):
    root = str(tmp_path / "s")
    assert main(["campaign", "run", str(spec_path), "--root", root,
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 planned, 0 cached, 1 executed" in out

    assert main(["campaign", "status", str(spec_path), "--root", root]) == 0

    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    assert main(["campaign", "report", str(spec_path), "--root", root,
                 "--json", str(json_out), "--csv", str(csv_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert payload["campaign"] == "cli-tiny"
    assert payload["complete"] == 1
    assert csv_out.read_text().splitlines()[0].startswith("attack_fraction")

    # Re-run: everything cached.
    assert main(["campaign", "run", str(spec_path), "--root", root,
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 cached, 0 executed" in out


def test_resume_requires_existing_store(tmp_path, spec_path, capsys):
    code = main(
        ["campaign", "resume", str(spec_path), "--root", str(tmp_path / "no")]
    )
    assert code == 2
    assert "no store" in capsys.readouterr().err


def test_report_without_runs_fails(tmp_path, spec_path, capsys):
    code = main(
        ["campaign", "report", str(spec_path), "--root", str(tmp_path / "no")]
    )
    assert code == 1
    assert "no completed runs" in capsys.readouterr().err


def test_corrupt_artifact_reports_cleanly(tmp_path, spec_path, capsys):
    """A torn/hand-edited artifact gets the 'error:' contract, not a
    traceback."""
    root = str(tmp_path / "s")
    assert main(["campaign", "run", str(spec_path), "--root", root,
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    runs_dir = tmp_path / "s" / "cli-tiny" / "runs"
    artifact = next(
        p for p in runs_dir.glob("*/*.json")
        if not p.name.endswith(".series.json")
    )
    artifact.write_text("{torn")
    code = main(["campaign", "report", str(spec_path), "--root", root])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_broken_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('name = "x"\nseeds = []\n')
    assert main(["campaign", "run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_scalar_seeds_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "seeds": 5}')
    assert main(["campaign", "run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_component_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        'name = "x"\nseeds = [1]\n\n[base]\ntopology = "moebius"\n'
    )
    code = main(["campaign", "status", str(bad),
                 "--root", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "moebius" in err


def test_failing_cell_is_quarantined_and_exits_1(tmp_path, capsys):
    """One failure behaviour at every --jobs: a cell that raises at run
    time (a kwarg its builder rejects) goes to the failure ledger with
    its traceback, is retried, quarantined after --max-attempts, and
    the command exits 1 with the error on stderr."""
    from repro.campaign.store import CampaignStore

    bad = tmp_path / "badarg.toml"
    bad.write_text(
        'name = "x"\nseeds = [1]\n\n[base]\ntotal_flows = 8\n'
        'n_routers = 6\nduration = 1.4\ntopology = "star"\n\n'
        '[[axes]]\nfield = "topology_args.warp_factor"\nvalues = [9]\n'
    )
    code = main(["campaign", "run", str(bad), "--root", str(tmp_path / "s"),
                 "--jobs", "1", "--max-attempts", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert "warp_factor" in captured.err
    assert "quarantined" in captured.err
    assert "-> incomplete" in captured.out
    (record,) = CampaignStore(tmp_path / "s" / "x").iter_failures()
    assert record.quarantined and record.attempts == 2
    assert "warp_factor" in record.error
    assert "Traceback" in record.traceback


@pytest.mark.parametrize("verb", ["run", "resume"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_must_be_positive(tmp_path, spec_path, capsys, verb, jobs):
    """Like ``run --jobs`` and ``serve --jobs``: refused by argparse, so
    the error names the flag and nothing is planned or written."""
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", verb, str(spec_path), "--root",
              str(tmp_path / "s"), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "argument --jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_run_help_states_the_failure_behaviour(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "run", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "failure ledger" in text and "exits 1" in text
    assert "--distributed" not in text and "--wave" not in text


def test_record_at_jobs_1_writes_one_whole_recording(
    tmp_path, spec_path, capsys
):
    """The in-process worker must not close the CLI's recorder under it:
    every event of the run is in the file, which is one gzip member."""
    import gzip

    from repro.obs.recorder import open_recording

    recording = tmp_path / "run.jsonl.gz"
    assert main(["campaign", "run", str(spec_path), "--jobs", "1",
                 "--root", str(tmp_path / "s"),
                 "--record", str(recording)]) == 0
    assert "recorded 3 events" in capsys.readouterr().out
    kinds = [event.kind for event in open_recording(str(recording)).events()]
    assert kinds == ["worker.started", "campaign.run", "campaign.progress"]
    raw = recording.read_bytes()
    assert gzip.decompress(raw).count(b'"schema"') == 1
    assert raw.count(b"\x1f\x8b\x08") == 1


def test_figures_verb_writes_figure_files(tmp_path, spec_path, capsys):
    root = str(tmp_path / "s")
    assert main(["campaign", "run", str(spec_path), "--root", root,
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["campaign", "figures", str(spec_path), "--root", root]) == 0
    out = capsys.readouterr().out
    assert "wrote 5 figures" in out
    fig_dir = tmp_path / "s" / "cli-tiny" / "figures"
    for suffix in (".txt", ".csv", ".json"):
        assert (fig_dir / f"attack_fraction--accuracy{suffix}").is_file()
    payload = json.loads(
        (fig_dir / "attack_fraction--accuracy.json").read_text()
    )
    assert payload["x_label"] == "attack_fraction"
    # --out redirects.
    alt = tmp_path / "alt-figs"
    assert main(["campaign", "figures", str(spec_path), "--root", root,
                 "--out", str(alt)]) == 0
    assert (alt / "attack_fraction--accuracy.csv").is_file()


def test_figures_verb_without_runs_exits_1(tmp_path, spec_path, capsys):
    code = main(["campaign", "figures", str(spec_path),
                 "--root", str(tmp_path / "no")])
    assert code == 1
    assert "no figures" in capsys.readouterr().err


def test_gc_verb_dry_run_then_apply(tmp_path, spec_path, capsys):
    root = str(tmp_path / "s")
    assert main(["campaign", "run", str(spec_path), "--root", root,
                 "--jobs", "1"]) == 0
    junk = tmp_path / "s" / "cli-tiny" / "runs" / "junk.json.x1.tmp"
    junk.write_text("half-written")
    os.utime(junk, (0, 0))  # age it past gc's live-writer guard
    capsys.readouterr()

    assert main(["campaign", "gc", str(spec_path), "--root", root]) == 0
    out = capsys.readouterr().out
    assert "dry run" in out and "would delete" in out
    assert junk.exists()  # dry run is the default

    assert main(["campaign", "gc", str(spec_path), "--root", root,
                 "--apply"]) == 0
    out = capsys.readouterr().out
    assert "deleted 1 files" in out
    assert not junk.exists()
    # The planned artifact survived and the campaign still reports.
    assert main(["campaign", "status", str(spec_path), "--root", root]) == 0


def test_gc_verb_without_store_exits_2(tmp_path, spec_path, capsys):
    code = main(["campaign", "gc", str(spec_path),
                 "--root", str(tmp_path / "no")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_migrate_is_not_a_verb(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "migrate", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "invalid choice: 'migrate'" in capsys.readouterr().err


class TestWorkersWatch:
    """`campaign workers` one-shot and `--watch` live-refresh modes."""

    def _run_campaign(self, spec_path, root):
        assert main([
            "campaign", "run", str(spec_path), "--root", root,
        ]) == 0

    def test_workers_one_shot(self, tmp_path, spec_path, capsys):
        root = str(tmp_path / "store")
        self._run_campaign(spec_path, root)
        assert main([
            "campaign", "workers", str(spec_path), "--root", root,
        ]) == 0
        out = capsys.readouterr().out
        assert "leases" in out and "failure ledger" in out

    def test_watch_refreshes_until_interrupt(
        self, tmp_path, spec_path, capsys, monkeypatch
    ):
        import time as time_module

        root = str(tmp_path / "store")
        self._run_campaign(spec_path, root)

        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 3:
                raise KeyboardInterrupt
        monkeypatch.setattr(time_module, "sleep", fake_sleep)

        code = main([
            "campaign", "workers", str(spec_path), "--root", root,
            "--watch", "--interval", "0.5",
        ])
        assert code == 0  # Ctrl-C is a clean exit for a watch view
        assert sleeps == [0.5, 0.5, 0.5]
        out = capsys.readouterr().out
        # Three frames rendered, each behind an ANSI clear.
        assert out.count("\x1b[2J") == 3
        assert out.count("failure ledger") == 3
        assert "watching every 0.5s" in out

    def test_watch_requires_existing_store(self, tmp_path, spec_path, capsys):
        code = main([
            "campaign", "workers", str(spec_path),
            "--root", str(tmp_path / "missing"), "--watch",
        ])
        assert code == 2
        assert "no store" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--lease-ttl", "-1"],
    ["run", "--lease-ttl", "0"],
    ["run", "--lease-ttl", "nan"],
    ["run", "--max-attempts", "0"],
    ["run", "--cell-timeout", "-1"],
    ["resume", "--max-attempts", "-2"],
    ["workers", "--watch", "--interval", "0"],
    ["workers", "--watch", "--interval", "-0.5"],
])
def test_hostile_numbers_are_usage_errors_naming_the_flag(
    tmp_path, spec_path, argv, capsys
):
    """Refused at parse time: nothing runs, nothing is written, and the
    watch view never spins without a sleep."""
    root = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main(["campaign", argv[0], str(spec_path), "--root", str(root),
              *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("argv", [
    ["--lease-ttl", "-1"],
    ["--lease-ttl", "nan"],
    ["--cell-timeout", "-5"],
    ["--cell-timeout", "0"],
    ["--max-attempts", "0"],
    ["--max-cells", "0"],
    ["--max-cells", "-3"],
])
def test_the_worker_refuses_hostile_numbers_like_campaign_run(
    tmp_path, argv, capsys
):
    """``python -m repro.campaign.worker`` parses its numbers with the
    types ``campaign run`` uses: a usage error naming the flag, before
    the store is touched."""
    from repro.campaign.worker import main as worker_main

    store = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        worker_main([str(store), *argv])
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err
    assert not store.exists()
