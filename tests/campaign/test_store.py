"""Tests for repro.campaign.store: artifacts, atomicity, the sharded
sidecar layout, and the refusal of every other layout."""

import json
import re
import threading
from functools import partial
from pathlib import Path

import pytest

from repro.campaign.orchestrator import open_store
from repro.campaign.store import CampaignStore, StoreError
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig

from tests.campaign.conftest import fabricate_result, tiny_spec


@pytest.fixture
def store(tmp_path) -> CampaignStore:
    return CampaignStore(tmp_path / "camp").ensure()


def config_for(seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(total_flows=8, n_routers=6, duration=1.4, seed=seed)


class TestArtifacts:
    def test_write_read_round_trip(self, store):
        config = config_for()
        result = fabricate_result(config)
        path = store.write_result(result, point={"attack_fraction": 0.4})
        assert path.name == f"{config.config_hash()}.json"

        run = store.read_run(config.config_hash())
        assert run.config == config
        assert run.summary == result.summary
        assert run.point == {"attack_fraction": 0.4}
        assert run.identified_atrs == {"ingress0"}
        assert run.true_atrs == {"ingress0", "ingress1"}
        assert run.events_executed == result.events_executed
        assert run.series.times == result.series.times
        assert run.series.total_kbps == result.series.total_kbps
        assert run.wall_seconds == result.wall_seconds
        assert run.seed == config.seed

    def test_has_and_run_ids(self, store):
        assert store.run_ids() == set()
        config = config_for()
        assert not store.has(config.config_hash())
        store.write_result(fabricate_result(config))
        assert store.has(config.config_hash())
        assert store.run_ids() == {config.config_hash()}

    def test_iter_runs_sorted_by_id(self, store):
        ids = []
        for seed in (3, 1, 2):
            config = config_for(seed)
            store.write_result(fabricate_result(config))
            ids.append(config.config_hash())
        assert [run.run_id for run in store.iter_runs()] == sorted(ids)

    def test_rewrite_is_idempotent_and_atomic(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        first = store.run_path(config.config_hash()).read_text()
        store.write_result(fabricate_result(config))
        assert store.run_path(config.config_hash()).read_text() == first
        assert not list(store.runs_dir.glob("*.tmp"))

    def test_deterministic_fields_exclude_timing(self, store):
        """Two runs differing only in wall clock file identical artifacts
        outside the quarantined 'timing' key."""
        config = config_for()
        result = fabricate_result(config)
        store.write_result(result)
        a = json.loads(store.run_path(config.config_hash()).read_text())

        slower = fabricate_result(config)
        slower.wall_seconds = 99.9
        store.write_result(slower)
        b = json.loads(store.run_path(config.config_hash()).read_text())

        assert a["timing"] != b["timing"]
        del a["timing"], b["timing"]
        assert a == b


class TestCorruption:
    def test_missing_artifact_raises(self, store):
        with pytest.raises(StoreError, match="no artifact"):
            store.read_run("deadbeefdeadbeef")

    def test_corrupt_json_raises(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        store.run_path(config.config_hash()).write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            store.read_run(config.config_hash())

    def test_tampered_config_detected(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        path = store.run_path(config.config_hash())
        payload = json.loads(path.read_text())
        payload["config"]["seed"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="hash"):
            store.read_run(config.config_hash())

    def test_wrong_schema_rejected(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        path = store.run_path(config.config_hash())
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema"):
            store.read_run(config.config_hash())


class TestManifest:
    def test_manifest_round_trip(self, store):
        spec_dict = {"name": "x", "seeds": [1], "axes": []}
        store.write_manifest(spec_dict)
        assert store.read_manifest() == spec_dict

    def test_pin_survives_manifest_resnapshot(self, store):
        """Regression: write_manifest(spec) with the default width used
        to drop a previously pinned series_bin_width, un-pinning the
        store and letting a later writer file mixed-resolution series."""
        store.pin_series_bin_width(0.05)
        store.write_manifest({"name": "x", "seeds": [1, 2], "axes": []})
        assert store.series_bin_width() == 0.05
        # The pin still arbitrates writers after the re-snapshot.
        with pytest.raises(StoreError, match="bin width"):
            store.pin_series_bin_width(0.2)
        # An explicit matching width round-trips as before.
        store.write_manifest({"name": "x"}, series_bin_width=0.05)
        assert store.series_bin_width() == 0.05


class TestSchema2Layout:
    def test_artifacts_shard_by_hash_prefix_with_sidecars(self, store):
        config = config_for()
        run_id = config.config_hash()
        path = store.write_result(fabricate_result(config))
        assert path == store.runs_dir / run_id[:2] / f"{run_id}.json"
        payload = json.loads(path.read_text())
        assert "series" not in payload  # summary doc stays small
        sidecar = store.series_path(path)
        side_payload = json.loads(sidecar.read_text())
        assert side_payload["run_id"] == run_id
        assert side_payload["series"]["times"] == [0.5, 1.5]
        assert store.run_ids() == {run_id}  # sidecar doesn't count

    def test_summary_only_reads_never_open_the_sidecar(
        self, store, monkeypatch
    ):
        for seed in (1, 2):
            store.write_result(fabricate_result(config_for(seed)))

        def boom(self, run_path, run_id):
            raise AssertionError(f"sidecar opened for {run_id}")

        monkeypatch.setattr(CampaignStore, "_read_series_payload", boom)
        run = store.read_run(config_for().config_hash(), load_series=False)
        assert run.series.times == []
        assert len(list(store.iter_runs(load_series=False))) == 2

    def test_missing_sidecar_fails_series_reads_only(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        store.series_path(store.run_path(config.config_hash())).unlink()
        with pytest.raises(StoreError, match="sidecar"):
            store.read_run(config.config_hash())
        run = store.read_run(config.config_hash(), load_series=False)
        assert run.summary == fabricate_result(config).summary

    def test_mismatched_sidecar_rejected(self, store):
        a, b = config_for(1), config_for(2)
        store.write_result(fabricate_result(a))
        store.write_result(fabricate_result(b))
        path_a = store.run_path(a.config_hash())
        store.series_path(path_a).write_text(
            store.series_path(store.run_path(b.config_hash())).read_text()
        )
        with pytest.raises(StoreError, match="belongs to"):
            store.read_run(a.config_hash())


RUN_ID = "0123456789abcdef"
SERIES = '"series": {"times": [], "total_kbps": [], "attack_kbps": [], ' \
    '"legit_kbps": []}'


class TestOneLayout:
    """Schema 2 is the only layout: anything else is refused by name."""

    @pytest.mark.parametrize(
        "schema_field, found",
        [('"schema": 1, ', "1"), ('"schema": 3, ', "3"), ("", "None")],
        ids=["schema-1", "schema-3", "no-schema"],
    )
    @pytest.mark.parametrize("kind", ["manifest", "artifact", "sidecar"])
    def test_other_schema_raises_with_path_and_schema(
        self, store, kind, schema_field, found
    ):
        if kind == "manifest":
            path = store.manifest_path
            path.write_text('{%s"spec": {"name": "x"}}' % schema_field)
            read = store.read_manifest
        elif kind == "artifact":
            path = store.run_path(RUN_ID)
            path.parent.mkdir()
            path.write_text('{%s"run_id": "%s"}' % (schema_field, RUN_ID))
            read = partial(store.read_run, RUN_ID)
        else:
            config = config_for()
            store.write_result(fabricate_result(config))
            path = store.series_path(store.run_path(config.config_hash()))
            path.write_text(
                '{%s"run_id": "%s", %s}'
                % (schema_field, config.config_hash(), SERIES)
            )
            read = partial(store.read_run, config.config_hash())
        with pytest.raises(StoreError) as excinfo:
            read()
        message = str(excinfo.value)
        assert str(path) in message
        assert f"schema {found};" in message
        assert "46de839" in message  # where an old store can still go

    def test_flat_artifact_fails_every_verb_and_touches_nothing(
        self, tmp_path, capsys
    ):
        """A pre-shard ``runs/<id>.json`` is neither served nor
        invisible: every store scan stops on it, before any cell runs
        or any file goes."""
        spec = tiny_spec(name="stray")
        store = open_store(spec, tmp_path).ensure()
        store.write_manifest(spec.to_dict(), series_bin_width=0.05)
        for planned in spec.plan():
            store.write_result(
                fabricate_result(planned.config), series_bin_width=0.05
            )
        # One cell's artifact sits where schema 1 filed it: served at
        # the parent commit, re-executed unseen by a naive deletion.
        victim = spec.plan()[0].run_id
        flat = store.runs_dir / f"{victim}.json"
        store.run_path(victim).rename(flat)
        spec_file = tmp_path / "stray.json"
        spec_file.write_text(json.dumps(spec.to_dict()))

        def files():
            return {
                p: p.read_bytes()
                for p in store.directory.rglob("*") if p.is_file()
            }

        before = files()
        with pytest.raises(StoreError, match=re.escape(str(flat))):
            store.run_ids()
        for argv in (
            ["status"], ["resume", "--jobs", "1"], ["resume", "--jobs", "2"],
            ["report"], ["gc"], ["gc", "--apply"],
        ):
            code = main(["campaign", argv[0], str(spec_file),
                         "--root", str(tmp_path), *argv[1:]])
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.count("\n") == 1 and err.startswith("error: "), err
            assert str(flat) in err
            assert files() == before, argv

    def test_run_path_is_pure(self, tmp_path, monkeypatch):
        def touched(self, *args, **kwargs):
            raise AssertionError(f"filesystem call on {self}")

        store = CampaignStore(tmp_path / "never-created")
        with monkeypatch.context() as patch:  # undone before any report
            for name in ("stat", "is_file", "exists", "is_dir"):
                patch.setattr(Path, name, touched)
            path = store.run_path(RUN_ID)
        assert path == store.runs_dir / "01" / f"{RUN_ID}.json"
        assert not store.directory.exists()


class TestAtomicWrites:
    def test_concurrent_writers_never_tear_an_artifact(self, store):
        """Regression: the fixed '<path>.json.tmp' temp name let two
        concurrent writers of the same run_id interleave into one temp
        file and os.replace a torn artifact into place.  With unique
        mkstemp names, every rename lands a whole document."""
        config = config_for()
        run_id = config.config_hash()
        errors: list[Exception] = []
        stop = threading.Event()

        def writer(wall: float) -> None:
            result = fabricate_result(config)
            result.wall_seconds = wall  # quarantined; differs per writer
            try:
                for _ in range(30):
                    store.write_result(result, series_bin_width=0.05)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        def reader() -> None:
            while not stop.is_set():
                if not store.has(run_id):
                    continue
                try:
                    store.read_run(run_id)
                except StoreError as exc:
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=writer, args=(float(k),))
            for k in range(4)
        ] + [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads[:-1]:
            t.join()
        stop.set()
        threads[-1].join()

        assert errors == []
        run = store.read_run(run_id)  # final state is whole and valid
        assert run.summary == fabricate_result(config).summary
        assert not list(store.runs_dir.glob("**/*.tmp"))


class TestStoreCache:
    def test_read_run_without_series(self, store):
        config = config_for()
        store.write_result(fabricate_result(config))
        run = store.read_run(config.config_hash(), load_series=False)
        assert run.series.times == []
        assert run.summary == fabricate_result(config).summary


class TestAtomicWriteHelpers:
    """Regression tests for the module-level atomic write helpers the
    `atomic-write` lint rule routes campaign code through."""

    def test_atomic_write_text_content_and_no_temp_litter(self, tmp_path):
        from repro.campaign.store import atomic_write_text

        target = tmp_path / "figures" / "fig4.txt"
        atomic_write_text(target, "alpha beta\n")
        assert target.read_text(encoding="utf-8") == "alpha beta\n"
        # mkstemp siblings must be renamed or unlinked, never left.
        assert sorted(p.name for p in target.parent.iterdir()) == ["fig4.txt"]

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        from repro.campaign.store import atomic_write_text

        target = tmp_path / "out.txt"
        atomic_write_text(target, "long old contents that must vanish\n")
        atomic_write_text(target, "new\n")
        assert target.read_text(encoding="utf-8") == "new\n"

    def test_figures_txt_goes_through_atomic_helper(self):
        """The `campaign figures` .txt writer (the violation this PR
        fixed) now routes through atomic_write_text."""
        import ast
        import inspect

        from repro.campaign import cli as campaign_cli

        src = inspect.getsource(campaign_cli._cmd_figures)
        tree = ast.parse(src.lstrip())
        calls = {
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", "")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "atomic_write_text" in calls
        assert "write_text" not in calls
