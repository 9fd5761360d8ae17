"""Gzip series sidecars: flag-directed writes, magic-byte reads.

The contract: ``compress_series`` in the manifest only changes how new
sidecars are *written*.  Reading always sniffs the gzip magic bytes —
never the suffix — so mixed stores (the flag flipped mid-campaign),
renamed files, and cross-compression diffs all behave.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.diff import diff_stores
from repro.campaign.orchestrator import open_store
from repro.campaign.store import (
    SERIES_GZ_SUFFIX,
    SERIES_SUFFIX,
    CampaignStore,
    StoreError,
)

from tests.campaign.conftest import fabricate_result


def _fill(spec, root, compress: bool) -> CampaignStore:
    store = open_store(spec, root).ensure()
    store.pin_series_bin_width(0.05)
    store.write_manifest(
        spec.to_dict(), series_bin_width=0.05, compress_series=compress
    )
    for planned in spec.plan():
        store.write_result(
            fabricate_result(planned.config),
            point=planned.point, series_bin_width=0.05,
        )
    return store


class TestWrites:
    def test_flag_directs_sidecars_to_gz(self, tmp_path, spec):
        store = _fill(spec, tmp_path, compress=True)
        planned = spec.plan()[0]
        run_path = store.run_path(planned.run_id)
        gz = run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX)
        plain = run_path.with_name(run_path.stem + SERIES_SUFFIX)
        assert gz.is_file() and not plain.exists()
        assert gz.read_bytes()[:2] == b"\x1f\x8b"

    def test_default_is_plain_json(self, tmp_path, spec):
        store = _fill(spec, tmp_path, compress=False)
        planned = spec.plan()[0]
        run_path = store.run_path(planned.run_id)
        plain = run_path.with_name(run_path.stem + SERIES_SUFFIX)
        assert plain.is_file()
        json.loads(plain.read_text(encoding="utf-8"))  # genuinely plain

    def test_flag_persists_in_manifest(self, tmp_path, spec):
        _fill(spec, tmp_path, compress=True)
        reopened = open_store(spec, tmp_path)
        assert reopened.compress_series() is True

    def test_rewriting_manifest_preserves_flag_by_default(
        self, tmp_path, spec
    ):
        store = _fill(spec, tmp_path, compress=True)
        store.write_manifest(spec.to_dict(), series_bin_width=0.05)
        assert open_store(spec, tmp_path).compress_series() is True

    def test_gz_bytes_are_deterministic(self, tmp_path, spec):
        """Same result twice -> byte-identical sidecars (mtime=0 in the
        gzip header), which is what lets ``campaign diff`` and the CI
        chaos job byte-compare compressed stores."""
        planned = spec.plan()[0]
        a = _fill(spec, tmp_path / "a", compress=True)
        b = _fill(spec, tmp_path / "b", compress=True)
        run_path = a.run_path(planned.run_id)
        gz_name = run_path.stem + SERIES_GZ_SUFFIX
        bytes_a = run_path.with_name(gz_name).read_bytes()
        bytes_b = b.run_path(planned.run_id).with_name(gz_name).read_bytes()
        assert bytes_a == bytes_b


class TestReads:
    def test_compressed_run_round_trips(self, tmp_path, spec):
        store = _fill(spec, tmp_path, compress=True)
        planned = spec.plan()[0]
        expected = fabricate_result(planned.config)
        run = store.read_run(planned.run_id)
        assert run.series.times == expected.series.times
        assert run.series.legit_kbps == expected.series.legit_kbps

    def test_renamed_sidecar_still_reads(self, tmp_path, spec):
        """Sniffing means a gz sidecar that lost its ``.gz`` name (say,
        via a copy tool) still reads correctly."""
        store = _fill(spec, tmp_path, compress=True)
        planned = spec.plan()[0]
        run_path = store.run_path(planned.run_id)
        gz = run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX)
        plain = run_path.with_name(run_path.stem + SERIES_SUFFIX)
        gz.rename(plain)
        run = store.read_run(planned.run_id)
        assert run.series.times == fabricate_result(
            planned.config
        ).series.times

    def test_plain_sidecar_readable_after_flag_flips_on(
        self, tmp_path, spec
    ):
        """Migrating a store to compression must not orphan the plain
        sidecars already on disk."""
        store = _fill(spec, tmp_path, compress=False)
        store.write_manifest(
            spec.to_dict(), series_bin_width=0.05, compress_series=True
        )
        planned = spec.plan()[0]
        run = store.read_run(planned.run_id)
        assert run.series.times == fabricate_result(
            planned.config
        ).series.times

    def test_corrupt_gz_raises_cleanly(self, tmp_path, spec):
        store = _fill(spec, tmp_path, compress=True)
        planned = spec.plan()[0]
        run_path = store.run_path(planned.run_id)
        gz = run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX)
        gz.write_bytes(b"\x1f\x8b" + b"\x00" * 8)  # magic, then garbage
        with pytest.raises(StoreError, match="corrupt sidecar"):
            store.read_run(planned.run_id)


class TestCrossCompression:
    def test_diff_is_clean_across_compression_settings(self, tmp_path, spec):
        """The same campaign stored plain and gz diffs identical — the
        series bytes differ but the decoded artifacts do not."""
        _fill(spec, tmp_path / "plain", compress=False)
        _fill(spec, tmp_path / "gz", compress=True)
        result = diff_stores(
            open_store(spec, tmp_path / "plain").directory,
            open_store(spec, tmp_path / "gz").directory,
        )
        assert result.identical, (
            result.missing_in_a, result.missing_in_b, result.differing
        )

    def test_gc_collects_orphan_gz_sidecars(self, tmp_path, spec):
        store = _fill(spec, tmp_path, compress=True)
        victim = spec.plan()[0]
        store.run_path(victim.run_id).unlink()
        planned_ids = {run.run_id for run in spec.plan()}
        # A negative debris age pushes the cutoff into the future so the
        # just-written orphan counts as settled.
        report = store.gc(
            planned_ids, apply=True, min_debris_age_seconds=-5.0
        )
        run_path = store.run_path(victim.run_id)
        gz = run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX)
        assert gz in report.orphan_sidecars
        assert not gz.exists()
