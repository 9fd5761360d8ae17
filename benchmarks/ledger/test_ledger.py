"""Self-test of the perf ledger: invariants only, never wall time.

    python -m pytest benchmarks/ledger

(from the repo root, so that pyproject's ``pythonpath = ["src"]`` holds;
outside tier-1's ``testpaths`` on purpose: it runs every workload once at
tiny scale, about a minute).
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import ledgerstats  # noqa: E402
import run as ledger  # noqa: E402
import schema  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_PY = os.path.join(HERE, "run.py")


def run_py(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN_PY, *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=600)


# --------------------------------------------------------------------------
# BENCHMARK.json is the schema, and the schema is well-formed


def test_benchmark_json_is_the_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == schema.benchmark_json()


def test_names_units_and_limits():
    declared = schema.benchmark_json()
    assert declared["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in declared["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    # Every metric names workloads that exist; every layer has its rows.
    for metric in schema.END_TO_END + schema.PER_LAYER:
        assert set(metric.workloads) <= set(schema.WORKLOADS), metric.name
    for layer in schema.LAYERS:
        assert f"layer.{layer}.self_s" in schema.BY_NAME
        assert f"layer.{layer}.calls" in schema.BY_NAME


# --------------------------------------------------------------------------
# Every declared metric is emitted, by --check and by the driver's form


@pytest.fixture(scope="module")
def checked(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "check.json"
    done = run_py("--check", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:]
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def test_check_emits_every_declared_metric(checked):
    assert list(checked["workloads"]) == list(schema.WORKLOADS)
    for name, out in checked["workloads"].items():
        assert out["failed"] == 0 and out["ops"] >= 1, (name, out["failures"])
        for section, metrics in (("end_to_end", schema.END_TO_END),
                                 ("per_layer", schema.PER_LAYER)):
            rows = out[section]
            declared = schema.declared_on(metrics, name)
            assert set(rows) <= {m.name for m in declared}
            for metric in declared:
                if metric.optional and metric.name not in rows:
                    continue
                row = rows[metric.name]
                assert row["unit"] == metric.unit, metric.name
                for field in ("value", "q1", "q3"):
                    assert math.isfinite(row.get(field, 0.0)), (name, metric.name)


def test_check_separates_the_layers(checked):
    """The separations the workloads exist for hold even at tiny scale."""
    def share(workload, *layer_names):
        rows = checked["workloads"][workload]["per_layer"]
        total = sum(rows[f"layer.{layer}.self_s"]["value"]
                    for layer in schema.LAYERS)
        return sum(rows[f"layer.{layer}.self_s"]["value"]
                   for layer in layer_names) / total

    # Not exactly 0: building any scenario makes two calls into core.
    assert share("bare_forward", "core") < 1e-4
    assert share("table2_seeds", "core") > 0.0
    assert share("table2_seeds", "obs", "ext.json_gzip") < 0.05
    assert share("observed_run", "obs", "ext.json_gzip") > 0.15
    assert share("campaign_cells", "campaign.spec", "campaign.store",
                 "campaign.worker") > share(
        "table2_seeds", "campaign.spec", "campaign.store", "campaign.worker")


@pytest.mark.parametrize("trace", (0, 1))
def test_driver_form_prints_exactly_the_declared_metrics(trace):
    done = run_py("--workload", "bare_forward", "--seed", "7",
                  "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = schema.benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        row = line["metrics"][metric["name"]]
        assert set(row) == {"value", "unit"} and row["unit"] == metric["unit"]
        assert math.isfinite(row["value"])
        if not trace:
            assert row["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: no result line, a non-zero exit."""
    import shutil

    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "table2_seeds", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


# --------------------------------------------------------------------------
# The layer map is total and unambiguous


def test_every_module_maps_to_exactly_one_layer():
    src = os.path.join(ROOT, "src")
    modules = []
    for directory, _dirs, files in os.walk(os.path.join(src, "repro")):
        for file in files:
            if file.endswith((".py", ".c")):
                path = os.path.join(directory, file)
                modules.append(layers.module_name(path))
    assert len(modules) > 50  # the walk found the tree
    for module in modules:
        found = layers.layers_matching(module)
        assert len(found) == 1, f"{module} maps to {found}"
        assert found[0] in schema.LAYERS
    with pytest.raises(LookupError):
        layers.layer_of_module("repro.a_module_nobody_mapped")
    assert layers.layer_of_module("networkx.algorithms.x") == "ext.networkx"
    assert layers.layer_of_module(None) == "ext.other"


def test_attribute_charges_builtins_to_their_caller():
    engine = (os.path.join(layers.SRC_ROOT, "repro", "sim", "engine.py"), 1, "run")
    stats = {
        engine: (1, 1, 0.5, 0.9, {}),
        ("~", 0, "<built-in method _heapq.heappush>"):
            (10, 10, 0.25, 0.25, {engine: (10, 10, 0.25, 0.25)}),
        ("~", 0, "<built-in method zlib.compress>"):
            (2, 2, 0.125, 0.125, {engine: (2, 2, 0.125, 0.125)}),
    }
    totals = layers.attribute(stats)
    assert totals["sim.engine"] == (0.75, 11)
    assert totals["ext.json_gzip"] == (0.125, 2)
    assert sum(sec for sec, _ in totals.values()) == 0.875


# --------------------------------------------------------------------------
# Statistics


def test_quartiles_are_the_drivers():
    import statistics

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    assert list(ledgerstats.quartiles(values)) == statistics.quantiles(values, n=4)
    q1, q2, q3 = ledgerstats.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert ledgerstats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        ledgerstats.quartiles([])
    row = ledgerstats.summarise(values, "s")
    assert row == {"value": 5.5, "unit": "s", "n": 10, "q1": 2.75, "q3": 8.25}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert ledgerstats.tail_percentile(19) is None
    assert ledgerstats.tail_percentile(20) == 50.0
    assert ledgerstats.tail_percentile(100) == 90.0
    assert ledgerstats.tail_percentile(1000) == 99.0
    values = list(range(1, 101))
    pct, value = ledgerstats.tail_value(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == ledgerstats.TAIL_MIN_BEYOND
    assert ledgerstats.tail_value(range(5)) is None


def test_clock_samples_the_host_while_the_call_runs():
    import time

    clock = ledgerstats.Clock()

    def spin():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        return "done"

    timed = clock.timed(spin)
    assert timed.result == "done" and timed.slowdown > 0
    # ~6 chunks interrupted the 0.3 s; the raw seconds are net of them.
    assert 0.0 < timed.raw < 0.3 and 0.0 < timed.net_share < 1.0
    beside = clock.timed(spin, during=False)
    assert beside.raw >= 0.3 and beside.net_share == 1.0
    assert len(clock.repeat(lambda: None, 5)) == 5
    with clock.sampled() as sample:
        pass
    assert len(sample.chunks) == ledgerstats.MIN_CHUNKS
    with clock.sampled(during=False) as sample:
        assert len(sample.chunks) == ledgerstats.MIN_CHUNKS
    assert len(sample.chunks) == 2 * ledgerstats.MIN_CHUNKS


# --------------------------------------------------------------------------
# The gate


def test_gate_counts_a_failing_op_once():
    gate = workloads.Gate()
    gate.identical("seed=1", "aa")
    gate.close_op("op 0")
    gate.identical("seed=1", "bb")
    gate.require(False, "and a second problem in the same op")
    gate.close_op("op 1")
    gate.identical("seed=1", "aa")
    gate.close_op("op 2")
    assert (gate.ops, gate.failed) == (3, 1)
    assert len(gate.failures) == 2 and gate.failures[0].startswith("op 1")


def test_a_corrupt_fingerprint_fails_the_run(tmp_path):
    workload = workloads.BareForward(seed=7, tiny=True, workdir=str(tmp_path))
    workload.prepare()
    key = workload.key(workload.configs[0])
    workload.gate.fingerprints[key] = "corrupt"
    out = workload.measure(ledgerstats.Clock(), 0.0)
    assert out["failed"] >= 1
    assert any("differs" in failure for failure in out["failures"])
    out["metrics"]["setup_s"] = ledgerstats.exact(1.0, "s")
    line = json.loads(ledger.contract_line("bare_forward", out, trace=0))
    assert line["correct"] is False and line["failed"] == out["failed"]


# --------------------------------------------------------------------------
# compare.py


def result(wall=(1.0, 0.98, 1.02), seed=1, engine="pure", events=1000,
           fingerprint="aa") -> dict:
    value, q1, q3 = wall
    return {
        "engine_impl": engine, "host": "box", "seed": seed,
        "workloads": {"bare_forward": {
            "fingerprints": {"seed=1": fingerprint},
            "end_to_end": {"wall_s": {
                "value": value, "unit": "s", "n": 10, "q1": q1, "q3": q3}},
            "per_layer": {"engine.events": ledgerstats.exact(events, "count")},
        }},
    }


def wall_verdict(a, b) -> str:
    metric = schema.BY_NAME["wall_s"]
    return compare.verdict(
        metric, compare.side(a, "bare_forward", "end_to_end", "wall_s"),
        compare.side(b, "bare_forward", "end_to_end", "wall_s"))


def test_compare_verdicts():
    bound = schema.BY_NAME["wall_s"].bound
    base = [result()]
    assert wall_verdict(base, [result()]) == "within"
    slower = 1.0 + 1.5 * bound
    assert wall_verdict(base, [result((slower, slower, slower))]) == "worse"
    faster = 1.0 - 1.5 * bound
    assert wall_verdict(base, [result((faster, faster, faster))]) == "improved"
    # One run a side: the spread of a median of n=10 ops is estimated as
    # 1.25 * IQR / sqrt(10), so ops must scatter over 2.6 bounds to blur it.
    wide = (1.0, 1.0 - 1.5 * bound, 1.0 + 1.5 * bound)
    assert wall_verdict(base, [result(wide)]) == "unresolved"
    narrow = (1.0, 1.0 - bound, 1.0 + bound)
    assert wall_verdict(base, [result(narrow)]) == "within"
    # Several runs a side: a spread wider than the bound is still
    # resolved when every run of B beats every run of A.
    spread_a = [result((v, v, v)) for v in (2.0, 2.6, 3.2, 3.8)]
    spread_b = [result((v, v, v)) for v in (1.0, 1.3, 1.6, 1.9)]
    assert wall_verdict(spread_a, spread_b) == "improved"
    assert wall_verdict(spread_b, spread_a) == "unresolved"


def test_compare_reports_and_refuses():
    lines, bad = compare.compare([result()], [result()])
    assert bad == 0 and any("WITHIN" in line for line in lines)
    lines, bad = compare.compare([result()], [result(events=1001)])
    assert bad == 1 and any("engine.events" in line and "DIFFERS" in line
                            for line in lines)
    lines, bad = compare.compare([result()], [result(fingerprint="bb")])
    assert bad == 1
    assert compare.refusal([result()], [result()]) is None
    assert "seed" in compare.refusal([result()], [result(seed=2)])
    assert "engine_impl" in compare.refusal([result()],
                                            [result(engine="compiled")])


def test_compare_reads_one_run_or_many(tmp_path):
    one, many = tmp_path / "a.json", tmp_path / "h.jsonl"
    one.write_text(json.dumps(result(), indent=1))
    many.write_text(json.dumps(result()) + "\n" + json.dumps(result()) + "\n")
    assert len(compare.load(str(one))) == 1
    assert len(compare.load(str(many))) == 2
    assert compare.main([str(one), str(many)]) == 0
