#!/usr/bin/env python3
"""Compare two ledger results: ``compare.py A B`` (A is the base).

A and B are files written by ``run.py --out`` (one run) or JSON-lines
files of several such runs, as ``history.jsonl`` is.  For each workload
and end-to-end metric it prints both medians with their quartiles, the
ratio B/A, and a verdict against the bound ``schema.py`` fixes:

* ``within``      B is no worse than A by more than the bound;
* ``worse``       it is;
* ``improved``    B is better than A by more than the bound;
* ``unresolved``  the run-to-run spread (the wider side's) exceeds the
                  bound, so the medians decide nothing -- unless, with
                  several runs a side, every run of B reads better than
                  every run of A.

With several runs a side the quartiles are taken over the runs' medians
and the spread is their distance.  With one run a side the quartiles are
those of the run's own n ops, and the spread of its *median* is estimated
from them as 1.25 x IQR / sqrt(n) (the inter-quartile range of a sample
median's distribution, for roughly normal ops).  Simulated statistics are
not timings: the exact counts and the per-op output fingerprints must be
*equal*, and any that is not is listed as ``differs`` (the fidelity
metrics then show by how much, against their bound in points).

It refuses (exit 2) to compare results whose ``engine_impl``, host or
seed differ: such a difference is not the code's.  Exit 1 when anything
is worse, unresolved or differs; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import schema  # noqa: E402
from ledgerstats import quartiles  # noqa: E402

#: Header fields two results must share to be comparable.
MUST_MATCH = ("engine_impl", "host", "seed")


def load(path: str) -> list[dict]:
    """The runs in a result file: one JSON object, or one per line."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def refusal(a_runs: list[dict], b_runs: list[dict]) -> str | None:
    """Why the two sides cannot be compared, or None."""
    for field in MUST_MATCH:
        a = sorted({str(run.get(field)) for run in a_runs})
        b = sorted({str(run.get(field)) for run in b_runs})
        if a != b:
            return f"{field} differs: {', '.join(a)} vs {', '.join(b)}"
        if field != "seed" and len(a) > 1:
            return f"{field} is not one value within a side: {', '.join(a)}"
    return None


def side(runs: list[dict], workload: str, section: str, name: str):
    """(median, q1, q3, per-run values, run-to-run spread) of one metric,
    or None if absent; the spread is in the metric's unit (see above)."""
    rows = [
        run["workloads"][workload][section][name] for run in runs
        if name in run["workloads"].get(workload, {}).get(section, {})
    ]
    if not rows:
        return None
    values = [row["value"] for row in rows]
    if len(rows) == 1:
        row, value = rows[0], values[0]
        q1, q3 = row.get("q1", value), row.get("q3", value)
        spread = 1.25 * (q3 - q1) / math.sqrt(row.get("n", 1))
        return value, q1, q3, values, spread
    q1, q2, q3 = quartiles(values)
    return q2, q1, q3, values, q3 - q1


def verdict(metric: schema.Metric, a, b) -> str:
    """B against the base A; each is ``side()``'s tuple.  The bound is a
    share of A's median, or points where the metric says absolute."""
    (a_med, _, _, a_values, a_spread), (b_med, _, _, b_values, b_spread) = a, b
    sign = 1.0 if metric.better == "lower" else -1.0
    scale = 1.0 if metric.absolute else abs(a_med)
    worse_by = sign * (b_med - a_med) / scale
    spread = max(a_spread, b_spread) / scale
    if spread > metric.bound:
        separated = len(a_values) > 1 and len(b_values) > 1 and (
            max(b_values) < min(a_values) if metric.better == "lower"
            else min(b_values) > max(a_values)
        )
        if not separated:
            return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "improved"
    return "within"


def compare(a_runs: list[dict], b_runs: list[dict], layers: bool = False):
    """(report lines, count of worse/unresolved/differs)."""
    lines, bad = [], 0
    for workload in schema.WORKLOADS:
        if not any(workload in run["workloads"] for run in a_runs + b_runs):
            continue
        lines.append(f"== {workload}")
        for metric in schema.declared_on(schema.END_TO_END, workload):
            a = side(a_runs, workload, "end_to_end", metric.name)
            b = side(b_runs, workload, "end_to_end", metric.name)
            if a is None and b is None:
                continue
            if a is None or b is None:
                lines.append(f"  {metric.name:20s} missing on one side")
                bad += 1
                continue
            word = verdict(metric, a, b)
            bad += word in ("worse", "unresolved")
            ratio = f"{b[0] / a[0]:.4f}x of A" if a[0] else "A is 0"
            bound = (f"{metric.bound} points" if metric.absolute
                     else f"{metric.bound:.0%}")
            lines.append(
                f"  {metric.name:20s} A {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}]  "
                f"B {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] {metric.unit}  "
                f"B = {ratio}  bound {bound}  {word.upper()}")
        for metric in schema.declared_on(schema.PER_LAYER, workload):
            a = side(a_runs, workload, "per_layer", metric.name)
            b = side(b_runs, workload, "per_layer", metric.name)
            if a is None or b is None:
                continue
            if metric.exact and set(a[3]) != set(b[3]):
                lines.append(f"  {metric.name:36s} A {a[0]:.10g}  B {b[0]:.10g}"
                             f" {metric.unit}  DIFFERS")
                bad += 1
            elif layers:
                ratio = f"{b[0] / a[0]:.4f}x of A" if a[0] else "A is 0"
                lines.append(f"  {metric.name:36s} A {a[0]:.6g}  B {b[0]:.6g}"
                             f" {metric.unit}  B = {ratio}")
        a_prints = _fingerprints(a_runs, workload)
        b_prints = _fingerprints(b_runs, workload)
        for key in sorted(a_prints.keys() & b_prints.keys()):
            if a_prints[key] != b_prints[key]:
                lines.append(f"  output of {key}  DIFFERS")
                bad += 1
    return lines, bad


def _fingerprints(runs: list[dict], workload: str) -> dict[str, str]:
    merged: dict[str, str] = {}
    for run in runs:
        merged.update(run["workloads"].get(workload, {}).get("fingerprints", {}))
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result (.json, or .jsonl of runs)")
    parser.add_argument("b", help="result to judge against the base")
    parser.add_argument("--layers", action="store_true",
                        help="also print every per-layer metric's ratio")
    args = parser.parse_args(argv)
    a_runs, b_runs = load(args.a), load(args.b)
    why = refusal(a_runs, b_runs)
    if why is not None:
        print(f"compare: refusing, {why}")
        return 2
    lines, bad = compare(a_runs, b_runs, args.layers)
    print(f"A = {args.a} ({len(a_runs)} run(s))  "
          f"B = {args.b} ({len(b_runs)} run(s))")
    print("\n".join(lines))
    print(f"\n{bad} worse, unresolved or differing" if bad
          else "\nnone worse, none unresolved, nothing differs")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
