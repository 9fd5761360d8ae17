#!/usr/bin/env python3
"""The perf ledger: seven named workloads, measured end to end and per layer.

    python benchmarks/ledger/run.py --seed S [--workload W] [--out F]

runs every workload (or one) with tracing off, then makes a separate
traced run of each for the per-layer numbers, prints every metric by name
and unit, and exits non-zero if any op failed its correctness gate.
``--check`` does the same at tiny scale (invariants only, never wall
time).  The acceptance driver's form,

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

makes one such run and prints one JSON object as its last line.

Every run happens in a fresh child process of this script (one busy
process at a time), so no workload inherits another's caches, heap or
imports, and set-up — interpreter start, ``import repro``, inputs, one
warm-up op — is itself measured, three times per untraced run.  The
workloads, the gate and the metrics are in ``workloads.py`` and
``schema.py``; why each exists is in ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Stores, recordings and profiles of a run live here and are removed
#: with it: the benchmark writes nowhere outside its checkout.
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import schema  # noqa: E402
from ledgerstats import CALIBRATION_REF_S, Clock, summarise  # noqa: E402

SCHEMA_TAG = "ledger/1"
#: Set-ups measured per untraced run (the measuring child's own is one).
SETUPS = 3


# --------------------------------------------------------------------------
# Child side: one workload, one mode, in a fresh interpreter


def child_main(args) -> int:
    import workloads

    os.makedirs(WORK, exist_ok=True)
    clock = Clock()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=args.workload + "-") as tmp:
        workload = workloads.REGISTRY[args.workload](args.seed, args.tiny, tmp)
        # Set-up ends where the first timed op would start.  Like every
        # ledger timing it is divided by the host's slowdown, sampled
        # while the imports and the warm-up op run, and is net of what
        # the clock itself cost.
        with clock.sampled(during=not workload.in_child) as sample:
            workload.prepare()
            raw_setup = (time.time() - args.t0 - clock.built_s
                         - sample.blocked_s)
        out = {"setup_s": raw_setup / sample.slowdown}
        if args.child == "measure":
            run = workload.trace if args.trace else workload.measure
            out.update(run(clock, args.seconds))
            out["engine_impl"] = engine_impl()
    print(json.dumps(out))
    return 0


def engine_impl() -> str:
    from repro.sim._core import ENGINE_IMPL

    return ENGINE_IMPL


# --------------------------------------------------------------------------
# Parent side


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, trace: int,
          tiny: bool) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", mode,
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    # The child's clock for set-up starts before its interpreter does.
    argv += ["--t0", repr(time.time())]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT, timeout=170)
    if done.returncode != 0:
        raise SystemExit(
            f"ledger: {workload} child ({mode}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> dict:
    """One run of one workload: its set-ups, then the measuring child."""
    setups = [
        spawn("setup", workload, seed, seconds, trace, tiny)["setup_s"]
        for _ in range(0 if trace or tiny else SETUPS - 1)
    ]
    out = spawn("measure", workload, seed, seconds, trace, tiny)
    setups.append(out.pop("setup_s"))
    if not trace:
        out["metrics"]["setup_s"] = summarise(setups, "s")
    return out


def require_checkout() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"ledger: no src/repro under {ROOT}: nothing to measure")


def clean_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def fail_unmeasured(workload: str, out: dict, metrics) -> None:
    """A metric declared on the workload and not measured is a failed op."""
    for metric in schema.declared_on(metrics, workload):
        if metric.name not in out["metrics"] and not metric.optional:
            out["failed"] += 1
            out["failures"].append(f"{metric.name} was not measured")


def contract_line(workload: str, out: dict, trace: int) -> str:
    """The driver's last line: exactly its declared metrics, every one.

    A per-layer metric that does not apply to this workload reads 0 (the
    contract wants every name on every workload)."""
    wanted = schema.DRIVER_PER_LAYER if trace else schema.DRIVER_END_TO_END
    fail_unmeasured(workload, out, wanted)
    metrics = {}
    for metric in wanted:
        row = out["metrics"].get(metric.name)
        value = row["value"] if row is not None else 0
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return json.dumps({
        "correct": out["failed"] == 0 and finite,
        "attempted": out["ops"],
        "failed": out["failed"],
        "metrics": metrics,
    })


# --------------------------------------------------------------------------
# The ledger's own full run


def header(seed: int, seconds: float, tiny: bool, engine: str) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    def git(*argv: str) -> str:
        probe = subprocess.run(("git", "-C", ROOT) + argv,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
        return probe.stdout.strip() if probe.returncode == 0 else ""

    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    if commit != "unknown" and git("status", "--porcelain"):
        commit += "+dirty"
    return {
        "schema": SCHEMA_TAG, "commit": commit, "host": platform.node(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "networkx": version("networkx"),
        "engine_impl": engine, "seed": seed, "seconds": seconds,
        "tiny": tiny, "calibration_ref_s": CALIBRATION_REF_S,
    }


def full_run(names, seed: int, seconds: float, tiny: bool) -> dict:
    """Every workload untraced, then every workload traced."""
    results = {}
    for name in names:
        print(f"# {name}: untraced run ...", flush=True)
        results[name] = run_workload(name, seed, seconds, 0, tiny)
    for name in names:
        print(f"# {name}: traced run ...", flush=True)
        traced = run_workload(name, seed, seconds, 1, tiny)
        merged = results[name]
        merged["ops"] += traced["ops"]
        merged["failed"] += traced["failed"]
        merged["failures"] += traced["failures"]
        # Where both runs measured a metric, the untraced run's stands.
        merged["metrics"] = {**traced["metrics"], **merged["metrics"]}
    check_cross_workload(results)
    engine = next(iter(results.values()))["engine_impl"]
    workloads_out = {}
    for name, out in results.items():
        e2e = schema.declared_on(schema.END_TO_END, name)
        per_layer = schema.declared_on(schema.PER_LAYER, name)
        fail_unmeasured(name, out, e2e + per_layer)
        workloads_out[name] = {
            "ops": out["ops"], "failed": out["failed"],
            "failures": out["failures"], "fingerprints": out["fingerprints"],
            "end_to_end": {m.name: out["metrics"][m.name] for m in e2e
                           if m.name in out["metrics"]},
            "per_layer": {m.name: out["metrics"][m.name] for m in per_layer
                          if m.name in out["metrics"]},
        }
    return {**header(seed, seconds, tiny, engine), "workloads": workloads_out}


def check_cross_workload(results: dict) -> None:
    """Observing a run must not change a bit of it: for each seed both
    measured, observed_run's fingerprint is table2_seeds'."""
    plain, observed = results.get("table2_seeds"), results.get("observed_run")
    if plain is None or observed is None:
        return
    for key, value in observed["fingerprints"].items():
        if plain["fingerprints"].get(key, value) != value:
            observed["failed"] += 1
            observed["failures"].append(
                f"{key}: observed_run's output differs from table2_seeds'")


def print_result(result: dict) -> None:
    head = {k: v for k, v in result.items() if k != "workloads"}
    print("ledger " + " ".join(f"{k}={v}" for k, v in head.items()))
    print("timings are calibrated seconds (README, noise method); "
          "raw_wall_s and host_slowdown give the raw ones back")
    for name, out in result["workloads"].items():
        print(f"\n== {name}: ops={out['ops']} failed={out['failed']}")
        for failure in out["failures"]:
            print(f"   FAILED {failure}")
        for section in ("end_to_end", "per_layer"):
            print(f"  -- {section}")
            for metric, row in out[section].items():
                spread = ""
                if "n" in row:
                    spread = (f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
                              f"n={row['n']}]")
                print(f"  {metric:36s} {row['value']:14.6g} "
                      f"{row['unit']:6s}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(schema.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(schema.RUN_SECONDS),
                        help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one run, one JSON line")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--history", action="store_true",
                        help="append the full result to history.jsonl")
    parser.add_argument("--check", action="store_true",
                        help="tiny scale, invariants only")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_checkout()
    if args.child:
        return child_main(args)
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            out = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, tiny=False)
            for failure in out["failures"]:
                print(f"FAILED {failure}")
            print(contract_line(args.workload, out, args.trace))
            return 0 if out["failed"] == 0 else 1
        names = [args.workload] if args.workload else list(schema.WORKLOADS)
        result = full_run(names, args.seed,
                          0.0 if args.check else args.seconds, args.check)
    finally:
        clean_work()
    print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    if args.history:
        with open(os.path.join(HERE, "history.jsonl"), "a",
                  encoding="utf-8") as f:
            f.write(json.dumps(result, separators=(",", ":")) + "\n")
    failed = sum(out["failed"] for out in result["workloads"].values())
    print(f"\n{failed} failed ops" if failed else "\n0 failed ops")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
