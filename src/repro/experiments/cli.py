"""Command-line interface: run single experiments or regenerate figures.

Usage::

    python -m repro run [--flows N] [--pd P] [--seed S] [--defense KIND]
    python -m repro run --preset pulse-train --seeds 8 --jobs 4
    python -m repro run --list-presets
    python -m repro run --list {topologies,workloads,attacks,defenses,all}
    python -m repro serve [run flags] [--port P] [--pace X] [--linger]
    python -m repro serve --campaign spec.toml [--root DIR] [--jobs N]
    python -m repro replay recording.jsonl.gz [--port P] [--pace X]
    python -m repro figure fig3a [--scale S] [--out FILE]
    python -m repro validate [run flags]
    python -m repro campaign run|resume|status|report spec.toml
    python -m repro list

``run`` executes one scenario and prints the metric report card;
``figure`` regenerates one paper figure and prints (or writes) its data
table; ``list`` shows the available figures.  Component choices come
straight from the registries, so a newly registered topology, workload,
attack, or defence is immediately runnable by name.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys
from dataclasses import replace

from repro.attacks.scenarios import ATTACKS
from repro.core.defenses import DEFENSES
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.reporting import format_figure, format_summary
from repro.experiments.runner import run_experiment
from repro.experiments.workload import WORKLOADS
from repro.sim.topology import TOPOLOGIES
from repro.util.validation import (
    check_non_negative, check_positive, checked_float, positive_int,
)

#: The registries ``run --list`` knows how to print.
COMPONENT_REGISTRIES = {
    "topologies": TOPOLOGIES,
    "workloads": WORKLOADS,
    "attacks": ATTACKS,
    "defenses": DEFENSES,
}


#: Verbs whose CLI lives in a package the other verbs never import
#: (``repro.campaign`` alone is a quarter of a cold ``run``'s import
#: time): verb -> (module with ``add_parser``/``cmd``, the one-line help
#: ``repro --help`` lists it under).  The module is imported, and its
#: real sub-parser built, only when the verb is the one invoked.
LAZY_VERBS = {
    "campaign": (
        "repro.campaign.cli",
        "run, resume, inspect, and report experiment campaigns",
    ),
    "lint": (
        "repro.lint.cli",
        "statically check the repo's determinism/atomicity/"
        "twin-parity invariants",
    ),
}


#: The config flags of ``run``, ``serve`` and ``validate``: flag, the
#: config field it sets (dotted into a nested config), its type or the
#: registry whose names are its choices, and its help.  Every default is
#: None, so a --preset keeps its own values unless a flag is given.
CONFIG_FLAGS = (
    ("--flows", "total_flows", int, "Vt, total flows"),
    ("--pd", "mafic.drop_probability", float,
     "drop probability Pd (default 0.9)"),
    ("--tcp", "tcp_fraction", float, "TCP share Gamma"),
    ("--routers", "n_routers", int, "domain size N"),
    ("--rate", "rate_bps", float,
     "attack source rate R in bits/s (default 1e6)"),
    ("--duration", "duration", float, "run length in seconds"),
    ("--seed", "seed", int, "base seed (default 1)"),
    ("--topology", "topology", TOPOLOGIES, None),
    ("--workload", "workload", WORKLOADS, None),
    ("--attack", "attack", ATTACKS, None),
    ("--defense", "defense", DEFENSES, None),
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """:data:`CONFIG_FLAGS` and ``--preset``.  A value is checked by the
    config it lands in (:func:`_run_config`), not here."""
    p.set_defaults(usage_error=p.error)
    for flag, _, kind, help_text in CONFIG_FLAGS:
        if isinstance(kind, type):
            p.add_argument(flag, type=kind, default=None, help=help_text)
        else:
            p.add_argument(flag, choices=kind.names(), default=None)
    p.add_argument(
        "--preset", type=str, default=None,
        help="start from a named preset (see --list-presets); "
        "explicit flags still override",
    )


def _add_record_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--record", metavar="FILE", default=None,
        help="record the typed event stream to a JSONL flight recording "
        "(.gz compresses); play it back with 'python -m repro replay FILE'",
    )


def _add_server_flags(p: argparse.ArgumentParser) -> None:
    """``serve`` and ``replay``'s HTTP address, pacing and rate window."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="HTTP port (0 = pick a free one)")
    p.add_argument(
        "--pace", type=checked_float(check_non_negative, "pace"),
        default=0.0, metavar="X",
        help="simulated seconds played per wall-clock second "
        "(0 = full speed); serve: single-run mode only",
    )
    p.add_argument(
        "--window", type=checked_float(check_positive, "window"),
        default=1.0, metavar="S",
        help="sliding window for windowed rates, in sim seconds",
    )


def _check_scale(name: str, value: float) -> float:
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The full CLI; ``verb`` is the sub-command about to be parsed, the
    only one of :data:`LAZY_VERBS` whose own options are needed."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAFIC reproduction: run experiments and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print metrics")
    _add_config_flags(run_p)
    run_p.add_argument(
        "--seeds", type=positive_int, default=1, metavar="K",
        help="run K seeds (seed, seed+1, ...) and print mean +/- CI "
        "instead of one report card",
    )
    run_p.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="worker processes for multi-seed runs (default: CPU count); "
        "1 runs the seeds in this process, N > 1 as a campaign in a "
        "temporary store through N campaign workers",
    )
    run_p.add_argument(
        "--profile", metavar="FILE", default=None,
        help="profile the single-run path with cProfile and write the "
        "stats to FILE (inspect with `python -m pstats FILE`); a summary "
        "of the hottest functions is printed after the run",
    )
    run_p.add_argument(
        "--list-presets", action="store_true",
        help="print the named presets and exit",
    )
    run_p.add_argument(
        "--engine-info", action="store_true",
        help="print which engine core is active (compiled C extension "
        "or pure Python), the sha256 of _corec.c and the stamp of the "
        "extension built from it, and exit",
    )
    run_p.add_argument(
        "--list", dest="list_components", default=None,
        choices=sorted(COMPONENT_REGISTRIES) + ["all"],
        help="print one registry (or all of them) and exit",
    )
    _add_record_flag(run_p)

    serve_p = sub.add_parser(
        "serve",
        help="run a scenario (or campaign shard) while serving live "
        "metrics over HTTP: dashboard at /, Prometheus text at /metrics, "
        "SSE at /events, JSON lines at /stream",
    )
    _add_config_flags(serve_p)
    serve_p.add_argument(
        "--campaign", default=None, metavar="SPEC",
        help="serve a campaign instead of a single run: execute the "
        "spec's missing cells as 'campaign run' would (same leases, "
        "retries and artifacts), streaming every cell's events",
    )
    serve_p.add_argument(
        "--root", default=None, metavar="DIR",
        help="campaign artifact root (only with --campaign; "
        "default: ./campaigns)",
    )
    _add_server_flags(serve_p)
    serve_p.add_argument(
        "--linger", action="store_true",
        help="keep serving after the run finishes until Ctrl-C "
        "(otherwise the server stops once the work is done)",
    )
    _add_record_flag(serve_p)
    serve_p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="with --campaign: N lease-pull worker processes, their "
        "event streams multiplexed into this server and dead ones "
        "respawned (default 1 = in-process)",
    )

    replay_p = sub.add_parser(
        "replay",
        help="serve a recorded run: feed a flight recording back "
        "through the live dashboard/metrics/SSE stack",
    )
    replay_p.add_argument(
        "recording", help="JSONL recording written by --record"
    )
    _add_server_flags(replay_p)
    replay_p.add_argument(
        "--no-linger", dest="linger", action="store_false", default=True,
        help="exit after feeding the recording instead of serving "
        "until Ctrl-C",
    )

    fig_p = sub.add_parser("figure", help="regenerate one paper figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument("--scale", type=checked_float(_check_scale, "scale"),
                       default=1.0,
                       help="sweep resolution (0-1]; smaller = faster")
    fig_p.add_argument("--out", type=str, default=None,
                       help="write the data table to this file")

    for name, (module, help_text) in LAZY_VERBS.items():
        if name == verb:
            importlib.import_module(module).add_parser(sub)
        else:
            sub.add_parser(name, help=help_text)

    sub.add_parser("list", help="list the available figures")
    sub.add_parser("presets", help="list the named experiment presets")

    val_p = sub.add_parser(
        "validate", help="feasibility-check a configuration without running"
    )
    _add_config_flags(val_p)
    return parser


def _print_presets() -> int:
    for name in sorted(PRESETS):
        doc = (PRESETS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:<26} {doc}")
    return 0


def _print_registries(which: str) -> int:
    names = (
        sorted(COMPONENT_REGISTRIES)
        if which == "all"
        else [which]
    )
    for i, kind in enumerate(names):
        if i:
            print()
        print(f"{kind}:")
        for name, doc in COMPONENT_REGISTRIES[kind].describe():
            print(f"  {name:<24} {doc}")
    return 0


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the run's config: preset (if any) + explicit flag overrides."""
    overrides: dict[str, dict] = {}  # nested config ("" = top level) -> fields
    for flag, path, _, _ in CONFIG_FLAGS:
        value = getattr(args, flag[2:])
        if value is not None:
            nested, _, name = path.rpartition(".")
            overrides.setdefault(nested, {})[name] = value
    try:  # a value the config rejects is a usage error naming the field
        config = get_preset(args.preset) if args.preset else ExperimentConfig()
        top = overrides.pop("", {})
        for nested, fields in overrides.items():
            top[nested] = replace(getattr(config, nested), **fields)
        return config.with_overrides(**top)
    except (ValueError, TypeError, KeyError) as exc:  # KeyError: unknown preset
        args.usage_error(exc.args[0])


def _print_engine_info() -> int:
    from repro.sim._core import core_info

    info = core_info()
    print(f"engine core: {info['impl']} ({info['module']})")
    print(f"_corec.c sha256: {info['source_hash'] or 'no source here'}")
    if info["built_hash"]:
        print(f"extension stamp: {info['built_hash']}")
    if info["forced_pure"]:
        print("REPRO_NO_COMPILED is set: the pure-Python engine is forced")
    elif info["refused_hash"]:
        print(f"compiled extension refused: it is stamped "
              f"{info['refused_hash']}, built from another _corec.c; "
              "rebuild it with `python setup.py build_ext --inplace`")
    elif info["impl"] == "pure":
        print("compiled extension not built; build it with "
              "`python setup.py build_ext --inplace`")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.engine_info:
        return _print_engine_info()
    if args.list_presets:
        return _print_presets()
    if args.list_components:
        return _print_registries(args.list_components)
    config = _run_config(args)
    if args.seeds > 1:
        if args.profile:
            print("--profile profiles the single-run path; drop --seeds",
                  file=sys.stderr)
            return 2
        if args.record:
            print("--record captures one run's event stream; drop --seeds",
                  file=sys.stderr)
            return 2
        return _cmd_run_multi_seed(config, args)
    bus = None
    recording = contextlib.nullcontext()
    if args.record:
        from repro.obs.bus import EventBus
        from repro.obs.recorder import recorded

        bus = EventBus()
        recording = recorded(args.record, bus, {
            "command": "run",
            "scenario": (
                f"{config.topology}/{config.workload}/"
                f"{config.attack}/{config.defense}"
            ),
            "seed": config.seed,
            "duration": config.duration,
            "config_hash": config.config_hash(),
        })
    with recording:
        if args.profile:
            from repro.experiments.profiling import profiled_call

            result = profiled_call(
                lambda: run_experiment(config, bus=bus), args.profile
            )
        else:
            result = run_experiment(config, bus=bus)
    print(format_summary(result.summary))
    if result.activation_time is not None:
        print(f"\npushback triggered at t={result.activation_time:.2f}s; "
              f"ATR recall {result.atr_recall:.0%}")
    else:
        print("\npushback never triggered")
    return 0


def _cmd_run_multi_seed(config: ExperimentConfig, args: argparse.Namespace) -> int:
    """Per-seed lines, then the mean +/- CI table over every seed.

    One worker (``--jobs 1``, or one CPU with ``--jobs`` unset) is a
    plain loop in this process.  More run the seeds as a seeds-only
    campaign in a temporary store, through the lease-pull workers,
    retries and quarantine of ``campaign run``.  A failed seed is named
    on stderr and voids the table: an interval over the seeds that
    happened to finish would skew the metric.
    """
    import time

    from repro.analysis.aggregate import aggregate_runs

    seeds = [config.seed + offset for offset in range(args.seeds)]
    jobs = args.jobs
    if jobs is None:
        from repro.campaign.orchestrator import default_jobs

        jobs = default_jobs()
    jobs = min(jobs, len(seeds))
    started = time.perf_counter()
    if jobs == 1:
        runs, failed = _seeds_in_process(config, seeds)
    else:
        runs, failed, jobs = _seeds_as_campaign(config, seeds, jobs)
    wall_seconds = time.perf_counter() - started
    for run in runs:
        pct = run.summary.as_percent()
        print(
            f"seed {run.config.seed:>4}: alpha={pct['alpha']:6.2f}%  "
            f"beta={pct['beta']:6.2f}%  theta_p={pct['theta_p']:5.2f}%  "
            f"theta_n={pct['theta_n']:5.2f}%  Lr={pct['Lr']:5.2f}%"
        )
    for seed, error in failed:
        print(f"seed {seed}: {error}", file=sys.stderr)
    if failed:
        return 1
    print()
    print(aggregate_runs(runs).as_percent_table())
    print(
        f"\n{len(seeds)} seeds in {wall_seconds:.1f}s "
        f"({jobs} worker{'s' if jobs != 1 else ''})"
    )
    return 0


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _seeds_in_process(config: ExperimentConfig, seeds: list[int]):
    """(finished runs, [(seed, error)]) of a serial loop over ``seeds``."""
    import traceback

    runs, failed = [], []
    for seed in seeds:
        try:
            runs.append(run_experiment(config.with_overrides(seed=seed)))
        except Exception:  # noqa: BLE001 - reported per seed, like a campaign
            failed.append((seed, _last_line(traceback.format_exc())))
    return runs, failed


def _seeds_as_campaign(config: ExperimentConfig, seeds: list[int], jobs: int):
    """(finished runs, [(seed, error)], workers) of a seeds-only campaign
    in a throwaway store."""
    import tempfile

    from repro.campaign.orchestrator import open_store, run_campaign
    from repro.campaign.query import load_runs
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(name="seeds", seeds=tuple(seeds), base=config.to_dict())
    with tempfile.TemporaryDirectory(prefix="repro-seeds-") as root:
        report = run_campaign(spec, root=root, jobs=jobs)
        if report.interrupted:
            raise KeyboardInterrupt  # as from the in-process loop
        runs = load_runs(spec, root, with_series=False)
        finished = {run.run_id for run in runs}
        store = open_store(spec, root)
        failed = []
        for planned in spec.plan():
            if planned.run_id in finished:
                continue
            record = store.read_failure(planned.run_id)
            error = "no result" if record is None else _last_line(
                record.traceback or record.error
            )
            failed.append((planned.seed, error))
    return runs, failed, report.jobs


def _cmd_figure(args: argparse.Namespace) -> int:
    figure = run_figure(args.name, scale=args.scale)
    table = format_figure(figure)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table + "\n")
        print(f"wrote {args.out}")
    else:
        print(table)
    return 0


def _cmd_list() -> int:
    for name in sorted(FIGURES):
        print(f"{name:>6}  {FIGURES[name].doc}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_config

    report = validate_config(_run_config(args))
    for finding in report:
        print(f"[{finding.severity.value:>7}] {finding.code}: {finding.message}")
    print("\nfeasible" if report.ok else "\nNOT feasible")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # The verb is the first positional: the top-level parser has no
    # options of its own but -h.
    verb = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _build_parser(verb).parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        from repro.obs.serve import cmd_serve

        return cmd_serve(args)
    if args.command == "replay":
        from repro.obs.serve import cmd_replay

        return cmd_replay(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command in LAZY_VERBS:
        return importlib.import_module(LAZY_VERBS[args.command][0]).cmd(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "presets":
        return _print_presets()
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
