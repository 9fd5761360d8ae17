"""Attribute profiled self-time to the repo's layers, from outside.

The harness installs ``cProfile`` around one op and sums each function's
self-time under the layer that owns its module.  Nothing in ``src/`` is
instrumented.  Two rules keep the attribution honest:

* every module under ``src/repro`` matches exactly one prefix rule below
  (the self-test walks the tree), so a new module cannot fall silently
  into ``ext.other``;
* a C builtin has no module file; its self-time is charged to the layer
  of the Python function that called it (``heappush`` from the engine is
  engine time), except builtins that name numpy, json or zlib, which are
  charged to their ``ext.*`` layer wherever they are called from.
"""

from __future__ import annotations

import os

from schema import LAYERS

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "",
)

#: Longest prefix wins.  ``repro.lint`` is offline tooling no workload
#: executes; it is listed so that the walk over src/repro is total.
MODULE_RULES = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim._core", "sim.engine"),
    ("repro.sim._corec", "sim.engine"),
    ("repro.sim.link", "sim.link"),
    ("repro.sim.queues", "sim.queues"),
    ("repro.sim.node", "sim.node"),
    ("repro.sim.routing", "sim.routing"),
    ("repro.sim.address", "sim.address"),
    ("repro.sim.packet", "sim.packet"),
    ("repro.sim.topology", "sim.topology"),
    ("repro.sim.monitor", "sim.monitor"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.__init__", "sim.engine"),
    ("repro.transport", "transport"),
    ("repro.attacks", "attacks"),
    ("repro.core", "core"),
    ("repro.counting", "counting"),
    ("repro.metrics", "metrics"),
    ("repro.obs", "obs"),
    ("repro.util", "util"),
    ("repro.perf", "util"),
    ("repro.experiments", "experiments"),
    ("repro.__init__", "experiments"),
    ("repro.__main__", "experiments"),
    ("repro.campaign.spec", "campaign.spec"),
    ("repro.campaign.store", "campaign.store"),
    ("repro.campaign.worker", "campaign.worker"),
    ("repro.campaign.pool", "campaign.worker"),
    ("repro.campaign.chaos", "campaign.worker"),
    ("repro.campaign.orchestrator", "campaign.worker"),
    ("repro.campaign.cli", "campaign.worker"),
    ("repro.campaign.__init__", "campaign.worker"),
    ("repro.campaign.query", "analysis"),
    ("repro.campaign.diff", "analysis"),
    ("repro.analysis", "analysis"),
    ("repro.lint", "analysis"),
)

_EXTERNAL_PACKAGES = (
    ("numpy", "ext.numpy"),
    ("networkx", "ext.networkx"),
    ("json", "ext.json_gzip"),
    ("gzip", "ext.json_gzip"),
    ("zlib", "ext.json_gzip"),
)

#: Substrings of a builtin's printed name that pin its layer.
_BUILTIN_MARKERS = (
    ("_corec", "sim.engine"),
    ("numpy", "ext.numpy"),
    ("_json", "ext.json_gzip"),
    ("zlib", "ext.json_gzip"),
)


def module_name(path: str) -> str | None:
    """Dotted module name of a source path: under this checkout's
    ``src/``, or from an external package the ledger names; else None."""
    path = os.path.abspath(path)
    if path.startswith(SRC_ROOT):
        return os.path.splitext(path[len(SRC_ROOT):])[0].replace(os.sep, ".")
    parts = os.path.splitext(path)[0].split(os.sep)
    for package, _ in _EXTERNAL_PACKAGES:
        if package in parts:
            return ".".join(parts[parts.index(package):])
    return None


def layers_matching(module: str) -> list[str]:
    """Layers of the most specific rule(s) matching a ``repro`` module."""
    matches = [
        (len(prefix), layer) for prefix, layer in MODULE_RULES
        if module == prefix or module.startswith(prefix + ".")
    ]
    if not matches:
        return []
    longest = max(length for length, _ in matches)
    return [layer for length, layer in matches if length == longest]


def layer_of_module(module: str | None) -> str:
    """The one layer a dotted module name belongs to."""
    if module is None:
        return "ext.other"
    if module == "repro" or module.startswith("repro."):
        found = layers_matching(module)
        if len(found) != 1:
            raise LookupError(
                f"module {module!r} maps to {len(found)} layers; add it to "
                "benchmarks/ledger/layers.py MODULE_RULES"
            )
        return found[0]
    for package, layer in _EXTERNAL_PACKAGES:
        if module == package or module.startswith(package + "."):
            return layer
    return "ext.other"


def _layer_of_python(filename: str) -> str:
    return layer_of_module(module_name(filename))


def _pinned_builtin(name: str) -> str | None:
    for marker, layer in _BUILTIN_MARKERS:
        if marker in name:
            return layer
    return None


def attribute(stats: dict) -> dict[str, tuple[float, int]]:
    """Fold ``pstats``-shaped stats into ``{layer: (self_s, calls)}``.

    ``stats`` is ``cProfile.Profile().stats`` after ``create_stats()``:
    ``{(file, line, name): (cc, nc, tt, ct, callers)}``.
    """
    totals = {layer: [0.0, 0] for layer in LAYERS}

    def add(layer: str, seconds: float, calls: int) -> None:
        totals[layer][0] += seconds
        totals[layer][1] += calls

    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            add(_layer_of_python(filename), tt, nc)
            continue
        pinned = _pinned_builtin(name)
        if pinned is not None:
            add(pinned, tt, nc)
            continue
        if not callers:
            add("ext.other", tt, nc)
            continue
        for (caller_file, _l, _n), (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
            layer = (
                "ext.other" if caller_file == "~"
                else _layer_of_python(caller_file)
            )
            add(layer, c_tt, c_nc)
    return {layer: (sec, calls) for layer, (sec, calls) in totals.items()}
