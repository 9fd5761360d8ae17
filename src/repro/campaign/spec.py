"""Declarative campaign specifications.

A campaign is the unit the paper actually reports: a grid of
:class:`~repro.experiments.config.ExperimentConfig`\\ s — a base preset,
axes of parameter values (including registry-component names and
per-component args), and a seed list — executed many times and
aggregated.  A :class:`CampaignSpec` captures that grid declaratively in
TOML or JSON so it can live in the repo next to the results it produced:

.. code-block:: toml

    name = "pd-sweep"
    preset = "paper-default"
    seeds = [1, 2, 3, 4]

    [base]
    total_flows = 30
    n_routers = 12

    [[axes]]
    field = "mafic.drop_probability"
    values = [0.5, 0.7, 0.9]

    [[axes]]
    field = "defense"
    values = ["mafic", "red_rate_limit"]

Axis fields are dotted paths into the config: top-level fields
(``attack_fraction``), nested component configs
(``mafic.drop_probability``, ``pushback.overload_factor``,
``spoofing.mode``), and the open per-component arg dicts
(``topology_args.n_agg``).  :meth:`CampaignSpec.plan` expands the cross
product of all axes times the seed list into :class:`PlannedRun`\\ s,
each content-addressed by its config's
:meth:`~repro.experiments.config.ExperimentConfig.config_hash` — the key
the store files artifacts under, which is what makes campaigns resumable
and extensible: adding seeds or axis points later changes only which
hashes are missing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.util.validation import check_seed


class CampaignSpecError(ValueError):
    """A campaign spec that cannot be turned into a valid plan."""


#: Config dict fields that accept keys not present in the defaults
#: (anything under them is forwarded verbatim to a component builder).
_OPEN_DICT_SUFFIX = "_args"


@dataclass(frozen=True)
class AxisSpec:
    """One swept dimension: a dotted config path and its values."""

    field: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.field or not isinstance(self.field, str):
            raise CampaignSpecError("axis 'field' must be a non-empty string")
        if not self.values:
            raise CampaignSpecError(
                f"axis {self.field!r} must list at least one value"
            )


@dataclass(frozen=True)
class PlannedRun:
    """One cell of the campaign grid, content-addressed by config hash."""

    config: ExperimentConfig
    point: dict  # axis field -> value (seed excluded)
    seed: int
    run_id: str


@dataclass
class CampaignSpec:
    """A declarative experiment campaign: base + axes + seeds."""

    name: str
    seeds: tuple[int, ...] = (1,)
    preset: str | None = None
    base: dict = field(default_factory=dict)
    axes: tuple[AxisSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or self.name.startswith("."):
            raise CampaignSpecError(
                f"campaign name {self.name!r} must be a plain directory name"
            )
        self.seeds = tuple(self.seeds)
        for i, seed in enumerate(self.seeds):
            try:
                check_seed(f"seeds[{i}]", seed)
            except ValueError as exc:
                raise CampaignSpecError(str(exc)) from None
        if not self.seeds:
            raise CampaignSpecError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignSpecError("duplicate seeds in campaign spec")
        self.axes = tuple(
            axis if isinstance(axis, AxisSpec) else AxisSpec(**axis)
            for axis in self.axes
        )
        fields = [axis.field for axis in self.axes]
        if len(set(fields)) != len(fields):
            raise CampaignSpecError("duplicate axis fields in campaign spec")
        if "seed" in fields:
            raise CampaignSpecError("sweep seeds via 'seeds', not an axis")

    # ------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, data: dict, source: str = "<dict>") -> "CampaignSpec":
        """Build a spec from parsed TOML/JSON, with readable errors."""
        if not isinstance(data, dict):
            raise CampaignSpecError(f"{source}: spec must be a table/object")
        known = {"name", "seeds", "preset", "base", "axes"}
        unknown = set(data) - known
        if unknown:
            raise CampaignSpecError(
                f"{source}: unknown spec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        if "name" not in data:
            raise CampaignSpecError(f"{source}: spec needs a 'name'")
        axes = data.get("axes", ())
        if isinstance(axes, dict):
            raise CampaignSpecError(
                f"{source}: 'axes' must be an array of tables ([[axes]])"
            )
        for axis in axes:
            extra = set(axis) - {"field", "values"}
            if extra:
                raise CampaignSpecError(
                    f"{source}: unknown axis keys {sorted(extra)} on "
                    f"{axis.get('field', '<unnamed>')!r}; an axis has only "
                    "'field' and 'values'"
                )
        seeds = data.get("seeds", (1,))
        if isinstance(seeds, (str, bytes)) or not isinstance(
            seeds, (list, tuple)
        ):
            # tuple("12") would silently plan seeds (1, 2).
            raise CampaignSpecError(
                f"{source}: 'seeds' must be an array of ints"
            )
        try:
            return cls(
                name=data["name"],
                seeds=tuple(seeds),
                preset=data.get("preset"),
                base=dict(data.get("base", {})),
                axes=tuple(
                    AxisSpec(field=a["field"], values=tuple(a["values"]))
                    for a in axes
                ),
            )
        except KeyError as exc:
            raise CampaignSpecError(
                f"{source}: each axis needs 'field' and 'values' ({exc})"
            ) from None

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec file — ``.toml`` or ``.json`` by extension."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - py3.10 only
                raise CampaignSpecError(
                    "TOML specs need Python >= 3.11 (tomllib); "
                    "use a .json spec instead"
                ) from exc
            data = tomllib.loads(text)
        elif path.suffix == ".json":
            data = json.loads(text)
        else:
            raise CampaignSpecError(
                f"unknown spec extension {path.suffix!r} (want .toml or .json)"
            )
        return cls.from_dict(data, source=str(path))

    def to_dict(self) -> dict:
        """The manifest snapshot written next to the run artifacts."""
        return {
            "name": self.name,
            "preset": self.preset,
            "seeds": list(self.seeds),
            "base": self.base,
            "axes": [
                {"field": axis.field, "values": list(axis.values)}
                for axis in self.axes
            ],
        }

    # ------------------------------------------------------------ planning

    def base_config(self) -> ExperimentConfig:
        """The config every grid cell starts from: preset + base overrides."""
        if self.preset is not None:
            from repro.experiments.presets import get_preset

            try:
                config = get_preset(self.preset)
            except KeyError as exc:
                raise CampaignSpecError(str(exc)) from None
        else:
            config = ExperimentConfig()
        tree = config.to_dict()
        _apply_overrides(tree, self.base, prefix="")
        return _config_from_tree(tree)

    def plan(self) -> list[PlannedRun]:
        """Expand the grid: cross product of axes, times the seed list.

        Deterministic order — axes vary in declaration order (last axis
        fastest), seeds innermost — and duplicate cells (two axis
        combinations hashing to the same config) are dropped after the
        first occurrence, so the plan maps one-to-one onto store keys.
        """
        base_tree = self.base_config().to_dict()
        runs: list[PlannedRun] = []
        seen: set[str] = set()
        if self.axes:
            combos = product(*(axis.values for axis in self.axes))
        else:
            combos = [()]
        base_json = json.dumps(base_tree)
        for combo in combos:
            point = {
                axis.field: value
                for axis, value in zip(self.axes, combo)
            }
            for seed in self.seeds:
                tree = json.loads(base_json)  # deep copy
                for path, value in point.items():
                    _set_path(tree, path, value)
                tree["seed"] = int(seed)
                config = _config_from_tree(tree)
                run_id = config.config_hash()
                if run_id in seen:
                    continue
                seen.add(run_id)
                runs.append(
                    PlannedRun(
                        config=config, point=dict(point), seed=int(seed),
                        run_id=run_id,
                    )
                )
        return runs


def _config_from_tree(tree: dict) -> ExperimentConfig:
    """Materialize a config dict, rewording constructor errors."""
    try:
        return ExperimentConfig.from_dict(tree)
    except TypeError as exc:
        raise CampaignSpecError(f"invalid config for campaign: {exc}") from None


def _set_path(tree: dict, path: str, value, open_dict: bool = False) -> None:
    """Set a dotted config path, creating keys only inside open dicts."""
    parts = path.split(".")
    node = tree
    for part in parts[:-1]:
        if part not in node:
            if not open_dict:
                raise CampaignSpecError(f"unknown config field {path!r}")
            node[part] = {}
        if not isinstance(node[part], dict):
            raise CampaignSpecError(
                f"config field {path!r} does not address a nested field"
            )
        node = node[part]
        open_dict = open_dict or part.endswith(_OPEN_DICT_SUFFIX)
    leaf = parts[-1]
    if leaf not in node and not open_dict:
        raise CampaignSpecError(f"unknown config field {path!r}")
    if isinstance(node.get(leaf), dict) and not isinstance(value, dict):
        # A bare "mafic" (typo for "mafic.drop_probability") would
        # silently clobber the whole component table and only blow up
        # later inside a worker, after burning every run before it.
        raise CampaignSpecError(
            f"config field {path!r} addresses a component table; set one "
            f"of its fields ({path}.<field>) instead"
        )
    node[leaf] = value


def _apply_overrides(tree: dict, overrides: dict, prefix: str,
                     open_dict: bool = False) -> None:
    """Deep-merge ``base`` overrides into a config dict.

    Nested tables recurse; dotted keys are accepted as a convenience
    (``"mafic.drop_probability" = 0.7``).  Unknown fields raise unless
    inside an open ``*_args`` dict.
    """
    for key, value in overrides.items():
        path = f"{prefix}{key}"
        if "." in key:
            _set_path(tree, key, value, open_dict=open_dict)
            continue
        if key not in tree and not open_dict:
            raise CampaignSpecError(f"unknown config field {path!r}")
        if isinstance(value, dict) and isinstance(tree.get(key), dict):
            _apply_overrides(
                tree[key], value, prefix=f"{path}.",
                open_dict=open_dict or key.endswith(_OPEN_DICT_SUFFIX),
            )
        else:
            if isinstance(tree.get(key), dict):
                raise CampaignSpecError(
                    f"config field {path!r} addresses a component table; "
                    f"set one of its fields ({path}.<field>) instead"
                )
            tree[key] = value
