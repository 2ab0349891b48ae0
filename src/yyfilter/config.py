"""Experiment configuration: INI-style key/value files with sections.

CONFIG_KEYS declares every key once: its section, the ExperimentConfig
field it fills, its parser and its default.  load_config reads the file
through that table, logs each default it applies, refuses any section or
key the table lacks, and hashes the resolved values (config_hash).  Range
and cross-field checks follow, before any compute, and each error names
its field.  [filter] substeps is the grid filter's Crank-Nicolson stage
count per knot and nothing else: simulate, filter and baseline simulate
their paths at sde.PATH_SUBSTEPS Euler substeps per knot, and a sweep at
the diagnostics' own resolution.  The rules for swept values live beside
the sweeps: diagnostics.check_radius_levels runs here, since each radius
gets its own grid at the [grid] spacing, and diagnostics.check_dt_levels
runs in the sweep command, since the axis defaults to dt.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

from .baselines import ORACLES
from .diagnostics import SWEEP_ORACLES, check_radius_levels
from .filtering import DEFAULT_SUBSTEPS
from .models import FilterModel, TimeSchedule, _REGISTRY_NAMES, builtin_model, parse_test_function

log = logging.getLogger("yyfilter")


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


@dataclass
class ExperimentConfig:
    model: FilterModel
    grid_radius: float
    grid_points: int
    terminal: float
    steps: Optional[int]  # None: only a dt sweep may run
    substeps: int
    test_function_labels: tuple
    baseline: str
    particles: int
    sweep_axis: str
    sweep_values: tuple
    oracle: str
    slope_band: tuple
    seed_base: int
    seed_count: int
    output_dir: str
    raw_dump: str = field(repr=False, default="")

    @property
    def seeds(self):
        return list(range(self.seed_base, self.seed_base + self.seed_count))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_dump.encode()).hexdigest()[:16]

    @property
    def schedule(self) -> TimeSchedule:
        if self.steps is None:
            raise ConfigError(
                "field [schedule] steps is required; only a dt sweep, which takes its step "
                "counts from [sweep] values, runs without it"
            )
        return TimeSchedule(self.terminal, self.steps)

    def test_functions(self):
        return [parse_test_function(lb) for lb in self.test_function_labels]


REQUIRED = object()  # default of a key the file must set


def _float(raw, name, finite=True):
    try:
        v = float(raw)
        if math.isfinite(v) or not (finite or math.isnan(v)):
            return v
    except ValueError:
        pass
    raise ConfigError(f"field {name}: not a finite number: {raw!r}")


def _floats(raw, name, finite=True):
    return tuple(_float(s.strip(), name, finite) for s in raw.split(","))


def _int(raw, name):
    v = _float(raw, name)
    if v != int(v):
        raise ConfigError(f"field {name} must be an integer")
    return int(v)


def _names(*names):
    def parse(raw, name):
        if raw not in names:
            raise ConfigError(f"field {name}: unknown name {raw!r}; valid names: {', '.join(names)}")
        return raw
    return parse


def _labels(raw, name):
    """Comma-separated test-function labels, each in its parsed (canonical) spelling."""
    try:
        return tuple(parse_test_function(s).label for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"field {name}: {exc}") from exc


class Key(NamedTuple):
    section: str
    key: str
    field: str  # the ExperimentConfig field it fills ([model] dim goes into `model`)
    parse: Callable  # (raw text, "[section] key") -> value, raising ConfigError
    default: object  # raw text applied and logged when unset, REQUIRED, or None: unset is None


# The single declaration of every config key: load_config reads exactly these,
# refuses any other section or key, and hashes their resolved values.
CONFIG_KEYS = (
    Key("model", "name", "model", _names(*_REGISTRY_NAMES), REQUIRED),
    Key("model", "dim", "dim", _int, None),
    Key("grid", "radius", "grid_radius", _float, REQUIRED),
    Key("grid", "points", "grid_points", _int, REQUIRED),
    Key("schedule", "terminal", "terminal", _float, REQUIRED),
    # a dt sweep takes its step counts from [sweep] values, so it may leave steps out
    Key("schedule", "steps", "steps", _int, None),
    Key("filter", "substeps", "substeps", _int, str(DEFAULT_SUBSTEPS)),
    Key("filter", "test_functions", "test_function_labels", _labels, "x1"),
    Key("baseline", "method", "baseline", _names(*ORACLES), "kalman"),
    Key("baseline", "particles", "particles", _int, "10000"),
    Key("sweep", "axis", "sweep_axis", _names("dt", "R"), "dt"),
    Key("sweep", "values", "sweep_values", _floats, "0.02, 0.01, 0.005"),
    Key("sweep", "oracle", "oracle", _names(*SWEEP_ORACLES), "kalman"),
    # err <= C*sqrt(dt) bounds the dt slope from below only, so the default band is one-sided.
    Key("sweep", "slope_band", "slope_band", partial(_floats, finite=False), "0.35, inf"),
    Key("run", "seed_base", "seed_base", _int, "0"),
    Key("run", "seeds", "seed_count", _int, "50"),
    Key("output", "directory", "output_dir", lambda raw, name: raw, "out"),
)


def _dump(value) -> str:
    if value is None:
        return ""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    # Values are read as written (no %-interpolation), and "" names no section, so
    # [DEFAULT] is refused as an unknown section instead of lending keys to all the others.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.ParsingError as exc:
        lines = "; ".join(f"line {ln}: {txt.strip()}" for ln, txt in exc.errors)
        raise ConfigError(f"{path}: parse error at {lines}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        keys = [k.key for k in CONFIG_KEYS if k.section == section]
        if not keys:
            raise ConfigError(f"section [{section}] is not a known section")
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"field [{section}] {key} is not a known key")

    values, dump = {}, {}
    for k in CONFIG_KEYS:
        name = f"[{k.section}] {k.key}"
        raw = parser.get(k.section, k.key, fallback=None)
        if raw is None and k.default is REQUIRED:
            raise ConfigError(f"field {name} is required")
        if raw is None and k.default is not None:
            log.info("config: [%s] %s not set; using default %r", k.section, k.key, k.default)
            raw = k.default
        # an optional key set to nothing counts as unset
        values[k.field] = k.parse(raw, name) if raw or k.default is not None else None
        dump[f"{k.section}.{k.key}"] = _dump(values[k.field])
    try:
        values["model"] = builtin_model(values["model"], dim=values.pop("dim"))
    except ValueError as exc:
        raise ConfigError(f"field [model] dim: {exc}") from exc
    cfg = ExperimentConfig(
        **values, raw_dump="\n".join(f"{k}={v}" for k, v in sorted(dump.items()))
    )

    if cfg.steps is not None and cfg.steps < 1:
        raise ConfigError("field [schedule] steps: K must be >= 1")
    if cfg.terminal <= 0:
        raise ConfigError("field [schedule] terminal must be positive")
    if cfg.grid_radius <= 1:
        raise ConfigError("field [grid] radius must exceed 1 (mollifier support)")
    if cfg.grid_points < 5 or cfg.grid_points % 2 == 0:
        raise ConfigError("field [grid] points must be an odd integer >= 5")
    if cfg.substeps < 1:
        raise ConfigError("field [filter] substeps must be >= 1")
    phis = cfg.test_functions()
    if not phis:
        raise ConfigError("field [filter] test_functions names no test function")
    for phi in phis:
        if phis.count(phi) > 1:
            raise ConfigError(f"field [filter] test_functions names {phi.label!r} twice")
        if max(phi.indices) >= cfg.model.dim:
            raise ConfigError(
                f"field [filter] test_functions: {phi.label!r} reads a coordinate beyond "
                f"the model's dim {cfg.model.dim}"
            )
    least = 3 if cfg.baseline == "bootstrap_pf" else 2  # at N = 2 a PF's ESS never falls below N/2
    if cfg.particles < least:
        raise ConfigError(f"field [baseline] particles must be >= {least} for {cfg.baseline}")

    if cfg.steps is None and cfg.sweep_axis == "R":
        raise ConfigError("field [schedule] steps is required by an R sweep")
    if not all(v > 0 for v in cfg.sweep_values):
        raise ConfigError("field [sweep] values must all be positive")
    if cfg.sweep_axis == "R":
        if not all(v > 1 for v in cfg.sweep_values):
            raise ConfigError("field [sweep] values: each radius must exceed 1 (mollifier support)")
        try:  # each radius gets its own grid at the [grid] spacing
            check_radius_levels(cfg.sweep_values, 2 * cfg.grid_radius / (cfg.grid_points - 1))
        except ValueError as exc:
            raise ConfigError(f"field [sweep] values: {exc}") from exc
    band = cfg.slope_band
    if len(band) != 2 or not math.isfinite(band[0]) or band[0] >= band[1]:
        raise ConfigError(
            "field [sweep] slope_band must be two increasing numbers, the first finite"
        )
    if cfg.seed_base < 0:
        raise ConfigError("field [run] seed_base must be >= 0")
    if cfg.seed_count < 1:
        raise ConfigError("field [run] seeds must be >= 1")
    return cfg
