"""Experiment configuration: INI-style key/value files with sections.

Example::

    [model]
    name = linear1d

    [grid]
    radius = 6.0
    points = 241

    [schedule]
    terminal = 1.0
    steps = 1000

    [filter]
    substeps = 8
    test_functions = x1

    [run]
    seeds = 50
    seed_base = 0

    [sweep]
    axis = dt
    values = 0.02, 0.01, 0.005, 0.0025
    oracle = kalman

    [output]
    directory = out

Only [model], [grid], and [schedule] are required, and a dt sweep, which
takes its step counts from [sweep] values, may leave [schedule] steps out
(a command that needs it then exits naming it); every applied default
is echoed to the log.  [filter] substeps is the grid filter's
Crank-Nicolson stage count per knot (default filtering.DEFAULT_SUBSTEPS)
and nothing else: simulate, filter and baseline always simulate their
paths at sde.PATH_SUBSTEPS Euler substeps per knot, and a sweep at the
diagnostics' own resolution.  Validation happens before any compute and
errors name the offending field; a section or key the loader does not
read is an error too.  An R sweep builds one grid per radius at the
[grid] spacing 2 * radius / (points - 1), so each radius must be a
multiple of it.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

from .baselines import BASELINES, SWEEP_ORACLES
from .filtering import DEFAULT_SUBSTEPS
from .models import (
    FilterModel,
    TestFunction,
    TimeSchedule,
    _REGISTRY_NAMES,
    builtin_model,
    coordinate,
    coordinate_product,
    squared_coordinate,
)

log = logging.getLogger("yyfilter")


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


def parse_test_function(label: str) -> TestFunction:
    """Resolve labels like x1, x2^2, x1*x3 into test functions."""
    label = label.strip()
    if label.count("*") > 1:
        raise ConfigError(f"test function label {label!r} has more than one '*'; use x1*x2, x1^2")
    if "*" in label:
        a, b = label.split("*")
        return coordinate_product(_coord_index(a), _coord_index(b))
    if label.endswith("^2"):
        return squared_coordinate(_coord_index(label[:-2]))
    return coordinate(_coord_index(label))


def _coord_index(token: str) -> int:
    token = token.strip()
    if not token.startswith("x") or not token[1:].isdigit() or int(token[1:]) < 1:
        raise ConfigError(f"unknown test function label {token!r}; use x1, x2^2, x1*x2, ...")
    return int(token[1:]) - 1


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


def _get(parser, section, key, default=None, echo=True):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if default is not None and echo:
        log.info("config: [%s] %s not set; using default %r", section, key, default)
    return default


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.ParsingError as exc:
        lines = "; ".join(f"line {ln}: {txt.strip()}" for ln, txt in exc.errors)
        raise ConfigError(f"{path}: parse error at {lines}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    def need_name(section, key, names, default=None):
        value = _get(parser, section, key, default)
        if value is None:
            raise ConfigError(f"field [{section}] {key} is required")
        if value not in names:
            raise ConfigError(f"field [{section}] {key}: unknown name {value!r}; "
                              f"valid names: {', '.join(names)}")
        return value

    name = need_name("model", "name", _REGISTRY_NAMES)

    def to_float(section, key, raw, finite=True):
        try:
            v = float(raw)
            if math.isfinite(v) or not (finite or math.isnan(v)):
                return v
        except ValueError:
            pass
        raise ConfigError(f"field [{section}] {key}: not a finite number: {raw!r}")

    def need_float(section, key, default=None, echo=True):
        raw = _get(parser, section, key, default, echo=echo)
        if raw is None:
            raise ConfigError(f"field [{section}] {key} is required")
        return to_float(section, key, raw)

    def need_floats(section, key, default, finite=True):
        raw = _get(parser, section, key, default)
        return tuple(to_float(section, key, s.strip(), finite) for s in raw.split(","))

    def need_int(section, key, default=None, echo=True):
        v = need_float(section, key, default, echo)
        if v != int(v):
            raise ConfigError(f"field [{section}] {key} must be an integer")
        return int(v)

    dim = need_int("model", "dim") if _get(parser, "model", "dim", echo=False) else None
    try:
        model = builtin_model(name, dim=dim)
    except ValueError as exc:
        raise ConfigError(f"field [model] dim: {exc}") from exc

    radius = need_float("grid", "radius")
    points = need_int("grid", "points")
    terminal = need_float("schedule", "terminal")
    # a dt sweep takes its step counts from [sweep] values, so it may leave steps out
    steps = need_int("schedule", "steps") if _get(parser, "schedule", "steps", echo=False) else None

    if steps is not None and steps < 1:
        raise ConfigError("field [schedule] steps: K must be >= 1")
    if terminal <= 0:
        raise ConfigError("field [schedule] terminal must be positive")
    if radius <= 1:
        raise ConfigError("field [grid] radius must exceed 1 (mollifier support)")
    if points < 5 or points % 2 == 0:
        raise ConfigError("field [grid] points must be an odd integer >= 5")

    substeps = need_int("filter", "substeps", str(DEFAULT_SUBSTEPS))
    if substeps < 1:
        raise ConfigError("field [filter] substeps must be >= 1")
    labels = tuple(
        s.strip()
        for s in _get(parser, "filter", "test_functions", "x1").split(",")
        if s.strip()
    )
    if not labels:
        raise ConfigError("field [filter] test_functions names no test function")
    for lb in labels:
        if labels.count(lb) > 1:
            raise ConfigError(f"field [filter] test_functions names {lb!r} twice")
        try:
            parse_test_function(lb)
        except ConfigError as exc:
            raise ConfigError(f"field [filter] test_functions: {exc}") from exc
        for token in lb.replace("^2", "").split("*"):
            if _coord_index(token) >= model.dim:
                raise ConfigError(
                    f"field [filter] test_functions: {lb!r} reads a coordinate beyond "
                    f"the model's dim {model.dim}"
                )

    baseline = need_name("baseline", "method", BASELINES, "kalman")
    particles = need_int("baseline", "particles", "10000")
    least = 3 if baseline == "bootstrap_pf" else 2  # at N = 2 a PF's ESS never falls below N/2
    if particles < least:
        raise ConfigError(f"field [baseline] particles must be >= {least} for {baseline}")

    sweep_axis = need_name("sweep", "axis", ("dt", "R"), "dt")
    if steps is None and sweep_axis == "R":
        raise ConfigError("field [schedule] steps is required by an R sweep")
    sweep_values = need_floats("sweep", "values", "0.02, 0.01, 0.005")
    if not all(v > 0 for v in sweep_values):
        raise ConfigError("field [sweep] values must all be positive")
    if sweep_axis == "R" and not all(v > 1 for v in sweep_values):
        raise ConfigError("field [sweep] values: each radius must exceed 1 (mollifier support)")
    if sweep_axis == "R":
        # each radius gets its own grid at the [grid] spacing, so it must end on a node
        spacing = 2 * radius / (points - 1)
        for v in sweep_values:
            if abs(v / spacing - round(v / spacing)) > 1e-9:
                raise ConfigError(
                    f"field [sweep] values: radius {v!r} is not an integer multiple of the "
                    f"[grid] spacing {spacing!r}"
                )
    oracle = need_name("sweep", "oracle", SWEEP_ORACLES, "kalman")
    # err <= C*sqrt(dt) bounds the dt slope from below only, so the default band is one-sided.
    band = need_floats("sweep", "slope_band", "0.35, inf", finite=False)
    if len(band) != 2 or not math.isfinite(band[0]) or band[0] >= band[1]:
        raise ConfigError(
            "field [sweep] slope_band must be two increasing numbers, the first finite"
        )

    seed_base = need_int("run", "seed_base", "0")
    if seed_base < 0:
        raise ConfigError("field [run] seed_base must be >= 0")
    seed_count = need_int("run", "seeds", "50")
    if seed_count < 1:
        raise ConfigError("field [run] seeds must be >= 1")
    output_dir = _get(parser, "output", "directory", "out")

    resolved = {
        "model.name": name,
        "model.dim": "" if dim is None else dim,
        "grid.radius": radius,
        "grid.points": points,
        "schedule.terminal": terminal,
        "schedule.steps": "" if steps is None else steps,
        "filter.substeps": substeps,
        "filter.test_functions": ",".join(labels),
        "baseline.method": baseline,
        "baseline.particles": particles,
        "sweep.axis": sweep_axis,
        "sweep.values": ",".join(repr(v) for v in sweep_values),
        "sweep.oracle": oracle,
        "sweep.slope_band": ",".join(repr(v) for v in band),
        "run.seed_base": seed_base,
        "run.seeds": seed_count,
        "output.directory": output_dir,
    }
    known = {tuple(k.split(".")) for k in resolved}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"section [{section}] is not a known section")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"field [{section}] {key} is not a known key")
    raw_dump = "\n".join(f"{k}={v}" for k, v in sorted(resolved.items()))

    return ExperimentConfig(
        model=model,
        grid_radius=radius,
        grid_points=points,
        terminal=terminal,
        steps=steps,
        substeps=substeps,
        test_function_labels=labels,
        baseline=baseline,
        particles=particles,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        oracle=oracle,
        slope_band=band,
        seed_base=seed_base,
        seed_count=seed_count,
        output_dir=output_dir,
        raw_dump=raw_dump,
    )
