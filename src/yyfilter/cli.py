"""Command-line surface and experiment orchestration.

Subcommands: simulate, filter, baseline, sweep, validate.  Every output
file begins with a comment line carrying the toolkit version and the
config hash; CSVs use comma separators, '.' decimals, '\\n' line ends,
UTF-8.  Exit status is 0 only when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LINEAR_ORACLES, ORACLES, ParticleResult, agreement
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import check_dt_levels, convergence_sweep, radius_sweep, validate_assumptions
from .filtering import run_filter
from .pde import build_grid
from .sde import PATH_SUBSTEPS, paths_to_csv, simulate
from .tables import csv_table

log = logging.getLogger("yyfilter")


def _header(cfg: ExperimentConfig) -> str:
    return f"# yyfilter {__version__} config_hash={cfg.config_hash}\n"


def _write(cfg: ExperimentConfig, out_dir: Path, name: str, body: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(_header(cfg) + body, encoding="utf-8", newline="\n")
    log.info("wrote %s", target)
    return target


def _grid(cfg: ExperimentConfig):
    return build_grid(cfg.model.dim, cfg.grid_radius, cfg.grid_points)


def _simulate(cfg: ExperimentConfig):
    """One (state, observation) pair per seed, at PATH_SUBSTEPS whatever [filter] substeps says."""
    return simulate(cfg.model, cfg.schedule, substeps=PATH_SUBSTEPS, seed=cfg.seeds)


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    for seed, (xs, ys) in zip(cfg.seeds, _simulate(cfg)):
        _write(cfg, out_dir, f"paths_s{seed}.csv", paths_to_csv(xs, ys))
    return 0


def cmd_filter(cfg: ExperimentConfig, out_dir: Path) -> int:
    obs = [ys for _, ys in _simulate(cfg)]
    outs = run_filter(cfg.model, _grid(cfg), cfg.schedule, obs, cfg.test_functions(),
                      substeps=cfg.substeps)
    for seed, out in zip(cfg.seeds, outs):
        _write(cfg, out_dir, f"filter_s{seed}.csv", out.to_csv())
    return 0


def _refuse_nonlinear(cfg: ExperimentConfig, field: str, oracle: str) -> None:
    """Refuse, before any compute, an oracle that needs a linear model."""
    if oracle in LINEAR_ORACLES and cfg.model.linear is None:
        raise ConfigError(
            f"field {field}: oracle {oracle!r} needs a linear model, and model "
            f"{cfg.model.name!r} is not declared linear"
        )


def cmd_baseline(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Oracle files per seed, and agreement.csv: per seed, mean |grid - oracle| of the
    first test function (and, for a particle oracle, the share of knots within 3 se)."""
    model, schedule = cfg.model, cfg.schedule
    _refuse_nonlinear(cfg, "[baseline] method", cfg.baseline)
    grid, phis = _grid(cfg), cfg.test_functions()
    label = phis[0].label
    obs = [ys for _, ys in _simulate(cfg)]
    outs = run_filter(model, grid, schedule, obs, phis[:1], substeps=cfg.substeps)
    results = ORACLES[cfg.baseline](model, schedule, obs, phis, cfg.seeds, cfg.particles)
    particle = isinstance(results[0], ParticleResult)
    gaps, shares = zip(*(
        agreement(out.estimates[:, 0], res.column(label),
                  res.stderr_column(label) if particle else None)
        for out, res in zip(outs, results)
    ))
    table = {"seed": [str(s) for s in cfg.seeds], "mean_abs_gap": gaps}
    if particle:
        table["frac_within_3se"] = shares
    for seed, res in zip(cfg.seeds, results):
        _write(cfg, out_dir, f"{cfg.baseline}_s{seed}.csv", res.to_csv())
    _write(cfg, out_dir, "agreement.csv", csv_table(list(table), list(table.values())))
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    if len(cfg.seeds) < 2:
        raise ConfigError("field [run] seeds: a sweep needs at least 2, for its standard errors")
    model, grid = cfg.model, _grid(cfg)
    phi = cfg.test_functions()[0]
    if cfg.sweep_axis == "dt":
        _refuse_nonlinear(cfg, "[sweep] oracle", cfg.oracle)
        # not on load: the axis defaults to dt, and another command's config
        # need not fit its terminal time to the default dt values
        try:
            check_dt_levels(cfg.terminal, cfg.sweep_values)
        except ValueError as exc:
            raise ConfigError(f"field [sweep] values: {exc}") from exc
        result = convergence_sweep(model, grid, cfg.terminal, cfg.sweep_values, cfg.seeds,
                                   oracle=cfg.oracle, phi=phi, substeps=cfg.substeps)
        lo, hi = cfg.slope_band
        flags = {"slope_in_band": bool(not np.isnan(result.slope) and lo <= result.slope <= hi)}
        monotone = "monotone"
    else:
        result = radius_sweep(
            model,
            cfg.schedule,
            cfg.sweep_values,
            grid.spacing,
            cfg.seeds,
            phi=phi,
            substeps=cfg.substeps,
        )
        flags = {"tail_monotone_in_R": bool(np.all(np.diff(result.extras["tail_mass"]) <= 1e-12))}
        monotone = "error_monotone_in_R"
    # no error exceeds the one before it by more than their two standard errors
    flags[monotone] = bool(
        np.all(np.diff(result.mean_err) <= result.stderr[:-1] + result.stderr[1:])
    )
    _write(cfg, out_dir, "sweep.csv", result.to_csv())
    summary = result.summary_json(**flags)
    _write(cfg, out_dir, "summary.json", summary + "\n")
    log.info("sweep summary: %s", summary)
    return 0 if json.loads(summary)["pass"] else 1


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = validate_assumptions(
        cfg.model, cfg.grid_radius, seed=cfg.seed_base, test_functions=cfg.test_functions()
    )
    body = str(report) + "\n"
    _write(cfg, out_dir, "validation.txt", body)
    print(report)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="yyfilter",
        description="Grid-based nonlinear filtering toolkit",
    )
    parser.add_argument("command", choices=["simulate", "filter", "baseline", "sweep", "validate"])
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)

    command = {"simulate": cmd_simulate, "filter": cmd_filter, "baseline": cmd_baseline,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    try:
        return command(cfg, out_dir)
    except ConfigError as exc:  # a field the command needs and the config leaves out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface module errors as one `error:` line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
