import json
import logging
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from yyfilter import (
    TimeSchedule,
    bootstrap_pf,
    build_grid,
    builtin_model,
    coordinate,
    kalman_filter,
    ks_monte_carlo,
    run_filter,
    simulate,
)
from yyfilter.baselines import BASELINES, PARTICLE_SEED_OFFSET, SWEEP_ORACLES
from yyfilter.cli import main
from yyfilter.config import CONFIG_KEYS, REQUIRED, ConfigError, load_config
from yyfilter.filtering import DEFAULT_SUBSTEPS
from yyfilter.sde import PATH_SUBSTEPS

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

BASE_CONFIG = """\
[model]
name = linear1d

[grid]
radius = 6.0
points = 61

[schedule]
terminal = 0.2
steps = 10

[run]
seeds = 2
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_minimal_config_defaults_applied(tmp_path, caplog):
    path = _write(tmp_path, BASE_CONFIG)
    with caplog.at_level(logging.INFO, logger="yyfilter"):
        cfg = load_config(path)
    assert cfg.substeps == 4
    assert cfg.test_function_labels == ("x1",)
    echoed = " ".join(r.message for r in caplog.records)
    assert "substeps" in echoed and "default" in echoed


def test_config_k_zero_rejected(tmp_path):
    path = _write(tmp_path, BASE_CONFIG.replace("steps = 10", "steps = 0"))
    with pytest.raises(ConfigError, match="K must be >= 1"):
        load_config(path)


def test_config_unknown_model_lists_registry(tmp_path):
    path = _write(tmp_path, BASE_CONFIG.replace("linear1d", "wat"))
    with pytest.raises(ConfigError, match="linear1d.*benes"):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.ini")


def test_config_parse_error_has_line_number(tmp_path):
    path = _write(tmp_path, "[model]\nname = linear1d\nbroken-line-without-value\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_config_hash_stable(tmp_path):
    a = load_config(_write(tmp_path, BASE_CONFIG, "a.ini"))
    b = load_config(_write(tmp_path, BASE_CONFIG, "b.ini"))
    assert a.config_hash == b.config_hash
    c = load_config(_write(tmp_path, BASE_CONFIG.replace("0.2", "0.4"), "c.ini"))
    assert c.config_hash != a.config_hash


@pytest.mark.parametrize("name, digest", [
    ("convergence_rate.ini", "a3010cff8897e8b5"),
    ("kalman_agreement.ini", "143651312f7a0e0b"),
    ("linear1d_demo.ini", "64aa2a808653b594"),
    ("nonlinear_crossval.ini", "24c6ea7822fd42aa"),
    ("radius_truncation.ini", "ca82ab7e20af10c8"),
])
def test_shipped_config_hash_pinned(name, digest):
    # the hash heads every output file: a change to how the loader resolves or
    # dumps a key would silently relabel old outputs
    assert load_config(str(CONFIGS / name)).config_hash == digest


def test_readme_lists_every_config_key_with_its_default():
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `[") and len(cells) == 3:
            rows[cells[0]] = cells[1]
    for k in CONFIG_KEYS:
        want = ("required" if k.default is REQUIRED else "unset" if k.default is None
                else f"`{k.default}`")
        assert rows.get(f"`[{k.section}] {k.key}`") == want, (k.section, k.key)
    assert len(rows) == len(CONFIG_KEYS)


def test_test_function_labels_are_stored_as_parsed(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_CONFIG + "\n[filter]\ntest_functions = x01, x1 ^2\n"))
    assert cfg.test_function_labels == ("x1", "x1^2")


def test_cmd_filter_writes_csv_with_header(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = main(["filter", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    files = sorted(out.glob("filter_s*.csv"))
    assert len(files) == 2
    lines = files[0].read_text().splitlines()
    assert lines[0].startswith("# yyfilter 0.1.0 config_hash=")
    assert lines[1] == "t,x1,mass_log_scale,clamped_mass"
    assert len(lines) == 2 + 11  # header comment + column row + K+1 knots


def test_product_label_is_written_in_its_canonical_order(tmp_path):
    text = BASE_CONFIG.replace("linear1d", "linearNd").replace("points = 61", "points = 41")
    cfg_path = _write(tmp_path, text + "\n[filter]\ntest_functions = x2*x1\n")
    out = tmp_path / "out"
    assert main(["filter", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "filter_s0.csv").read_text().splitlines()[1] == (
        "t,x1*x2,mass_log_scale,clamped_mass"
    )


def test_config_values_are_read_literally(tmp_path):
    # no %-interpolation: out% once raised from configparser, %(seeds)s read another key
    cfg = load_config(_write(tmp_path, BASE_CONFIG + "\n[output]\ndirectory = out%(seeds)s%\n"))
    assert cfg.output_dir == "out%(seeds)s%"


def test_cmd_filter_rerun_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["filter", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["filter", "--config", cfg_path, "--out", str(out2)]) == 0
    a = (out1 / "filter_s0.csv").read_bytes()
    b = (out2 / "filter_s0.csv").read_bytes()
    assert a == b


def test_cmd_simulate_writes_paths(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "paths_s0.csv").read_text().splitlines()
    assert lines[1] == "t,X_1,Y_1"


def _table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# yyfilter 0.1.0 config_hash=")
    return lines[1], [ln.split(",") for ln in lines[2:]]


def test_cmd_baseline_kalman(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG + "\n[baseline]\nmethod = kalman\n")
    out = tmp_path / "base"
    assert main(["baseline", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "kalman_s0.csv").exists()
    header, rows = _table(out / "agreement.csv")
    assert header == "seed,mean_abs_gap"
    model = builtin_model("linear1d")
    sched = TimeSchedule(0.2, 10)
    obs = [ys for _, ys in simulate(model, sched, substeps=PATH_SUBSTEPS, seed=[0, 1])]
    outs = run_filter(model, build_grid(1, 6.0, 61), sched, obs, [coordinate(0)],
                      substeps=DEFAULT_SUBSTEPS)
    gaps = [np.mean(np.abs(o.estimates[1:, 0] - k.means[1:, 0]))
            for o, k in zip(outs, kalman_filter(model, sched, obs))]
    assert rows == [["0", repr(float(gaps[0]))], ["1", repr(float(gaps[1]))]]


def test_cmd_baseline_particle_agreement_and_offset_seed(tmp_path):
    cfg_path = _write(
        tmp_path, BASE_CONFIG + "\n[baseline]\nmethod = bootstrap_pf\nparticles = 500\n"
    )
    out = tmp_path / "base"
    assert main(["baseline", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _table(out / "agreement.csv")
    assert header == "seed,mean_abs_gap,frac_within_3se"
    assert [r[0] for r in rows] == ["0", "1"]
    assert all(float(r[1]) > 0 and 0 <= float(r[2]) <= 1 for r in rows)
    # the particle stream is offset from the path's own, which drew the hidden X_0
    model = builtin_model("linear1d")
    sched = TimeSchedule(0.2, 10)
    _, ys = simulate(model, sched, substeps=PATH_SUBSTEPS, seed=0)
    pf = bootstrap_pf(model, sched, ys, [coordinate(0)], 500, seed=PARTICLE_SEED_OFFSET)
    assert (out / "bootstrap_pf_s0.csv").read_text().split("\n", 1)[1] == pf.to_csv()


def test_cmd_baseline_ks_monte_carlo(tmp_path):
    cfg_path = _write(
        tmp_path, BASE_CONFIG + "\n[baseline]\nmethod = ks_monte_carlo\nparticles = 500\n"
    )
    out = tmp_path / "base"
    assert main(["baseline", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _table(out / "agreement.csv")
    assert header == "seed,mean_abs_gap,frac_within_3se"
    assert all(float(r[1]) > 0 and 0 <= float(r[2]) <= 1 for r in rows)
    model = builtin_model("linear1d")
    sched = TimeSchedule(0.2, 10)
    _, ys = simulate(model, sched, substeps=PATH_SUBSTEPS, seed=0)
    ks = ks_monte_carlo(model, sched, ys, [coordinate(0)], 500, substeps=PATH_SUBSTEPS,
                        seed=PARTICLE_SEED_OFFSET)
    assert (out / "ks_monte_carlo_s0.csv").read_text().split("\n", 1)[1] == ks.to_csv()


def _body(path):
    return path.read_text().split("\n", 1)[1]  # the file without its config-hash line


def test_filter_substeps_moves_the_filter_not_the_paths(tmp_path):
    for n in (4, 8):
        cfg_path = _write(tmp_path, BASE_CONFIG + f"\n[filter]\nsubsteps = {n}\n", f"s{n}.ini")
        for command in ("simulate", "filter"):
            out = str(tmp_path / f"{command}{n}")
            assert main([command, "--config", cfg_path, "--out", out]) == 0
    for seed in (0, 1):
        name = f"paths_s{seed}.csv"
        assert _body(tmp_path / "simulate4" / name) == _body(tmp_path / "simulate8" / name)
    model, sched = builtin_model("linear1d"), TimeSchedule(0.2, 10)
    obs = [ys for _, ys in simulate(model, sched, substeps=PATH_SUBSTEPS, seed=[0, 1])]
    outs = run_filter(model, build_grid(1, 6.0, 61), sched, obs, [coordinate(0)], substeps=8)
    for seed, out in zip((0, 1), outs):
        assert _body(tmp_path / "filter8" / f"filter_s{seed}.csv") == out.to_csv()


def test_cubic_baseline_is_the_acceptance_cross_validation_cell(tmp_path):
    # as in the acceptance suite: paths at PATH_SUBSTEPS, the grid filter at 8
    # stages, the particle filter on the path's seed plus the offset
    text = BASE_CONFIG.replace("linear1d", "cubic_sensor").replace("points = 61", "points = 241")
    text = text.replace("terminal = 0.2\nsteps = 10", "terminal = 0.05\nsteps = 50")
    text += "\n[filter]\nsubsteps = 8\n\n[baseline]\nmethod = bootstrap_pf\nparticles = 300\n"
    out = tmp_path / "base"
    assert main(["baseline", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    _, rows = _table(out / "agreement.csv")
    model, sched, phi = builtin_model("cubic_sensor"), TimeSchedule(0.05, 50), [coordinate(0)]
    grid = build_grid(1, 6.0, 241)
    for seed, row in zip((0, 1), rows):
        _, ys = simulate(model, sched, substeps=PATH_SUBSTEPS, seed=seed)
        est = run_filter(model, grid, sched, ys, phi, substeps=8).estimates[1:, 0]
        pf = bootstrap_pf(model, sched, ys, phi, 300, seed=seed + PARTICLE_SEED_OFFSET)
        gap = np.abs(est - pf.estimates[1:, 0])
        frac = np.mean(gap <= 3 * np.maximum(pf.stderr[1:, 0], 1e-12))
        assert row == [str(seed), repr(float(gap.mean())), repr(float(frac))]


@pytest.mark.parametrize(
    "command, section, field",
    [
        ("baseline", "", "[baseline] method"),  # method defaults to kalman
        ("sweep", "\n[sweep]\naxis = dt\nvalues = 0.04, 0.02\n", "[sweep] oracle"),
    ],
)
def test_kalman_oracle_on_a_nonlinear_model_is_refused_before_compute(
    tmp_path, capsys, monkeypatch, command, section, field
):
    cfg_path = _write(tmp_path, BASE_CONFIG.replace("linear1d", "benes") + section)
    load_config(cfg_path)  # the config itself is valid: `filter` runs on it

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr("yyfilter.cli.simulate", no_simulation)
    monkeypatch.setattr("yyfilter.diagnostics.simulate", no_simulation)
    out = tmp_path / command
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "'benes'" in err
    assert not out.exists()


def test_sweeps_need_two_seeds_other_commands_take_one(tmp_path, capsys):
    one_seed = BASE_CONFIG.replace("seeds = 2", "seeds = 1")
    for sweep in ("axis = dt\nvalues = 0.04, 0.02", "axis = R\nvalues = 3, 4"):
        out = tmp_path / "sweep"
        cfg_path = _write(tmp_path, one_seed + f"\n[sweep]\n{sweep}\n")
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        assert "[run] seeds" in capsys.readouterr().err
        assert not out.exists()
    for command, written in (("filter", "filter_s0.csv"), ("baseline", "kalman_s0.csv")):
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, one_seed), "--out", str(out)]) == 0
        assert (out / written).exists()


def test_unknown_oracle_lists_the_valid_names(tmp_path):
    for section, names in (("[sweep]\noracle = bootstrap_pf", SWEEP_ORACLES),
                           ("[baseline]\nmethod = fine_oracle", BASELINES)):
        with pytest.raises(ConfigError, match=re.escape(f"valid names: {', '.join(names)}")):
            load_config(_write(tmp_path, BASE_CONFIG + f"\n{section}\n"))


def test_mass_collapse_names_its_step_size(tmp_path, capsys):
    # dt = 0.05 is too coarse for the cubic sensor: the clamp guard trips, and
    # its message must name the step size, not only the knot.
    text = BASE_CONFIG.replace("linear1d", "cubic_sensor").replace("points = 61", "points = 241")
    text = text.replace("terminal = 0.2\nsteps = 10", "terminal = 1.0\nsteps = 20")
    text += "\n[filter]\nsubsteps = 8\n\n[baseline]\nmethod = bootstrap_pf\nparticles = 500\n"
    out = tmp_path / "base"
    assert main(["baseline", "--config", _write(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "dt=0.05" in err
    # main prints one line, not a traceback, and a failed run writes nothing
    assert "Traceback" not in err
    assert "error: " in err
    assert not out.exists()


def test_cmd_sweep_summary_json(tmp_path):
    cfg_path = _write(
        tmp_path,
        BASE_CONFIG + "\n[sweep]\naxis = dt\nvalues = 0.04, 0.02, 0.01\noracle = kalman\n",
    )
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg_path, "--out", str(out)])
    payload = json.loads((out / "summary.json").read_text().splitlines()[1])
    assert "slope" in payload and "pass" in payload
    assert np.isfinite(payload["slope"])
    assert (out / "sweep.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "sweep.csv"]
    assert code == (0 if payload["pass"] else 1)


def test_cmd_validate_passes_for_registry(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg_path, "--out", str(out)]) == 0
    assert "pass" in (out / "validation.txt").read_text()


def test_cli_bad_config_exit_code(tmp_path):
    cfg_path = _write(tmp_path, BASE_CONFIG.replace("steps = 10", "steps = 0"))
    assert main(["filter", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "section, line, field",
    [
        ("filter", "substeps = 4.5", "[filter] substeps"),
        ("sweep", "slope_band = 0.35, nan", "[sweep] slope_band"),
        ("sweep", "slope_band = 0.35, high", "[sweep] slope_band"),
        ("model", "dim = two", "[model] dim"),
        ("model", "dim = 2", "[model] dim"),
        ("model", "name = linearNd\ndim = 5", "[model] dim"),
        ("baseline", "particles = 1e4.5", "[baseline] particles"),
        ("baseline", "method = bootstrap_pf\nparticles = 2", "[baseline] particles"),
        ("sweep", "values = 0.02, fast", "[sweep] values"),
        ("sweep", "values = 0.02, 0", "[sweep] values"),
        ("sweep", "values = -0.01", "[sweep] values"),
        ("run", "seed_base = 0.5", "[run] seed_base"),
        ("run", "seed_base = -3", "[run] seed_base"),
        ("run", "seeds = inf", "[run] seeds"),
        ("sweep", "values = 0.02, inf", "[sweep] values"),
        ("grid", "radius = inf", "[grid] radius"),
        ("schedule", "terminal = inf", "[schedule] terminal"),
        ("filter", "substep = 8", "[filter] substep"),
        ("run", "workers = 2", "[run] workers"),
        ("outputs", "directory = x", "[outputs]"),
        # [DEFAULT] would lend its keys to every section; it is refused by its own name
        ("DEFAULT", "seeds = 3", "[DEFAULT]"),
        # removed: the R axis reads the [grid] spacing
        ("sweep", "dx = 0", "[sweep] dx"),
        ("sweep", "axis = R\nvalues = 0.5, 2", "[sweep] values"),
        # 61 points on radius 6 give the R axis a spacing of 0.2
        ("sweep", "axis = R\nvalues = 3, 4.5", "[sweep] values"),
        ("filter", "test_functions = x3", "[filter] test_functions"),
        ("filter", "test_functions = x1, x1*x2", "[filter] test_functions"),
        ("filter", "test_functions = x0", "[filter] test_functions"),
        ("filter", "test_functions = x1*x1*x1", "[filter] test_functions"),
        ("filter", "test_functions = x1**2", "[filter] test_functions"),
        # no label, and a repeated one: no estimate column, or two with one header
        ("filter", "test_functions =", "[filter] test_functions"),
        ("filter", "test_functions = x1, x1", "[filter] test_functions"),
        # two spellings of one readout would also give two columns with one header
        ("filter", "test_functions = x1, x01", "[filter] test_functions"),
        ("filter", "test_functions = x1^2, x1 ^2", "[filter] test_functions"),
        ("filter", "test_functions = x1^2, x1*x1", "[filter] test_functions names 'x1^2' twice"),
        ("filter", "test_functions = x1*x2, x2*x1",
         "[filter] test_functions names 'x1*x2' twice"),
        # a repeated radius would run its level twice and write two sweep rows
        ("sweep", "axis = R\nvalues = 3, 6, 6", "[sweep] values"),
        # the R curve compares each radius with the largest, so one radius gives none
        ("sweep", "axis = R\nvalues = 3", "[sweep] values"),
        # the particle dt-sweep oracle is gone; the fine grid is no baseline
        ("sweep", "oracle = bootstrap_pf", "[sweep] oracle"),
        ("baseline", "method = fine_oracle", "[baseline] method"),
    ],
)
def test_cli_bad_numeric_field_exits_2_naming_it(tmp_path, capsys, section, line, field):
    key = line.split(" =")[0]
    text = "".join(ln for ln in BASE_CONFIG.splitlines(True) if not ln.startswith(f"{key} ="))
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    else:
        text += f"\n[{section}]\n{line}\n"
    cfg_path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(cfg_path)
    assert main(["filter", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "values",
    [
        "0.03, 0.02, 0.01",  # 0.03 does not divide the terminal time 0.1
        "0.02, 0.01, 0.01",  # a repeated dt would fit the slope to two distinct levels
    ],
)
def test_cli_bad_dt_sweep_values_exit_2_naming_them(tmp_path, capsys, monkeypatch, values):
    text = BASE_CONFIG.replace("terminal = 0.2", "terminal = 0.1").replace("steps = 10", "steps = 5")
    cfg_path = _write(tmp_path, text + f"\n[sweep]\naxis = dt\nvalues = {values}\n")
    load_config(cfg_path)  # the axis defaults to dt, so other commands must still load it
    assert main(["filter", "--config", cfg_path, "--out", str(tmp_path / "filter")]) == 0

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr("yyfilter.diagnostics.simulate", no_simulation)
    capsys.readouterr()
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert "[sweep] values" in capsys.readouterr().err
    assert not out.exists()


def test_dt_sweep_needs_no_steps_and_other_commands_refuse_its_absence(tmp_path, capsys):
    # A dt sweep takes its step counts from [sweep] values: with or without
    # [schedule] steps it writes the same table, under its own config hash.
    sweep = "\n[sweep]\naxis = dt\nvalues = 0.04, 0.02\noracle = kalman\n"
    no_steps = BASE_CONFIG.replace("steps = 10\n", "")
    assert load_config(_write(tmp_path, no_steps + sweep, "a.ini")).steps is None
    bodies, hashes = [], []
    for name, text in (("with.ini", BASE_CONFIG + sweep), ("without.ini", no_steps + sweep)):
        out = tmp_path / f"out_{name}"
        main(["sweep", "--config", _write(tmp_path, text, name), "--out", str(out)])
        header, *body = (out / "sweep.csv").read_text().splitlines()
        bodies.append(body)
        hashes.append(header)
    assert bodies[0] == bodies[1] and hashes[0] != hashes[1]

    capsys.readouterr()
    cfg_path = _write(tmp_path, no_steps + sweep, "a.ini")
    for command in ("simulate", "filter", "baseline"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert "[schedule] steps" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ConfigError, match=re.escape("[schedule] steps")):
        load_config(_write(tmp_path, no_steps + "\n[sweep]\naxis = R\nvalues = 3, 4\n", "r.ini"))


def test_config_slope_band_keeps_infinite_upper_edge(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_CONFIG + "\n[sweep]\nslope_band = 0.35, inf\n"))
    assert cfg.slope_band == (0.35, float("inf"))


DEMO_SWEEP_CONFIG = """\
[model]
name = linear1d

[grid]
radius = 6.0
points = 241

[schedule]
terminal = 1.0
steps = 1000

[run]
seeds = 5

[sweep]
axis = dt
values = 0.02, 0.01, 0.005, 0.0025
oracle = kalman
"""


def test_cmd_sweep_default_band_is_one_sided(tmp_path):
    # The O(sqrt(dt)) guarantee bounds the slope from below only: a run that
    # converges faster passes by default, while an explicit band is honoured.
    out = tmp_path / "default"
    code = main(["sweep", "--config", _write(tmp_path, DEMO_SWEEP_CONFIG), "--out", str(out)])
    payload = json.loads((out / "summary.json").read_text().splitlines()[1])
    assert payload["slope"] > 0.65
    assert payload["slope_in_band"] is True and payload["pass"] is True
    assert code == 0

    banded = DEMO_SWEEP_CONFIG + "slope_band = 0.35, 0.65\n"
    out = tmp_path / "banded"
    code = main(["sweep", "--config", _write(tmp_path, banded, "b.ini"), "--out", str(out)])
    payload = json.loads((out / "summary.json").read_text().splitlines()[1])
    assert payload["slope_in_band"] is False and payload["pass"] is False
    assert code == 1


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_shipped_config_loads(name):
    # a config field renamed or removed in the loader must fail here, not in a user's run
    load_config(str(CONFIGS / name))


@pytest.mark.parametrize(
    "name, rows", [("convergence_rate.ini", 4), ("radius_truncation.ini", 3)]
)
def test_shipped_sweep_config_writes_its_table(tmp_path, name, rows):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# yyfilter ")
    assert lines[1] == "axis,value,mean_err,stderr,n"
    assert len(lines) == 2 + rows


def test_shipped_kalman_agreement_config_writes_its_table(tmp_path):
    out = tmp_path / "agreement"
    assert main(["baseline", "--config", str(CONFIGS / "kalman_agreement.ini"),
                 "--out", str(out)]) == 0
    header, rows = _table(out / "agreement.csv")
    assert header == "seed,mean_abs_gap"
    assert len(rows) == 50
