import numpy as np
import pytest

from yyfilter.baselines import bootstrap_pf, kalman_filter
from yyfilter.diagnostics import SweepResult
from yyfilter.filtering import run_filter
from yyfilter.models import TimeSchedule, builtin_model, coordinate, squared_coordinate
from yyfilter.pde import build_grid
from yyfilter.sde import paths_to_csv, simulate
from yyfilter.tables import csv_table


def _filter_table():
    model = builtin_model("linear1d")
    schedule = TimeSchedule(0.2, 10)
    _, obs = simulate(model, schedule, seed=4)
    out = run_filter(model, build_grid(1, 6.0, 61), schedule, obs,
                     [coordinate(0), squared_coordinate(0)])
    return out.to_csv(), {
        "t": schedule.knots,
        "x1": out.column("x1"),
        "x1^2": out.column("x1^2"),
        "mass_log_scale": out.mass_log_scale,
        "clamped_mass": out.clamped_mass,
    }


def _kalman_table():
    model = builtin_model("linearNd")
    schedule = TimeSchedule(0.2, 8)
    _, obs = simulate(model, schedule, seed=2)
    res = kalman_filter(model, schedule, obs)
    return res.to_csv(), {
        "t": schedule.knots,
        "mean_1": res.means[:, 0],
        "mean_2": res.means[:, 1],
        "var_1": res.covs[:, 0, 0],
        "var_2": res.covs[:, 1, 1],
    }


def _particle_table():
    model = builtin_model("benes")
    schedule = TimeSchedule(0.2, 6)
    _, obs = simulate(model, schedule, seed=3)
    res = bootstrap_pf(model, schedule, obs, [coordinate(0)], 200, seed=0)
    return res.to_csv(), {
        "t": schedule.knots,
        "x1": res.column("x1"),
        "x1_stderr": res.stderr_column("x1"),
        "ess": res.ess,
    }


def _paths_table():
    xs, ys = simulate(builtin_model("linearNd", dim=3), TimeSchedule(0.3, 7), seed=9)
    expected = {"t": xs.schedule.knots}
    for name, path in (("X", xs), ("Y", ys)):
        for i in range(3):
            expected[f"{name}_{i + 1}"] = path.values[:, i]
    return paths_to_csv(xs, ys), expected


def _sweep_table():
    res = SweepResult(
        axis="R",
        values=np.array([3.0, 4.5, 6.0]),
        mean_err=np.array([1 / 3, 2e-17, 0.0]),
        stderr=np.array([0.1, np.pi * 1e-20, 0.0]),
        n=7,
        slope=float("nan"),
        slope_halfwidth=float("nan"),
    )
    return res.to_csv(), {
        "axis": ["R"] * 3,
        "value": res.values,
        "mean_err": res.mean_err,
        "stderr": res.stderr,
        "n": [7] * 3,
    }


@pytest.mark.parametrize(
    "table",
    [_filter_table, _kalman_table, _particle_table, _paths_table, _sweep_table],
)
def test_every_table_round_trips_exactly(table):
    text, expected = table()
    header, *rows = text.splitlines()
    assert header.split(",") == list(expected)
    cells = [row.split(",") for row in rows]
    assert len(cells) == len(next(iter(expected.values())))
    for j, (name, column) in enumerate(expected.items()):
        got = [row[j] for row in cells]
        if name == "axis":
            assert got == column
        else:
            assert [float(c) for c in got] == [float(v) for v in column], name


def test_csv_table_writes_str_cells_as_given_and_refuses_ragged_columns():
    assert csv_table(["k", "v"], [["1", "2"], [0.1, np.float64(3)]]) == "k,v\n1,0.1\n2,3.0\n"
    with pytest.raises(ValueError):
        csv_table(["a", "b"], [[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        csv_table(["a"], [[1.0], [2.0]])
