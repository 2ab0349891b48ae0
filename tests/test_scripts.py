"""Smoke tests: each experiment script runs on tiny inputs and writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        ("kalman_agreement.py", ["--seeds", "2", "--steps", "20", "--points", "61"],
         "seed,mean_abs_gap", 2),
        # the script fixes its grid at 241 points
        ("nonlinear_crossval.py", ["--seeds", "2", "--steps", "20", "--particles", "500"],
         "seed,mean_abs_gap,frac_within_3se", 2),
    ],
)
def test_script_writes_its_table(tmp_path, script, args, header, rows):
    out = tmp_path / "table.csv"
    proc = _run(script, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


def test_mass_collapse_names_its_step_size(tmp_path):
    # dt = 0.05 is too coarse for the cubic sensor: the clamp guard trips, and
    # its message must name the step size, not only the knot.
    proc = _run("nonlinear_crossval.py", "--model", "cubic_sensor", "--steps", "20",
                "--seeds", "2", "--particles", "500", "--out", str(tmp_path / "t.csv"))
    assert proc.returncode != 0
    assert "dt=0.05" in proc.stderr
    # the shared error boundary prints one line, not a traceback
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
