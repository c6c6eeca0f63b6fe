"""Tests of the benchmark itself: every output check rejects a corrupted
input, and a tiny run of every workload passes in both modes.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
from vortexbody.biotsavart import BlobField  # noqa: E402
from vortexbody.geometry import build_mesh, ellipse  # noqa: E402
from vortexbody.lab import CheckRow  # noqa: E402
from vortexbody.limit_system import VortexWaveState, vw_step  # noqa: E402
from vortexbody.potential import build_potential_set  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up ------------------------------------------------------------------

def test_added_mass_check_rejects_perturbed_entry():
    mass = build_potential_set(build_mesh(ellipse(2.0, 1.0), 64)).mass
    assert checks.added_mass_failures(mass, 2.0, 1.0) == []
    for i in range(3):
        bad = mass.copy()
        bad[i, i] *= 1.0 + 1e-9
        assert len(checks.added_mass_failures(bad, 2.0, 1.0)) == 1
    assert checks.added_mass_failures(mass, 1.0, 2.0)


# -- limit run ---------------------------------------------------------------

@pytest.fixture(scope="module")
def limit_step():
    """A small vortex-wave state, the program's step and the reference."""
    rng = np.random.default_rng(7)
    rad = rng.uniform(1.0, 1.8, 40)
    ang = rng.uniform(0.0, 2.0 * np.pi, 40)
    x = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    strengths = rng.uniform(0.01, 0.03, 40)
    gamma, dt, delta = 2.0 * np.pi, 1e-3, 0.15
    state = VortexWaveState(h=[0.05, -0.02],
                            field=BlobField(x, strengths, delta, "lab"),
                            gamma=gamma)
    after = vw_step(state, dt)
    h0 = complex(*state.h)
    z0 = x[:, 0] + 1j * x[:, 1]
    h1, z1 = checks.vortex_wave_rk4(h0, z0, strengths, delta, gamma, dt)
    impulse = gamma * after.h + strengths @ after.field.x
    row1 = {"h1": after.h[0], "h2": after.h[1],
            "impulse1": impulse[0], "impulse2": impulse[1]}
    reference = (h0, z0, h1, z1, strengths, gamma)
    return reference, row1, after.field.x.copy(), state


def test_limit_step_check_accepts_the_program_step(limit_step):
    reference, row1, blobs1, _ = limit_step
    spot = np.arange(blobs1.shape[0])
    assert checks.limit_step_failures(reference, row1, blobs1, spot) == []


def test_limit_step_check_rejects_wrong_step(limit_step):
    reference, row1, blobs1, state = limit_step
    spot = np.array([3, 11, 29])
    # forward Euler for the vortex instead of RK4
    h0 = reference[0]
    h_dot, _ = checks.vortex_wave_rates(h0, reference[1], reference[4],
                                        0.15, reference[5])
    euler = h0 + 1e-3 * h_dot
    bad = dict(row1, h1=euler.real, h2=euler.imag)
    assert checks.limit_step_failures(reference, bad, blobs1, spot)
    moved = blobs1.copy()
    moved[11] += 1e-9
    assert checks.limit_step_failures(reference, row1, moved, spot)
    assert checks.limit_step_failures(reference, dict(row1, impulse2=
                                                      row1["impulse2"] + 1e-9),
                                      blobs1, spot)


def test_impulse_drift_check():
    impulse = np.tile([0.3, -1.2], (11, 1))
    impulse[5, 1] += 1e-16
    assert checks.impulse_drift_failures(impulse, 10.0) == []
    impulse[7, 0] += 1e-9
    assert checks.impulse_drift_failures(impulse, 10.0)


# -- coupled runs ------------------------------------------------------------

EPS = (0.2, 0.1, 0.05)
SUP_H = [4.97e-3, 4.57e-3, 1.79e-3]
TRANSPORT = [2.7e-4, 6.6e-5, 1.5e-5]


def _rows():
    return [{"eps": e, "aborted": None, "t_eps": 0.010000000000000002,
             "steps": 10, "energy_drift": d, "sup_h_distance": h,
             "sup_transport": t}
            for e, d, h, t in zip(EPS, (2.5e-14, 8.9e-12, 7.9e-9),
                                  SUP_H, TRANSPORT)]


def _failed(rows, sup_h=SUP_H, transport=TRANSPORT, markers=()):
    msgs = checks.coupled_row_failures(rows, EPS, 0.01, 10, sup_h,
                                       transport, set(markers))
    return [bool(m) for m in msgs]


def test_coupled_check_accepts_a_converging_sweep():
    assert _failed(_rows()) == [False, False, False]


def test_coupled_check_rejects_rows_in_wrong_order():
    rows = _rows()
    rows[1], rows[2] = rows[2], rows[1]
    assert any(_failed(rows, [SUP_H[i] for i in (0, 2, 1)],
                       [TRANSPORT[i] for i in (0, 2, 1)]))
    # eps labels out of config order while the distances still fall
    relabeled = _rows()
    relabeled[1]["eps"], relabeled[2]["eps"] = 0.05, 0.1
    assert _failed(relabeled) == [False, True, True]


def test_coupled_check_rejects_non_convergence():
    rows = _rows()
    rows[2]["sup_h_distance"] = 5e-3
    assert _failed(rows, SUP_H[:2] + [5e-3]) == [False, False, True]


@pytest.mark.parametrize("field,value", [
    ("aborted", "dt-guard"), ("t_eps", 0.009), ("steps", 9),
    ("energy_drift", 2e-4), ("energy_drift", math.nan),
    ("sup_h_distance", 4.6e-3), ("sup_transport", 7e-5)])
def test_coupled_check_rejects_corrupted_row(field, value):
    rows = _rows()
    rows[1][field] = value
    assert _failed(rows)[1]


def test_coupled_check_rejects_abort_marker():
    assert _failed(_rows(), markers={"coupled-eps0.05"}) == [False, False,
                                                            True]


# -- identities --------------------------------------------------------------

def test_identity_check_rejects_failing_rows():
    good = CheckRow("field", "disk", "phi1 moment z", 1e-9, 1e-6)
    assert checks.identity_row_failures([good]) == []
    bad = CheckRow("field", "disk", "phi1 moment z", 2e-6, 1e-6)
    nan = CheckRow("mass", "disk", "symmetry", math.nan, 1e-12)
    assert len(checks.identity_row_failures([good, bad, nan])) == 2


# -- whole runs --------------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes(workload, trace):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "sweep-308", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
