"""Configuration parsing, artifact layout, determinism, abort markers,
exit codes, and the aggregated identity report."""

import csv
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexbody import lab, normal_form
from vortexbody.biotsavart import BodyCollisionError
from vortexbody.coupled_system import VorticityPatch
from vortexbody.geometry import disk, ellipse
from vortexbody.lab import (
    CANONICAL_SHAPES,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    assemble_report,
    check,
    compare,
    fit_slope,
    initial_field,
    main,
    parse_config,
    potential_facts,
    run,
)
from vortexbody.potential import build_mass_data, build_potential_set

BASE = """\
[shape]
preset = ellipse
a = 2.0
b = 1.0
panels = 64

[body]
alpha = 2.0
gamma = 6.283185307179586
ell0 = 0.5 0.0

[vorticity]
patch = 1.0 1.4 1.0
spacing = 0.35
delta = 0.15

[sweep]
eps = 0.2 0.1

[time]
t = 0.02
dt = 0.002

[run]
seed = 3
rho = 4.0
"""


def write_config(tmp_path, text=BASE, name="exp.ini", **replacements):
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


# --------------------------------------------------------------------------
# configuration


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.shape.name == "ellipse"
    assert cfg.panels == 64
    assert cfg.eps == (0.2, 0.1)
    assert cfg.alpha == 2.0 and cfg.m1 == 1.0 and cfg.J1 == 1.0
    assert cfg.gamma == pytest.approx(2 * np.pi)
    assert cfg.ell0 == (0.5, 0.0) and cfg.r0 == 0.0
    assert cfg.patches == (VorticityPatch(1.0, 1.4, 1.0, spacing=0.35,
                                          delta=0.15),)
    assert cfg.T == 0.02 and cfg.dt == 0.002 and cfg.steps == 10
    assert cfg.seed == 3 and cfg.rho == 4.0


def test_parse_config_minimal(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[sweep]\neps = 0.1\n"))
    assert cfg.shape.name == "disk"
    assert cfg.patches == ()
    assert cfg.gamma == 0.0
    assert cfg.out.name == "runs"


def test_parse_config_rejects_garbage(tmp_path):
    for text in (
        "[volume]\neps = 0.1\n",                      # unknown section
        "[sweep]\neps = 0.1\nepz = 2\n",              # unknown key
        "[shape]\npreset = rhombus\n[sweep]\neps = 0.1\n",
        "[sweep]\neps = 0.1 banana\n",
        "[sweep]\neps = 0.1\n[vorticity]\npatch = 1.0 1.4\n",
        "[sweep]\neps = 0.1\n[body]\nell0 = 1.0\n",
        "[sweep]\neps = 0.1\n[time]\ndt = 2.0\nt = 1.0\n",
        "[sweep]\neps = 0.1\n[shape]\npanels = 65\n",
        "[sweep]\neps = 0.1\n[vorticity]\ndelta = -0.1\n",
        "[sweep]\neps = 0.1\n[vorticity]\ndelta = 0\n",
        "[sweep]\neps = 0.1\n[vorticity]\ndelta = nan\n",
        "[sweep]\neps = 0.1\n[vorticity]\npatch = 1.0 1.4 1.0\n"
        "delta = -0.1\n",
        "[sweep]\neps = nan 0.1\n",
        "[sweep]\neps = inf\n",
        "[sweep]\neps = 0.1\n[shape]\npreset = ellipse\na = nan\n",
        "[sweep]\neps = 0.1\n[shape]\npreset = disk\nradius = inf\n",
        "[sweep]\neps = 0.1\n[shape]\npreset = perturbed-disk\ncos_2 = nan\n",
        "[sweep]\neps = 0.1\n[run]\nseed = -1\n",
        "[sweep]\neps = 0.1\n[vorticity]\npatch = 1.0 1.4 nan\n",
        "[sweep]\neps = 0.1\n[vorticity]\npatch = 1.0 inf 1.0\n",
        "[sweep]\neps = 5%\n",
    ):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text, name="bad.ini"))
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.ini")


def test_config_invariants(tmp_path):
    good = parse_config(write_config(tmp_path))
    for field, value in (("eps", ()), ("eps", (0.1, 0.2)), ("eps", (0.1, 0.1)),
                         ("eps", (-0.1,)), ("m1", 0.0), ("J1", -1.0),
                         ("rho", 1.0), ("panels", 8), ("panels", 65),
                         ("T", np.inf), ("dt", 0.0), ("delta", 0.0),
                         ("delta", -0.15), ("delta", np.nan),
                         ("delta", np.inf), ("eps", (np.nan, 0.1)),
                         ("eps", (np.inf,)), ("seed", -1),
                         ("shape", ellipse(2.0, np.nan)),
                         ("patches", (VorticityPatch(1.0, 1.4, np.nan),))):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(good, **{field: value})


# every key parse_config knows, with perturbed-disk modes up to 8, and a
# valid value for each
CONFIG_KEYS = {
    "shape": {"preset": ("disk", "ellipse", "perturbed-disk"),
              "panels": ("64",), "radius": ("1.0",), "a": ("2.0",),
              "b": ("1.0",), "cos_0": ("0.1",), "cos_2": ("0.2",),
              "sin_3": ("-0.1",), "cos_8": ("0.05",), "sin_8": ("0",)},
    "body": {"alpha": ("2.0", "0"), "m1": ("1.0",), "j1": ("0.5",),
             "gamma": ("6.28", "0", "-1"), "ell0": ("0.5 0.0",),
             "r0": ("0", "0.3")},
    "vorticity": {"spacing": ("0.35",), "delta": ("0.15",),
                  "patch": ("1.0 1.4 1.0",), "patch2": ("1.5 1.8 -0.5",)},
    "sweep": {"eps": ("0.2 0.1", "0.1")},
    "time": {"t": ("0.02",), "dt": ("0.002",)},
    "run": {"out": ("runs",), "seed": ("0", "3"), "rho": ("4.0",)},
}
TOKENS = st.one_of(
    st.floats(-4.0, 4.0).map(repr),
    st.integers(-8, 300).map(str),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "banana", "5%", "",
                     "disk", "ellipse", "perturbed-disk"]),
)


@st.composite
def config_texts(draw):
    # eps is always given, so that a good share of the texts parse
    lines = []
    for section, valid in CONFIG_KEYS.items():
        keys = draw(st.lists(st.sampled_from(sorted(valid)), unique=True))
        if section == "sweep":
            keys = ["eps"]
        if keys or draw(st.booleans()):
            lines.append(f"[{section}]")
        for key in keys:
            junk = st.lists(TOKENS, min_size=1, max_size=3).map(" ".join)
            value = draw(st.one_of(st.sampled_from(valid[key]), junk))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(config_texts())
def test_config_text_fails_closed(text):
    # parse only: a text is a ConfigError or a config with finite data
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), text)
        try:
            cfg = parse_config(path)
        except ConfigError:
            return
    assert np.isfinite(cfg.eps).all() and min(cfg.eps) > 0
    assert np.isfinite(np.asarray(cfg.shape.coeffs, complex)).all()
    scalars = (cfg.alpha, cfg.m1, cfg.J1, cfg.gamma, *cfg.ell0, cfg.r0,
               cfg.T, cfg.dt, cfg.spacing, cfg.rho,
               *(v for p in cfg.patches for v in (p.inner, p.outer,
                                                   p.vorticity)))
    assert np.isfinite(scalars).all()
    assert cfg.delta is None or np.isfinite(cfg.delta)
    assert cfg.seed >= 0
    assert cfg.steps >= 1


def test_support_separation_guard(tmp_path):
    # an eps = 0.3 ellipse has circumradius 0.6; twice that exceeds the
    # support start at 1.0
    path = write_config(tmp_path, **{"eps = 0.2 0.1": "eps = 0.3"})
    with pytest.raises(ConfigError):
        parse_config(path)


def test_initial_field_frames_agree(tmp_path):
    text = BASE.replace("patch = 1.0 1.4 1.0",
                        "patch = 1.0 1.2 1.0\npatch2 = 1.3 1.5 -0.5")
    cfg = parse_config(write_config(tmp_path, text))
    body = initial_field(cfg, "body")
    lab = initial_field(cfg, "lab")
    assert body.frame == "body" and lab.frame == "lab"
    assert np.array_equal(body.x, lab.x)
    assert np.array_equal(body.gamma, lab.gamma)
    assert (body.gamma < 0).any() and (body.gamma > 0).any()


# --------------------------------------------------------------------------
# compare and slopes


def _record(h, blobs, kind="coupled", eps=0.2):
    m = len(h)
    n = blobs.shape[1]
    return RunRecord(
        kind=kind, eps=None if kind == "limit" else eps,
        t=np.arange(m) * 0.1, h=np.asarray(h, dtype=float),
        gamma=np.ones(m), beta=np.full(m, float(n)),
        support=np.ones((m, 2)), blob_lab=np.asarray(blobs, dtype=float),
        blob_gamma=np.ones(n), aborted=None, abort_detail="",
        t_eps=0.1 * (m - 1), elapsed=0.0,
        impulse=np.zeros((m, 2)) if kind == "limit" else None)


def test_compare_identical_is_zero():
    h = np.random.default_rng(0).normal(size=(6, 2))
    blobs = np.random.default_rng(1).normal(size=(6, 4, 2))
    row = compare(_record(h, blobs), _record(h, blobs, kind="limit"))
    assert row["sup_h_distance"] == 0.0
    assert row["sup_transport"] == 0.0


def test_compare_shift_is_the_distance():
    h = np.zeros((5, 2))
    blobs = np.zeros((5, 3, 2))
    shifted = _record(h + [0.3, -0.4], blobs + [0.3, -0.4])
    row = compare(shifted, _record(h, blobs, kind="limit"))
    assert row["sup_h_distance"] == pytest.approx(0.5)
    assert row["sup_transport"] == pytest.approx(0.5)


def test_compare_rejects_mismatched_lattices():
    h = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        compare(_record(h, np.zeros((4, 3, 2))),
                _record(h, np.zeros((4, 5, 2)), kind="limit"))


def test_report_drifts_are_measured(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    h = np.zeros((5, 2))
    blobs = np.zeros((5, 3, 2))
    rec = _record(h, blobs)
    rec.energy = np.ones(5)
    rec.ell = np.zeros((5, 2))
    rec.r = np.zeros(5)
    rec.beta = np.array([3.0, 3.0, 3.5, 3.0, 2.75])
    rec.gamma = np.array([1.0, 1.0, 1.0, 1.0, 1.125])
    row = assemble_report(cfg, [rec], _record(h, blobs, kind="limit")).rows[0]
    assert row["beta_drift"] == 0.5
    assert row["gamma_drift"] == 0.125


def test_fit_slope():
    eps = [0.2, 0.1, 0.05, 0.025]
    vals = [3.0 * e ** 2 for e in eps]
    out = fit_slope(eps, vals)
    assert out["value"] == pytest.approx(2.0, abs=1e-12)
    assert out["stderr"] == pytest.approx(0.0, abs=1e-10)
    assert fit_slope([0.2, 0.1], [1.0, 0.5])["stderr"] is None
    assert fit_slope([0.2], [1.0]) is None
    assert fit_slope(eps, [0.0] * 4) is None


# --------------------------------------------------------------------------
# runs and artifacts


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = parse_config(write_config(tmp))
    records, report = run(cfg, out_dir=tmp / "out")
    return cfg, records, report, tmp / "out"


def test_artifact_inventory(tiny_run):
    _, records, _, out = tiny_run
    names = sorted(f.name for f in out.iterdir())
    assert names == [
        "coupled-eps0.1-blobs.csv", "coupled-eps0.1-trajectory.csv",
        "coupled-eps0.2-blobs.csv", "coupled-eps0.2-trajectory.csv",
        "data-dictionary.md", "limit-blobs.csv", "limit-trajectory.csv",
        "report.json", "summary.json",
    ]
    assert len(records) == 3


def test_trajectory_csv_schema(tiny_run):
    cfg, _, _, out = tiny_run
    with open(out / "coupled-eps0.2-trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "h1", "h2", "theta", "ell1", "ell2", "r",
                       "energy", "gamma", "beta", "support_min", "support_max"]
    assert len(rows) == cfg.steps + 2
    gamma_col = {row[8] for row in rows[1:]}
    beta_col = {row[9] for row in rows[1:]}
    assert len(gamma_col) == 1 and len(beta_col) == 1  # conserved verbatim

    with open(out / "limit-trajectory.csv", newline="") as fh:
        head = next(csv.reader(fh))
    assert head == ["t", "h1", "h2", "impulse1", "impulse2",
                    "support_min", "support_max"]


def test_blob_csv_schema(tiny_run):
    _, records, _, out = tiny_run
    with open(out / "limit-blobs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "gamma", "x1_start", "x2_start",
                       "x1_end", "x2_end"]
    assert len(rows) - 1 == records[0].blob_gamma.size
    assert [row[0] for row in rows[1:]] == [str(j) for j in range(len(rows) - 1)]


def test_report_content(tiny_run):
    cfg, _, report, out = tiny_run
    saved = json.loads((out / "report.json").read_text())
    assert [row["eps"] for row in saved["rows"]] == [0.2, 0.1]
    for row in saved["rows"]:
        assert row["aborted"] is None
        assert row["gamma_drift"] == 0.0 and row["beta_drift"] == 0.0
        assert row["energy_drift"] < 1e-6
        assert row["t_eps"] == pytest.approx(cfg.T)
        assert row["sup_h_distance"] > 0
    assert "lattice index" in saved["metadata"]["matching"]
    assert saved["limit"]["impulse_drift"] < 1e-12
    assert report.rows[0]["sup_h_distance"] == saved["rows"][0]["sup_h_distance"]


def test_summary_content(tiny_run):
    _, _, _, out = tiny_run
    summary = json.loads((out / "summary.json").read_text())
    kinds = [r["kind"] for r in summary["runs"]]
    assert kinds == ["coupled", "coupled", "limit"]
    assert all(r["aborted"] is None for r in summary["runs"])


def test_determinism_byte_identical(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    run(cfg, out_dir=tmp_path / "a", threads=2)
    run(cfg, out_dir=tmp_path / "b", threads=1)
    for name in ("coupled-eps0.2-trajectory.csv", "coupled-eps0.1-blobs.csv",
                 "limit-trajectory.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_trivial_config_reports_zero(tmp_path):
    # no vorticity, no circulation, body at rest: nothing may move
    text = BASE.replace("gamma = 6.283185307179586", "gamma = 0.0")
    text = text.replace("ell0 = 0.5 0.0", "ell0 = 0.0 0.0")
    text = text.replace("patch = 1.0 1.4 1.0\n", "")
    cfg = parse_config(write_config(tmp_path, text))
    records, report = run(cfg, out_dir=tmp_path / "out")
    for row in report.rows:
        assert row["sup_h_distance"] == 0.0
        assert row["sup_transport"] == 0.0
        assert row["energy_drift"] == 0.0
        assert row["peak_momentum"] == 0.0
        assert row["aborted"] is None
    assert report.limit["impulse_drift"] == 0.0
    for rec in records:
        assert np.all(rec.h == 0.0)


# --------------------------------------------------------------------------
# aborts and exit codes


def test_limit_collision_abort(tmp_path):
    # cores five times fatter than the gap to the vortex: the guard fires
    path = write_config(tmp_path, **{"delta = 0.15": "delta = 0.35"})
    code = main(["converge", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    marker = json.loads((tmp_path / "out" / "limit.aborted").read_text())
    assert marker["reason"] == "collision"
    # partial artifacts are still on disk
    assert (tmp_path / "out" / "limit-trajectory.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_dt_guard_abort(tmp_path):
    path = write_config(tmp_path, **{"t = 0.02": "t = 1.0",
                                     "dt = 0.002": "dt = 1.0"})
    code = main(["converge", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    marker = json.loads(
        (tmp_path / "out" / "coupled-eps0.2.aborted").read_text())
    assert marker["reason"] == "dt-guard"


def test_coupled_collision_abort(tmp_path):
    path = write_config(tmp_path, **{"delta = 0.15": "delta = 0.5",
                                     "t = 0.02": "t = 1.0",
                                     "dt = 0.002": "dt = 1.0"})
    cfg = parse_config(path)
    records, _ = run(cfg, out_dir=tmp_path / "out")
    assert records[0].aborted == "collision"


def test_stage_collision_aborts(tmp_path, monkeypatch):
    # a blob entering the body inside an RK stage stops that run like any
    # other abort: partial artifacts, a marker, exit code 2
    real_step = lab.coupled_step

    def step(state, dt):
        if round(state.t / dt) == 2:
            raise BodyCollisionError("blob inside the body")
        return real_step(state, dt)

    monkeypatch.setattr(lab, "coupled_step", step)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--threads", "1"])
    assert code == 2
    for eps in ("0.2", "0.1"):
        marker = json.loads((out / f"coupled-eps{eps}.aborted").read_text())
        assert marker["reason"] == "collision"
        assert marker["t_reached"] == pytest.approx(0.004)
        with open(out / f"coupled-eps{eps}-trajectory.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 3
    assert (out / "report.json").exists()


def test_nonfinite_state_aborts(tmp_path, monkeypatch):
    # a NaN in a sampled value ends the run before the annulus test reads
    # it: partial artifacts without the bad sample, a marker, exit code 2
    real_step = lab.coupled_step

    def step(state, dt):
        new = real_step(state, dt)
        if round(state.t / dt) == 2:
            new = replace(new, ell=[np.nan, 0.0])
        return new

    monkeypatch.setattr(lab, "coupled_step", step)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--threads", "1"])
    assert code == 2
    for eps in ("0.2", "0.1"):
        marker = json.loads((out / f"coupled-eps{eps}.aborted").read_text())
        assert marker["reason"] == "non-finite"
        assert "ell" in marker["detail"]
        assert marker["t_reached"] == pytest.approx(0.004)
        with open(out / f"coupled-eps{eps}-trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3
        assert np.isfinite(np.array(rows[1:], dtype=float)).all()
    report = json.loads((out / "report.json").read_text())
    assert all(row["aborted"] == "non-finite" for row in report["rows"])
    assert not (out / "limit.aborted").exists()


def _reject_constant(token):
    raise ValueError(f"report.json holds {token}, which strict JSON rejects")


def test_rejected_sample_stays_out_of_the_report(tmp_path, monkeypatch):
    # the NaN sample after step 6 of 10 is dropped before the normal-form
    # diagnostics read the run
    real_step = lab.coupled_step

    def step(state, dt):
        new = real_step(state, dt)
        if round(state.t / dt) == 6:
            new = replace(new, ell=[np.nan, 0.0])
        return new

    monkeypatch.setattr(lab, "coupled_step", step)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--threads", "1"])
    assert code == 2
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    for row in report["rows"]:
        assert row["aborted"] == "non-finite" and row["steps"] == 6
        assert np.isfinite(row["residual_fitted_C"])
        assert np.isfinite(row["monitor_fitted_C"])


def test_nonfinite_stage_input_aborts(tmp_path, monkeypatch, capfd, caplog):
    # a NaN handed to the stepper stops the run before any boundary solve
    # sees it: a marker, partial artifacts, exit code 2, no traceback
    real_step = lab.coupled_step

    def step(state, dt):
        if round(state.t / dt) == 2:
            state = replace(state, ell=[np.nan, 0.0])
        return real_step(state, dt)

    monkeypatch.setattr(lab, "coupled_step", step)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--threads", "1"])
    assert code == 2
    for eps in ("0.2", "0.1"):
        marker = json.loads((out / f"coupled-eps{eps}.aborted").read_text())
        assert marker["reason"] == "non-finite"
        assert marker["t_reached"] == pytest.approx(0.004)
        with open(out / f"coupled-eps{eps}-trajectory.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 3
    json.loads((out / "report.json").read_text(),
               parse_constant=_reject_constant)
    assert "Traceback" not in capfd.readouterr().err + caplog.text


def test_modulation_runs_once_per_kept_sample(tmp_path, monkeypatch):
    real = normal_form.modulation
    seen = []

    def counted(state):
        seen.append(state.t)
        return real(state)

    monkeypatch.setattr(normal_form, "modulation", counted)
    cfg = parse_config(write_config(tmp_path))
    records, report = run(cfg, out_dir=tmp_path / "out", threads=1)
    coupled = [r for r in records if r.kind == "coupled"]
    assert seen == [t for rec in coupled for t in rec.t]
    assert all(row["residual_fitted_C"] is not None for row in report.rows)


def test_annulus_exit_abort(tmp_path):
    path = write_config(tmp_path, **{"rho = 4.0": "rho = 1.2"})
    cfg = parse_config(path)
    records, report = run(cfg, out_dir=tmp_path / "out")
    assert all(r.aborted == "annulus-exit" for r in records)
    assert all(row["t_eps"] == 0.0 for row in report.rows)
    marker = json.loads(
        (tmp_path / "out" / "coupled-eps0.2.aborted").read_text())
    assert marker["reason"] == "annulus-exit"
    assert "outside" in marker["detail"]


def test_cli_exit_codes(tmp_path, caplog):
    bad = tmp_path / "bad.ini"
    bad.write_text("[shape]\npreset = rhombus\n")
    assert main(["converge", "--config", str(bad)]) == 1
    assert main(["converge", "--config", str(tmp_path / "nowhere.ini")]) == 1
    assert main(["simulate-coupled"]) == 1  # config required

    good = write_config(tmp_path)
    assert main(["simulate-coupled", "--config", str(good),
                 "--out", str(tmp_path / "sc"), "--threads", "2"]) == 0
    names = sorted(f.name for f in (tmp_path / "sc").iterdir())
    assert "limit-trajectory.csv" not in names
    assert "coupled-eps0.2-trajectory.csv" in names

    assert main(["simulate-limit", "--config", str(good),
                 "--out", str(tmp_path / "sl")]) == 0
    assert (tmp_path / "sl" / "limit-trajectory.csv").exists()

    # a pool of fewer than one worker is a ConfigError before any work
    for threads in ("0", "-1"):
        caplog.clear()
        out = tmp_path / f"threads{threads}"
        assert main(["converge", "--config", str(good), "--out", str(out),
                     "--threads", threads]) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert not out.exists()

    # the thread pool exists only where there is a scale sweep
    for command in ("check-identities", "potentials", "simulate-limit"):
        with pytest.raises(SystemExit):
            main([command, "--threads", "2"])


@pytest.mark.parametrize("t, dt", [("1e300", "1e-300"), ("1e12", "1e-6")],
                         ids=["overflow", "no-memory"])
def test_huge_step_count_fails_closed(tmp_path, capfd, caplog, t, dt):
    # T / dt overflowing is a ConfigError; 1e18 steps fail to allocate
    # their series: both are exit 1 with a logged message
    path = write_config(tmp_path, **{"t = 0.02": f"t = {t}",
                                     "dt = 0.002": f"dt = {dt}"})
    assert main(["simulate-limit", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert any(r.levelname == "ERROR" for r in caplog.records)
    assert "Traceback" not in capfd.readouterr().err + caplog.text


# --------------------------------------------------------------------------
# identity aggregation and potential facts


def test_check_report(tmp_path):
    report = check(panels=64, seed=1)
    assert report.all_passed
    shapes = {r.shape for r in report.rows}
    assert shapes == {name for name, _ in CANONICAL_SHAPES}
    groups = {r.group for r in report.rows}
    assert groups == {"geometry", "field", "mass", "tensor"}
    payload = report.to_payload()
    json.dumps(payload)  # stays serializable
    assert payload["all_passed"] is True
    assert "NO" not in report.table()

    code = main(["check-identities", "--config",
                 str(write_config(tmp_path)), "--out", str(tmp_path / "chk")])
    assert code == 0
    saved = json.loads((tmp_path / "chk" / "identities.json").read_text())
    assert saved["all_passed"] is True


def _poisoned_mass_data(pset):
    md = build_mass_data(pset)
    mass = md.mass.copy()
    mass[0, 0] = np.nan
    return replace(md, mass=mass)


def test_tensor_row_fails_on_nonfinite_mass(monkeypatch):
    # a NaN in the mass data must fail the zero-work row, not drop out of
    # the reduction over draws
    monkeypatch.setattr(lab, "build_mass_data", _poisoned_mass_data)
    report = check(panels=64)
    tensor = [r for r in report.rows if r.group == "tensor"]
    assert len(tensor) == len(CANONICAL_SHAPES)
    assert not any(r.passed for r in tensor)
    assert not report.all_passed


def test_psd_row_fails_on_nonfinite_mass(monkeypatch):
    # eigvalsh returns finite eigenvalues for a matrix holding a NaN, so
    # the row must test the matrix itself
    def poisoned(mesh):
        pset = build_potential_set(mesh)
        mass = pset.mass.copy()
        mass[0, 0] = np.nan
        return replace(pset, mass=mass)

    monkeypatch.setattr(lab, "build_potential_set", poisoned)
    report = check(panels=64)
    psd = [r for r in report.rows if r.name == "positive semidefinite"]
    assert len(psd) == len(CANONICAL_SHAPES)
    assert not any(r.passed for r in psd)


def test_identities_json_is_strict(tmp_path, monkeypatch):
    # a NaN row error is written as null with passed false, never as a
    # bare NaN token
    monkeypatch.setattr(lab, "build_mass_data", _poisoned_mass_data)
    out = tmp_path / "chk"
    code = main(["check-identities", "--config", str(write_config(tmp_path)),
                 "--out", str(out)])
    assert code == 2
    saved = json.loads((out / "identities.json").read_text(),
                       parse_constant=_reject_constant)
    assert saved["all_passed"] is False
    tensor = [r for r in saved["rows"] if r["group"] == "tensor"]
    assert tensor and all(r["error"] is None and r["passed"] is False
                          for r in tensor)


def test_potential_facts_disk(tmp_path):
    facts = potential_facts(disk(), panels=128)
    assert facts["area"] == pytest.approx(np.pi, abs=1e-10)
    assert facts["circulation_laurent_head"]["im"] == pytest.approx(
        -1.0 / (2 * np.pi), abs=1e-10)
    assert abs(facts["circulation_laurent_head"]["re"]) < 1e-12
    assert np.abs(facts["xi"]).max() < 1e-12
    assert facts["field_identity_max_error"] < 1e-8

    code = main(["potentials", "--out", str(tmp_path / "pot")])
    assert code == 0
    assert (tmp_path / "pot" / "potentials.json").exists()
