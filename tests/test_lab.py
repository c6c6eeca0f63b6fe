"""Configuration parsing, artifact layout, determinism, abort markers,
exit codes, and the aggregated identity report."""

import csv
import gc
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vortexbody import lab
from vortexbody.biotsavart import BodyCollisionError
from vortexbody.coupled_system import VorticityPatch
from vortexbody.geometry import build_mesh, disk, ellipse, perturbed_disk
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
    assert cfg.patches == (VorticityPatch(1.0, 1.4, 1.0),)
    assert cfg.spacing == 0.35 and cfg.delta == 0.15
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
                         ("T", np.inf), ("dt", 0.0), ("spacing", 0.0),
                         ("spacing", -0.1), ("spacing", np.nan),
                         ("spacing", np.inf), ("delta", 0.0),
                         ("delta", -0.15), ("delta", np.nan),
                         ("delta", np.inf), ("eps", (np.nan, 0.1)),
                         ("eps", (np.inf,)), ("seed", -1),
                         ("shape", ellipse(2.0, np.nan))):
        with pytest.raises(ConfigError):
            replace(good, **{field: value})
    # a non-finite patch never reaches the config
    with pytest.raises(ValueError, match="vorticity must be finite"):
        VorticityPatch(1.0, 1.4, np.nan)


def test_time_must_be_whole_steps(tmp_path):
    # 0.01 / 0.003 would round to 3 steps and stop at t = 0.009
    path = write_config(tmp_path, **{"t = 0.02": "t = 0.01",
                                     "dt = 0.002": "dt = 0.003"})
    with pytest.raises(ConfigError, match="whole step count"):
        parse_config(path)
    # 0.009 / 0.003 is 3 up to roundoff
    path = write_config(tmp_path, **{"t = 0.02": "t = 0.009",
                                     "dt = 0.002": "dt = 0.003"})
    assert parse_config(path).steps == 3


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
                     "disk", "ellipse", "perturbed-disk", "1e-100", "1e300"]),
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


# the disk preset at radius 1e300, far beyond geometry.EXTENT_MAX
HUGE_SHAPE = "[shape]\na = 2.0\nb = 1.0\nradius = 1e300\n[sweep]\neps = 0.2 0.1\n"


@settings(max_examples=100, deadline=None)
@given(config_texts())
@example(HUGE_SHAPE)
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


EXTREME_CORE = ("[shape]\npreset = ellipse\na = 2.0\nb = 1.0\npanels = 64\n"
                "[vorticity]\npatch = 1.0 1.3 1.0\nspacing = 0.3\n"
                "delta = {}\n[sweep]\neps = 0.1\n[time]\nt = 0.002\n"
                "dt = 0.001\n")


@settings(max_examples=25, deadline=None)
@given(config_texts())
@example(EXTREME_CORE.format("1e100"))
@example(EXTREME_CORE.format("1e160"))
@example(EXTREME_CORE.format("1e-60"))
@example(EXTREME_CORE.format("1e-100"))
@example(EXTREME_CORE.format("1e-200"))
@example(HUGE_SHAPE)
def test_accepted_config_runs_or_fails_closed(text):
    # two steps of every config that parses: a ConfigError, or records
    # that are aborted exactly when their .aborted marker exists, with no
    # numpy warning on the way
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tmp = Path(tmp)
        try:
            cfg = parse_config(write_config(tmp, text))
        except ConfigError:
            return
        # skip big lattices before discretizing: pi outer^2 / spacing^2
        # bounds a patch's blob count
        s2 = cfg.spacing * cfg.spacing
        if sum(np.pi * p.outer * p.outer for p in cfg.patches) > 500 * s2:
            return
        try:
            records, _ = run(replace(cfg, T=2 * cfg.dt), tmp / "out")
        except ConfigError:
            return
        for rec in records:
            marker = tmp / "out" / f"{rec.label}.aborted"
            assert (rec.aborted is not None) == marker.exists(), rec.label


def test_support_separation_guard(tmp_path):
    # an eps = 0.3 ellipse has circumradius 0.6; twice that exceeds the
    # nearest blob at 1.020.  init_coupled decides this on the blobs, so
    # the config parses and the run stops before any step
    cfg = parse_config(write_config(tmp_path, **{"eps = 0.2 0.1": "eps = 0.3"}))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="eps=0.3: body circumradius"):
        run(cfg, out)
    assert not out.exists()


def test_separation_is_decided_on_the_blobs(tmp_path):
    # at eps = 0.2501 the body's circumradius 0.5002 is more than half the
    # patch's inner radius 1.0, but less than half the nearest blob
    # distance 1.020: the run goes ahead
    path = write_config(tmp_path, **{"eps = 0.2 0.1": "eps = 0.2501"})
    cfg = parse_config(path)
    assert min(np.hypot(*initial_field(cfg, "body").x.T)) > 1.0004
    assert main(["converge", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


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


def test_config_owns_the_lattice(tmp_path):
    # spacing and delta live on the config alone, so a replaced value
    # reaches the blob field
    cfg = parse_config(write_config(tmp_path))
    finer = parse_config(write_config(
        tmp_path, **{"spacing = 0.35": "spacing = 0.1"}))
    n = initial_field(replace(cfg, spacing=0.1), "lab").n
    assert n == initial_field(finer, "lab").n > initial_field(cfg, "lab").n
    assert initial_field(replace(cfg, delta=0.3), "body").delta == 0.3
    assert initial_field(replace(cfg, delta=None), "body").delta == 0.35


def test_patchless_config_converges(tmp_path):
    # the empty field runs both systems; only the body and vortex move
    path = write_config(tmp_path, **{"patch = 1.0 1.4 1.0\n": ""})
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["blobs"] == 0
    assert report["limit"]["aborted"] is None
    for row in report["rows"]:
        assert row["aborted"] is None and row["sup_transport"] == 0.0
        assert row["sup_h_distance"] > 0.0
    assert (out / "limit-blobs.csv").read_text().count("\n") == 1


# --------------------------------------------------------------------------
# compare and slopes


def _record(h, blobs, kind="coupled", eps=0.2):
    m = len(h)
    n = blobs.shape[1]
    # a coupled record holds its modulation columns, here all zero
    modulated = ({} if kind == "limit" else
                 dict(drift=np.zeros((m, 2)), a=np.zeros(m), b=np.zeros(m),
                      p_modulated=np.zeros((m, 3))))
    return RunRecord(
        kind=kind, eps=None if kind == "limit" else eps,
        t=np.arange(m) * 0.1, h=np.asarray(h, dtype=float),
        gamma=np.ones(m), beta=np.full(m, float(n)),
        support=np.ones((m, 2)), blob_lab=np.asarray(blobs, dtype=float),
        blob_gamma=np.ones(n), aborted=None, abort_detail="",
        t_eps=0.1 * (m - 1), elapsed=0.0,
        impulse=np.zeros((m, 2)) if kind == "limit" else None, **modulated)


def _mass(cfg):
    return build_mass_data(build_potential_set(build_mesh(cfg.shape,
                                                          cfg.panels)))


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
    row = assemble_report(cfg, _mass(cfg), [rec],
                          _record(h, blobs, kind="limit")).rows[0]
    assert row["beta_drift"] == 0.5
    assert row["gamma_drift"] == 0.125


def test_impulse_drift_sees_the_impulse_turn(tmp_path):
    # the impulse is a conserved vector: turning it at constant norm
    # drifts by the chord, here 2 sin(pi/4) = sqrt 2
    cfg = parse_config(write_config(tmp_path))
    h = np.zeros((5, 2))
    blobs = np.zeros((5, 3, 2))
    coupled = _record(h, blobs)
    coupled.energy = np.ones(5)
    coupled.ell = np.zeros((5, 2))
    coupled.r = np.zeros(5)
    limit = _record(h, blobs, kind="limit")
    angle = np.linspace(0.0, 0.5 * np.pi, 5)
    limit.impulse = np.column_stack([np.cos(angle), np.sin(angle)])
    drift = assemble_report(cfg, _mass(cfg), [coupled],
                            limit).limit["impulse_drift"]
    assert drift == pytest.approx(np.sqrt(2.0), rel=1e-15)


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


def test_data_dictionary_names_every_report_key(tiny_run):
    _, _, _, out = tiny_run
    text = (out / "data-dictionary.md").read_text()
    section = text.split("## report.json\n")[1].split("\n## ")[0]

    def keys(value):
        if isinstance(value, dict):
            for key, inner in value.items():
                yield key
                yield from keys(inner)
        elif isinstance(value, list):
            for inner in value:
                yield from keys(inner)

    report = json.loads((out / "report.json").read_text())
    missing = {key for key in keys(report)
               if not re.search(rf"\b{re.escape(key)}\b", section)}
    assert not missing


def test_summary_content(tiny_run):
    _, _, _, out = tiny_run
    summary = json.loads((out / "summary.json").read_text())
    kinds = [r["kind"] for r in summary["runs"]]
    assert kinds == ["coupled", "coupled", "limit"]
    assert all(r["aborted"] is None for r in summary["runs"])


def test_determinism_byte_identical(tmp_path):
    # the sweep runs serially, so two runs of one config write the same
    # bytes
    cfg = parse_config(write_config(tmp_path,
                                    **{"eps = 0.2 0.1": "eps = 0.2 0.1 0.05"}))
    for tag in ("a", "b"):
        run(cfg, out_dir=tmp_path / tag)
    # summary.json holds wall times; every other artifact is compared
    names = sorted(p.name for p in (tmp_path / "a").iterdir()
                   if p.name != "summary.json")
    assert "coupled-eps0.05-blobs.csv" in names and "report.json" in names
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == \
            (tmp_path / "a" / name).read_bytes(), name


def test_finished_runs_release_their_initial_state(tmp_path, monkeypatch):
    # a run's stage scratch grows inside its initial state; a sweep that
    # kept every initial state would hold one scratch per finished scale
    real_run = lab.run_coupled
    started = []

    def run_coupled(config, state, first):
        gc.collect()
        assert all(ref() is None for ref in started)
        started.append(weakref.ref(state))
        return real_run(config, state, first)

    monkeypatch.setattr(lab, "run_coupled", run_coupled)
    run(parse_config(write_config(tmp_path)), tmp_path / "out")
    assert len(started) == 2


def test_csv_lines_match_csv_writer(tmp_path):
    header = ["index", "a", "b", "c", "d", "e"]
    rows = [(0, 1.5, -0.0, np.inf, -np.inf, np.nan),
            (7, np.float64(1.0) / 3.0, 1e-300, 5e-324, -1e300, 2)]
    # an index column, one (m, 2) column filling two, and two more
    cols = [np.array([0, 7]), np.array([r[1:3] for r in rows]),
            np.array([r[3] for r in rows]), np.array([r[4:] for r in rows])]
    lab._write_csv(tmp_path / "fast.csv", ",".join(header), cols)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(v):.17g}" for v in row])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    lines = (tmp_path / "fast.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "7"]

    # a table with no rows (a blob-free run's blob table) writes its header
    # line only; a one-row table, the header and that row's line
    for m in (0, 1):
        lab._write_csv(tmp_path / f"rows{m}.csv", ",".join(header),
                       [c[:m] for c in cols])
        assert (tmp_path / f"rows{m}.csv").read_text() == \
            "".join(line + "\n" for line in lines[:m + 1])


def test_energy_drift_from_zero_energy_is_absolute(tmp_path):
    # a blob-free body at rest starts at E0 = 0 and drifts by roundoff
    path = write_config(tmp_path, **{"alpha = 2.0": "alpha = 22",
                                     "eps = 0.2 0.1": "eps = 0.2",
                                     "patch = 1.0 1.4 1.0\n": "",
                                     "ell0 = 0.5 0.0": "ell0 = 0.0 0.0"})
    records, report = run(parse_config(path), out_dir=tmp_path / "out")
    assert records[0].energy[0] == 0.0
    drift = report.rows[0]["energy_drift"]
    assert np.isfinite(drift) and drift < 1e-12
    assert drift == np.abs(records[0].energy).max()


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
                 "--out", str(out)])
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
                 "--out", str(out)])
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
                 "--out", str(out)])
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
                 "--out", str(out)])
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
    real = lab.modulation
    seen = []

    def counted(state):
        seen.append(state.t)
        return real(state)

    monkeypatch.setattr(lab, "modulation", counted)
    cfg = parse_config(write_config(tmp_path))
    records, report = run(cfg, out_dir=tmp_path / "out")
    coupled = [r for r in records if r.kind == "coupled"]
    # every scale's row 0 is sampled before any run steps
    assert seen == ([rec.t[0] for rec in coupled]
                    + [t for rec in coupled for t in rec.t[1:]])
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


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[shape]\npreset = rhombus\n")
    assert main(["converge", "--config", str(bad)]) == 1
    assert main(["converge", "--config", str(tmp_path / "nowhere.ini")]) == 1
    assert main(["simulate-coupled"]) == 1  # config required

    good = write_config(tmp_path)
    assert main(["simulate-coupled", "--config", str(good),
                 "--out", str(tmp_path / "sc")]) == 0
    names = sorted(f.name for f in (tmp_path / "sc").iterdir())
    assert "limit-trajectory.csv" not in names
    assert "coupled-eps0.2-trajectory.csv" in names

    assert main(["simulate-limit", "--config", str(good),
                 "--out", str(tmp_path / "sl")]) == 0
    assert (tmp_path / "sl" / "limit-trajectory.csv").exists()

    # the sweep runs serially: no command takes --threads, and run's
    # threads argument is a ConfigError before any work unless it is 1
    for command in ("check-identities", "potentials", "simulate-coupled",
                    "simulate-limit", "converge"):
        with pytest.raises(SystemExit):
            main([command, "--threads", "2"])
    cfg = parse_config(good)
    for threads in (2, 0):
        out = tmp_path / f"threads{threads}"
        with pytest.raises(ConfigError, match="threads must be 1"):
            run(cfg, out, threads=threads)
        assert not out.exists()


def test_module_entry_point_runs_clean(tmp_path):
    # python -m vortexbody.lab runs the module as __main__; the package
    # must not have imported it first, or runpy warns on every run
    env = {**os.environ, "PYTHONPATH": str(Path(lab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "vortexbody.lab", "potentials", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-400:]
    assert out.stderr == ""


# runs the CLI with every scipy import refused, after checking that
# importing the library loaded none
NO_SCIPY = """\
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} refused")


sys.meta_path.insert(0, RefuseScipy())
import vortexbody.lab

loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
sys.exit(vortexbody.lab.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["check-identities", "converge"])
def test_library_runs_without_scipy(tmp_path, command):
    env = {**os.environ, "PYTHONPATH": str(Path(lab.__file__).resolve().parents[1])}
    args = [command, "--out", str(tmp_path / "out")]
    if command == "converge":
        args += ["--config",
                 str(write_config(tmp_path, **{"t = 0.02": "t = 0.004"}))]
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                          NO_SCIPY, *args],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-400:]


def test_config_run_meshes_once(tmp_path, monkeypatch):
    # parse_config meshes the shape to validate it, and the run solves on
    # that mesh
    built = []

    def counted(shape, panels):
        built.append(panels)
        return build_mesh(shape, panels)

    monkeypatch.setattr(lab, "build_mesh", counted)
    cfg = parse_config(write_config(tmp_path, **{"t = 0.02": "t = 0.004"}))
    run(cfg, tmp_path / "out")
    assert built == [64]


def test_potentials_command_meshes_once(tmp_path, monkeypatch):
    # the potentials command reads the mesh parse_config built
    built = []

    def counted(shape, panels):
        built.append(panels)
        return build_mesh(shape, panels)

    monkeypatch.setattr(lab, "build_mesh", counted)
    code = main(["potentials", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "pot")])
    assert code == 0
    assert built == [64]


def test_check_holds_one_potential_set_at_a_time():
    # each shape's potential set is freed before the next one is built:
    # the whole check peaks near one 512-panel build
    mesh = build_mesh(ellipse(2.0, 1.0), 512)
    tracemalloc.start()
    try:
        build_potential_set(mesh)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check(512)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole <= 1.5 * one


def test_unmeshable_shape_fails_closed(tmp_path, capfd, caplog):
    # cos_8 = 1.02 recentres on 72 panels, but self-intersects at 16
    path = write_config(tmp_path, "[shape]\npreset = perturbed-disk\n"
                        "cos_8 = 1.02\npanels = 16\n[sweep]\neps = 0.1\n")
    assert main(["potentials", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert "self-intersects" in caplog.text
    assert "Traceback" not in capfd.readouterr().err


# shapes that mesh at these panels but that the panels do not resolve
UNRESOLVED = {
    # the Neumann solve finds its data incompatible
    "cos127-256": ("preset = perturbed-disk\ncos_127 = 0.01\npanels = 256",
                   "incompatible Neumann data"),
    # m11 is 0.49 % off the 2048-panel value
    "cos200-256": ("preset = perturbed-disk\ncos_200 = 0.005\npanels = 256",
                   "'phi3 moment abs2' misses by 0.144"),
    # the same shape at 1/100 the size: the same miss in size units
    "cos200-256-small": ("preset = perturbed-disk\nradius = 0.01\n"
                         "cos_200 = 0.00005\npanels = 256",
                         "'phi3 moment abs2' misses by 0.144"),
    # m22 reads -2244 against pi a^2 = 7854
    "ellipse50-64": ("preset = ellipse\na = 50\nb = 1\npanels = 64",
                     "'z (H hat)^2 moment' misses by 0.199"),
}


@pytest.mark.parametrize("command", ["converge", "potentials"])
@pytest.mark.parametrize("shape, message", UNRESOLVED.values(),
                         ids=UNRESOLVED.keys())
def test_unresolved_shape_fails_closed(tmp_path, capfd, caplog, command,
                                       shape, message):
    path = write_config(tmp_path, f"[shape]\n{shape}\n[sweep]\neps = 0.1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and message in errors[0], errors
    assert not out.exists()
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("shape, panels", [
    (ellipse(50.0, 1.0), 1024),             # 1.1e-9
    (perturbed_disk({127: 0.01}, {}), 1024),  # 3.4e-7
    # resolved at any size: its largest row misses by 1.3e-3, which is
    # rounding at size 1000
    (disk(1000.0), 64)], ids=["ellipse50", "cos127", "disk1000"])
def test_resolved_counterpart_passes(shape, panels):
    facts = potential_facts(build_mesh(shape, panels))
    assert facts["shape"] == shape.name


def test_centroid_outside_body_fails_closed(tmp_path, capfd, caplog):
    path = write_config(tmp_path, "[shape]\npreset = perturbed-disk\n"
                        "cos_1 = -1.0\ncos_2 = -0.3\ncos_3 = 0.7\n"
                        "cos_4 = -0.3\n[sweep]\neps = 0.1\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 1
    assert "centroid outside the body" in caplog.text
    assert not out.exists()
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    # eps^4 underflows to 0: the inertia matrix is singular
    ("eps = 0.2 0.1", "eps = 1e-100", "positive definite"),
    # |ell0|^2 overflows: the initial energy is infinite
    ("ell0 = 0.5 0.0", "ell0 = 1e300 0.0", "non-finite initial energy")],
    ids=["underflowing-inertia", "infinite-energy"])
def test_unrunnable_state_fails_closed(tmp_path, capfd, caplog, old, new,
                                       message):
    path = write_config(tmp_path, **{old: new})
    assert main(["simulate-coupled", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert message in caplog.text
    assert "Traceback" not in capfd.readouterr().err


def test_bad_scale_fails_before_any_step(tmp_path, caplog):
    # eps = 1e-200 is rejected by init_coupled; every scale is checked
    # before the sweep steps one, so eps = 0.2 never runs
    caplog.set_level(logging.INFO)
    path = write_config(tmp_path, **{"panels = 64": "panels = 128",
                                     "spacing = 0.35": "spacing = 0.3",
                                     "t = 0.02": "t = 0.05",
                                     "dt = 0.002": "dt = 0.001",
                                     "eps = 0.2 0.1": "eps = 0.2 1e-200"})
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1, errors
    assert "eps=1e-200" in errors[0].getMessage()
    assert not any("steps" in r.getMessage() for r in caplog.records)
    assert not out.exists()


def test_nonfinite_initial_sample_fails_before_any_step(tmp_path, caplog):
    # eps^alpha m1 |ell0|^2 is finite at eps = 0.2 and overflows at 0.05:
    # every scale's first sample is checked before the sweep steps one
    caplog.set_level(logging.INFO)
    path = write_config(tmp_path, "[shape]\npreset = ellipse\npanels = 64\n"
                        "[body]\nalpha = -2.0\nm1 = 1e304\n"
                        "gamma = 6.283185307179586\nell0 = 10.0 0.0\n"
                        "[vorticity]\npatch = 1.0 1.3 1.0\nspacing = 0.3\n"
                        "[sweep]\neps = 0.2 0.05\n[time]\nt = 0.01\n"
                        "dt = 0.001\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["eps=0.05: non-finite initial energy"]
    assert not any("coupled-eps0.2:" in r.getMessage()
                   for r in caplog.records)
    assert not out.exists()


@pytest.mark.parametrize("text", [
    BASE.replace("ell0 = 0.5 0.0", "ell0 = 1e300 0"),
    "[shape]\npreset = perturbed-disk\ncos_2 = 1e308\ncos_3 = 1e308\n"
    "sin_2 = 1e308\n[sweep]\neps = 0.1\n"],
    ids=["infinite-energy", "overflowing-shape"])
def test_fail_closed_run_prints_no_warning(tmp_path, text):
    # the one logged error is all a rejected run prints
    path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["converge", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1


def test_overflowing_gyroscopic_scale_fails_closed(tmp_path, capfd, caplog):
    # eps ** alpha is finite, eps ** (alpha - 1) of the normal form is not
    path = write_config(tmp_path, "[shape]\npreset = ellipse\na = 2.0\n"
                        "b = 1.0\npanels = 64\n[body]\nalpha = -8\n"
                        "gamma = 1\nell0 = 0.5 0\n[sweep]\n"
                        "eps = 1.1754943508222875e-38\n[time]\nt = 0.01\n"
                        "dt = 0.001\n")
    assert main(["converge", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "overflows" in errors[0].getMessage()
    assert "Traceback" not in capfd.readouterr().err


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


def test_symmetry_row_reads_the_mass_defect(monkeypatch):
    # build_potential_set symmetrises the mass matrix, so the row must
    # report the asymmetry measured before that
    def asymmetric(mesh):
        return replace(build_potential_set(mesh), mass_defect=1e-9)

    monkeypatch.setattr(lab, "build_potential_set", asymmetric)
    report = check(panels=64)
    symmetry = [r for r in report.rows if r.name == "symmetry"]
    assert len(symmetry) == len(CANONICAL_SHAPES)
    assert all(r.error == 1e-9 and not r.passed for r in symmetry)


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
    facts = potential_facts(build_mesh(disk(), 128))
    assert facts["area"] == pytest.approx(np.pi, abs=1e-10)
    assert facts["circulation_laurent_head"]["im"] == pytest.approx(
        -1.0 / (2 * np.pi), abs=1e-10)
    assert abs(facts["circulation_laurent_head"]["re"]) < 1e-12
    assert np.abs(facts["xi"]).max() < 1e-12
    assert facts["field_identity_max_error"] < 1e-8

    code = main(["potentials", "--out", str(tmp_path / "pot")])
    assert code == 0
    assert (tmp_path / "pot" / "potentials.json").exists()
