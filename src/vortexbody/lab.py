"""Experiment driver: configuration files, run artifacts, and the
shrinking-body sweep compared against its vortex-wave limit.

A config file is flat ``key = value`` text with sections (see
``parse_config``).  One config describes one experiment: a body shape,
the physical parameters, an initial vorticity made of annular lattice
patches, a strictly decreasing list of body scales, and the time grid.
``run`` executes a coupled simulation per scale plus a single limit
simulation with the same blob lattice, writes CSV/JSON artifacts, and
assembles a convergence report.  Blobs are matched across the two
systems by lattice index, so the transport distance needs no assignment
step; this surrogate for weak-star closeness is recorded in the report
metadata.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .biotsavart import BlobField, BodyCollisionError
from .contour import identity_suite
from .coupled_system import (
    TimeStepError,
    VorticityPatch,
    coupled_step,
    init_coupled,
    total_energy,
)
from .geometry import ShapeSpec, build_mesh, disk, ellipse, perturbed_disk
from .limit_system import (
    VortexCollisionError,
    VortexWaveState,
    support_annulus,
    vw_step,
)
from .normal_form import (
    ModulationSeries,
    apply_lambda,
    modulation_rate_monitor,
    normal_form_residual,
    sample_modulation,
)
from .potential import (
    ScaledPotentials,
    build_mass_data,
    build_potential_set,
    field_identity_rows,
    laurent_coefficients,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Malformed configuration file, option value, or run setup."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: body, fluid data, scale sweep, time grid, output.

    ``eps`` must be finite and strictly decreasing.  ``patches``
    describe the initial vorticity as (inner, outer, density) annuli
    sharing one lattice ``spacing`` and blob core ``delta``; the support
    must leave room for the largest body.  ``rho`` bounds the admissible
    annulus (support inside distances [1/rho, rho] from the carrier);
    leaving it stops a run with an ``annulus-exit`` marker.  ``seed``
    (non-negative) feeds only randomized identity checks, never the
    dynamics.  Every number, shape coefficients included, must be finite.
    """

    shape: ShapeSpec
    panels: int
    spacing: float
    delta: float | None
    eps: tuple[float, ...]
    alpha: float
    m1: float
    J1: float
    gamma: float
    ell0: tuple[float, float]
    r0: float
    patches: tuple[VorticityPatch, ...]
    T: float
    dt: float
    out: Path
    seed: int
    rho: float

    def __post_init__(self):
        if not self.eps:
            raise ConfigError("eps list is empty")
        if not all(0.0 < e < np.inf for e in self.eps):
            raise ConfigError("eps values must be positive and finite")
        if any(a <= b for a, b in zip(self.eps, self.eps[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        scalars = (self.alpha, self.m1, self.J1, self.gamma, *self.ell0,
                   self.r0, self.T, self.dt, self.spacing, self.rho,
                   *(v for p in self.patches
                     for v in (p.inner, p.outer, p.vorticity)))
        if not all(np.isfinite(scalars)):
            raise ConfigError("all physical parameters must be finite")
        if not np.isfinite(np.asarray(self.shape.coeffs, complex)).all():
            raise ConfigError("shape coefficients must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.panels < 16 or self.panels % 2:
            raise ConfigError("panels must be an even integer >= 16")
        if self.m1 <= 0 or self.J1 <= 0:
            raise ConfigError("m1 and J1 must be positive")
        if self.T <= 0 or self.dt <= 0 or self.dt > self.T:
            raise ConfigError("need 0 < dt <= T")
        if not np.isfinite(self.T / self.dt):
            raise ConfigError("T / dt overflows the step count")
        if self.spacing <= 0:
            raise ConfigError("spacing must be positive")
        if self.delta is not None and not 0.0 < self.delta < np.inf:
            raise ConfigError("delta must be positive and finite")
        if self.rho <= 1.0:
            raise ConfigError("rho must exceed 1")
        if self.patches:
            bound = sum(abs(c) for c in self.shape.coeffs)
            inner = min(p.inner for p in self.patches)
            if 2.0 * self.eps[0] * bound > inner:
                raise ConfigError(
                    f"largest body (radius <= {self.eps[0] * bound:.3f}) is "
                    f"not separated from vorticity starting at {inner:.3f}")

    @property
    def steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))


_SECTIONS = {
    "shape": {"preset", "panels", "radius", "a", "b"},
    "body": {"alpha", "m1", "j1", "gamma", "ell0", "r0"},
    "vorticity": {"spacing", "delta"},
    "sweep": {"eps"},
    "time": {"t", "dt"},
    "run": {"out", "seed", "rho"},
}


def _floats(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split())
    except ValueError:
        raise ConfigError(f"{key}: expected whitespace-separated numbers, "
                          f"got {text!r}") from None


def _shape_from(sec) -> ShapeSpec:
    preset = sec.get("preset", "disk").strip()
    if preset == "disk":
        return disk(float(sec.get("radius", 1.0)))
    if preset == "ellipse":
        return ellipse(float(sec.get("a", 2.0)), float(sec.get("b", 1.0)))
    if preset == "perturbed-disk":
        cos_amps, sin_amps = {}, {}
        for key, val in sec.items():
            m = re.fullmatch(r"(cos|sin)_(\d+)", key)
            if m:
                dest = cos_amps if m.group(1) == "cos" else sin_amps
                dest[int(m.group(2))] = float(val)
        return perturbed_disk(cos_amps, sin_amps,
                              base=float(sec.get("radius", 1.0)))
    raise ConfigError(f"unknown shape preset {preset!r} "
                      "(disk | ellipse | perturbed-disk)")


def parse_config(path) -> ExperimentConfig:
    """Read an experiment file.  Sections and keys:

    [shape]      preset, radius | a, b | cos_K/sin_K amplitudes; panels
    [body]       alpha, m1, J1, gamma, ell0 (two numbers), r0
    [vorticity]  patch = inner outer density (patch2, patch3, ... for
                 more), spacing, delta (optional, defaults to spacing)
    [sweep]      eps = strictly decreasing list
    [time]       T, dt
    [run]        out, seed, rho

    Unknown sections or keys are errors: a config is an experiment
    record and silent typos would corrupt it.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SECTIONS[section]
        for key in parser[section]:
            if section == "shape" and re.fullmatch(r"(cos|sin)_\d+", key):
                continue
            if section == "vorticity" and re.fullmatch(r"patch\d*", key):
                continue
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def sec(name):
        return parser[name] if parser.has_section(name) else {}

    shape_sec, body, vort = sec("shape"), sec("body"), sec("vorticity")
    sweep, tgrid, run_sec = sec("sweep"), sec("time"), sec("run")

    try:
        spacing = float(vort.get("spacing", 0.15))
        delta_raw = vort.get("delta", "").strip() if vort else ""
        delta = float(delta_raw) if delta_raw else None
        patches = []
        for key in vort:
            if re.fullmatch(r"patch\d*", key):
                vals = _floats(vort[key], key)
                if len(vals) != 3:
                    raise ConfigError(
                        f"{key}: expected 'inner outer density', got {vort[key]!r}")
                patches.append(VorticityPatch(vals[0], vals[1], vals[2],
                                              spacing=spacing, delta=delta))
        ell0 = _floats(body.get("ell0", "0 0"), "ell0")
        if len(ell0) != 2:
            raise ConfigError("ell0 needs exactly two numbers")
        return ExperimentConfig(
            shape=_shape_from(shape_sec),
            panels=int(shape_sec.get("panels", 256)),
            spacing=spacing,
            delta=delta,
            eps=_floats(sweep.get("eps", ""), "eps"),
            alpha=float(body.get("alpha", 2.0)),
            m1=float(body.get("m1", 1.0)),
            J1=float(body.get("j1", 1.0)),
            gamma=float(body.get("gamma", 0.0)),
            ell0=(ell0[0], ell0[1]),
            r0=float(body.get("r0", 0.0)),
            patches=tuple(patches),
            T=float(tgrid.get("t", 1.0)),
            dt=float(tgrid.get("dt", 0.001)),
            out=Path(run_sec.get("out", "runs")),
            seed=int(run_sec.get("seed", 0)),
            rho=float(run_sec.get("rho", 4.0)),
        )
    except (ValueError, TypeError, configparser.InterpolationError) as exc:
        # an InterpolationError is a value holding a bare '%'
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad value in {path}: {exc}") from None


def initial_field(config: ExperimentConfig, frame: str) -> BlobField | None:
    """Discretize the configured patches into one blob field (or None).

    The same call with frame='body' and frame='lab' yields identical
    arrays (the body starts at the lab origin with zero attitude), which
    is what makes index matching across the two systems exact.
    """
    if not config.patches:
        return None
    parts = [p.discretize(frame) for p in config.patches]
    if len(parts) == 1:
        return parts[0]
    return BlobField(x=np.vstack([f.x for f in parts]),
                     gamma=np.concatenate([f.gamma for f in parts]),
                     delta=parts[0].delta, frame=frame)


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunRecord:
    """Sampled trajectory of one run, every ``dt``, in the lab frame."""

    kind: str                       # "coupled" or "limit"
    eps: float | None
    t: np.ndarray                   # (m,)
    h: np.ndarray                   # (m, 2) body center / vortex position
    gamma: np.ndarray               # (m,) circulation of the body / vortex
    beta: np.ndarray                # (m,) total blob strength
    support: np.ndarray             # (m, 2) nearest/farthest blob distance
    blob_lab: np.ndarray            # (m, n, 2)
    blob_gamma: np.ndarray          # (n,)
    aborted: str | None
    abort_detail: str
    t_eps: float                    # last time the annulus condition held
    elapsed: float
    theta: np.ndarray | None = None
    ell: np.ndarray | None = None
    r: np.ndarray | None = None
    energy: np.ndarray | None = None
    impulse: np.ndarray | None = None
    modulated: ModulationSeries | None = None   # read by the normal form

    @property
    def label(self) -> str:
        return "limit" if self.eps is None else f"coupled-eps{self.eps:g}"


_RECORD_FIELDS = {f.name for f in fields(RunRecord)}


def _integrate(config: ExperimentConfig, eps: float | None, state, step,
               sample, stops, reason) -> RunRecord:
    """The loop both systems share: sample the initial state, then step,
    sample and check the annulus until T, an abort or an annulus exit.

    ``sample(state)`` returns the run-specific series values as a dict
    keyed by RunRecord field; t, gamma and beta are recorded here.  A
    coupled sample also holds the columns of its ModulationSeries, which
    become ``modulated``.  An exception in ``stops`` raised by ``step``
    ends the run with the abort reason ``reason(state, exc)``, state
    being the last one reached.  A sample holding a non-finite value ends
    it as ``non-finite`` and is not kept.
    """
    started = time.perf_counter()
    steps = config.steps
    series = {}

    def record(k, s):
        row = {"t": s.t, "gamma": s.gamma, "beta": s.field.beta, **sample(s)}
        for key, value in row.items():
            if key not in series:
                series[key] = np.zeros((steps + 1, *np.shape(value)))
            series[key][k] = value

    record(0, state)
    n = state.field.n
    aborted, detail = None, ""
    done = 0
    for k in range(1, steps + 1):
        try:
            state = step(state, config.dt)
        except stops as exc:
            aborted, detail = reason(state, exc), str(exc)
            break
        record(k, state)
        # support is (inf, 0) for an empty field; the positions it is
        # read from are checked in blob_lab
        bad = [key for key, values in series.items() if key != "support"
               and not np.isfinite(values[k]).all()]
        if bad:
            aborted = "non-finite"
            detail = (f"non-finite {', '.join(bad)} "
                      f"at t={series['t'][k]:.6g}")
            break
        done = k
        support = series["support"][k]
        if n and not (support[0] >= 1.0 / config.rho
                      and support[1] <= config.rho):
            aborted = "annulus-exit"
            detail = (f"support [{support[0]:.3f}, {support[1]:.3f}] "
                      f"outside [1/{config.rho:g}, {config.rho:g}] "
                      f"at t={series['t'][k]:.6g}")
            break

    m = done + 1
    last_ok = done - 1 if aborted == "annulus-exit" else done
    columns = {key: values[:m] for key, values in series.items()}
    rec = RunRecord(
        kind="limit" if eps is None else "coupled", eps=eps,
        blob_gamma=state.field.gamma.copy(), aborted=aborted,
        abort_detail=detail, t_eps=float(series["t"][max(last_ok, 0)]),
        elapsed=time.perf_counter() - started,
        **{key: columns[key] for key in columns if key in _RECORD_FIELDS})
    if eps is not None:
        rec.modulated = ModulationSeries.from_columns(columns, state)
    log.info("%s: %d/%d steps%s in %.1fs", rec.label, done, steps,
             f", aborted ({aborted})" if aborted else "", rec.elapsed)
    return rec


def _coupled_abort_reason(state, exc) -> str:
    """A non-finite stage input is ``non-finite``; a dt-guard stop with a
    blob within two core radii of the body, or a blob inside the body
    during a stage, is a collision."""
    if isinstance(exc, FloatingPointError):
        return "non-finite"
    if (isinstance(exc, TimeStepError)
            and state.boundary_distance() >= 2.0 * state.field.delta):
        return "dt-guard"
    return "collision"


def run_coupled(config: ExperimentConfig, pset, mass, eps: float) -> RunRecord:
    """Integrate the coupled system at one scale, sampling every step."""
    try:
        state = init_coupled(ScaledPotentials(pset, eps), mass,
                             alpha=config.alpha, gamma=config.gamma,
                             ell0=config.ell0, r0=config.r0,
                             field=initial_field(config, "body"))
    except ValueError as exc:
        raise ConfigError(f"eps={eps:g}: {exc}") from None

    def sample(s):
        return {"h": s.placement.h, "ell": s.ell, "energy": total_energy(s),
                "support": s.support_radii(),
                "blob_lab": s.placement.to_lab(s.field.x),
                **sample_modulation(s)}

    return _integrate(config, eps, state, coupled_step, sample,
                      (TimeStepError, BodyCollisionError, FloatingPointError),
                      _coupled_abort_reason)


def run_limit(config: ExperimentConfig) -> RunRecord:
    """Integrate the vortex-wave system once, same lattice and grid."""
    field = initial_field(config, "lab") or BlobField.empty(frame="lab")
    state = VortexWaveState(h=np.zeros(2), field=field, gamma=config.gamma)

    def sample(s):
        impulse = s.gamma * s.h
        if s.field.n:
            impulse = impulse + s.field.gamma @ s.field.x
        return {"h": s.h, "support": support_annulus(s), "impulse": impulse,
                "blob_lab": s.field.x}

    return _integrate(config, None, state, vw_step, sample,
                      VortexCollisionError, lambda s, exc: "collision")


# ---------------------------------------------------------------------------
# comparison and report


def compare(coupled: RunRecord, limit: RunRecord) -> dict:
    """Distances between one coupled run and the limit run on the shared
    time grid: sup over time of |h_eps - h|, and sup over time of the
    mean blob gap |x_j_eps - x_j| under index matching."""
    if coupled.blob_gamma.shape != limit.blob_gamma.shape:
        raise ConfigError("blob counts differ between the two systems; "
                          "the runs do not share a lattice")
    m = min(len(coupled.t), len(limit.t))
    if not np.allclose(coupled.t[:m], limit.t[:m], rtol=0, atol=1e-12):
        raise ConfigError("runs do not share a time grid")
    gap = np.hypot(coupled.h[:m, 0] - limit.h[:m, 0],
                   coupled.h[:m, 1] - limit.h[:m, 1])
    if coupled.blob_gamma.size:
        transport = np.linalg.norm(
            coupled.blob_lab[:m] - limit.blob_lab[:m], axis=2).mean(axis=1)
    else:
        transport = np.zeros(m)
    return {
        "sup_h_distance": float(gap.max()),
        "sup_transport": float(transport.max()),
        "compared_until": float(coupled.t[m - 1]),
    }


def fit_slope(eps: Sequence[float], values: Sequence[float]):
    """Log-log slope with a standard error; None when degenerate."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(eps) < 2 or np.any(values <= 0):
        return None
    x, y = np.log(eps), np.log(values)
    if len(eps) == 2:
        return {"value": float((y[1] - y[0]) / (x[1] - x[0])), "stderr": None}
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return {"value": float(coef[0]), "stderr": float(np.sqrt(cov[0, 0]))}


def _drift(series: np.ndarray) -> float:
    return float(np.abs(series - series[0]).max())


def _coupled_diagnostics(rec: RunRecord, dt: float) -> dict:
    out = {"residual_fitted_C": None, "residual_max_norm": None,
           "residual_dt_converged": None, "monitor_fitted_C": None}
    if rec.modulated is None or len(rec.t) < 5:
        return out
    series = normal_form_residual(rec.modulated, dt)
    _, _, monitor = modulation_rate_monitor(rec.modulated, dt)
    out.update(residual_fitted_C=series.fitted_constant,
               residual_max_norm=float(series.norms().max()),
               residual_dt_converged=series.dt_converged,
               monitor_fitted_C=float(monitor))
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-scale comparison rows plus sweep-level slopes and metadata.

    A row carries the two sup distances, the invariant drifts of its
    coupled run (energy relative, circulation and total blob strength
    absolute), the peak momentum size max_t(|ell| + eps |r|), the last
    time the annulus condition held, the abort marker, and the normal
    form diagnostics.  Built single-threaded from finished runs.
    """

    rows: tuple[dict, ...]
    slopes: dict
    limit: dict
    metadata: dict

    def table(self) -> str:
        head = (f"{'eps':>8} {'sup|h_e-h|':>12} {'transport':>12} "
                f"{'energy drift':>13} {'peak |p|':>10} {'t_eps':>8} aborted")
        lines = [head]
        for row in self.rows:
            lines.append(
                f"{row['eps']:>8g} {row['sup_h_distance']:>12.4e} "
                f"{row['sup_transport']:>12.4e} {row['energy_drift']:>13.3e} "
                f"{row['peak_momentum']:>10.4f} {row['t_eps']:>8.4g} "
                f"{row['aborted'] or '-'}")
        for name, fit in self.slopes.items():
            if fit:
                err = "n/a" if fit["stderr"] is None else f"{fit['stderr']:.2f}"
                lines.append(f"slope[{name}] = {fit['value']:.3f} "
                             f"(stderr {err})")
        return "\n".join(lines)


def assemble_report(config: ExperimentConfig, coupled: Sequence[RunRecord],
                    limit: RunRecord) -> ConvergenceReport:
    rows = []
    for rec in coupled:
        eps = rec.eps
        row = {"eps": eps, "aborted": rec.aborted, "t_eps": rec.t_eps,
               "steps": len(rec.t) - 1}
        row.update(compare(rec, limit))
        e0 = rec.energy[0]
        row["energy_drift"] = float(np.abs(rec.energy - e0).max()
                                    / max(abs(e0), np.finfo(float).tiny))
        row["gamma_drift"] = _drift(rec.gamma)
        row["beta_drift"] = _drift(rec.beta)
        row["peak_momentum"] = float(
            (np.hypot(rec.ell[:, 0], rec.ell[:, 1]) + eps * np.abs(rec.r)).max())
        row.update(_coupled_diagnostics(rec, config.dt))
        rows.append(row)

    eps_list = [r["eps"] for r in rows]
    slopes = {
        "h_distance": fit_slope(eps_list, [r["sup_h_distance"] for r in rows]),
        "transport": fit_slope(eps_list, [r["sup_transport"] for r in rows]),
    }
    limit_row = {"aborted": limit.aborted, "t_eps": limit.t_eps,
                 "steps": len(limit.t) - 1,
                 "impulse_drift": _drift(np.hypot(limit.impulse[:, 0],
                                                  limit.impulse[:, 1]))}
    metadata = {
        "matching": "blobs correspond by lattice index (identical "
                    "discretization in both systems); the transport distance "
                    "is the mean matched-blob gap, a desk-scale surrogate "
                    "for weak-star closeness of the vorticity",
        "eps": list(config.eps),
        "alpha": config.alpha,
        "gamma": config.gamma,
        "T": config.T,
        "dt": config.dt,
        "blobs": int(limit.blob_gamma.size),
        "shape": config.shape.name,
    }
    return ConvergenceReport(rows=tuple(rows), slopes=slopes,
                             limit=limit_row, metadata=metadata)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_trajectory(path: Path, rec: RunRecord) -> None:
    if rec.kind == "coupled":
        header = ["t", "h1", "h2", "theta", "ell1", "ell2", "r", "energy",
                  "gamma", "beta", "support_min", "support_max"]
        rows = ((rec.t[k], rec.h[k, 0], rec.h[k, 1], rec.theta[k],
                 rec.ell[k, 0], rec.ell[k, 1], rec.r[k], rec.energy[k],
                 rec.gamma[k], rec.beta[k], rec.support[k, 0],
                 rec.support[k, 1])
                for k in range(len(rec.t)))
    else:
        header = ["t", "h1", "h2", "impulse1", "impulse2",
                  "support_min", "support_max"]
        rows = ((rec.t[k], rec.h[k, 0], rec.h[k, 1], rec.impulse[k, 0],
                 rec.impulse[k, 1], rec.support[k, 0], rec.support[k, 1])
                for k in range(len(rec.t)))
    _write_csv(path, header, rows)


def write_blobs(path: Path, rec: RunRecord) -> None:
    header = ["index", "gamma", "x1_start", "x2_start", "x1_end", "x2_end"]
    n = rec.blob_gamma.size
    rows = ((j, rec.blob_gamma[j], rec.blob_lab[0, j, 0], rec.blob_lab[0, j, 1],
             rec.blob_lab[-1, j, 0], rec.blob_lab[-1, j, 1]) for j in range(n))
    _write_csv(path, header, rows)


def _write_json(path: Path, payload) -> None:
    """Strict JSON: a NaN or infinity raises instead of writing a bare
    ``NaN`` that JSON parsers reject."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _run_summary(rec: RunRecord) -> dict:
    out = {"kind": rec.kind, "eps": rec.eps, "steps": len(rec.t) - 1,
           "t_end": float(rec.t[-1]), "aborted": rec.aborted,
           "t_eps": rec.t_eps, "final_h": [float(v) for v in rec.h[-1]],
           "elapsed_seconds": round(rec.elapsed, 3)}
    if rec.kind == "coupled":
        out.update(final_ell=[float(v) for v in rec.ell[-1]],
                   final_r=float(rec.r[-1]),
                   energy_initial=float(rec.energy[0]),
                   energy_final=float(rec.energy[-1]))
    return out


def write_artifacts(out_dir: Path, records: Sequence[RunRecord],
                    report: ConvergenceReport | None = None) -> None:
    """Write per-run CSVs, abort markers, the data dictionary, the run
    summary, and (when present) the convergence report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        write_trajectory(out_dir / f"{rec.label}-trajectory.csv", rec)
        write_blobs(out_dir / f"{rec.label}-blobs.csv", rec)
        if rec.aborted:
            _write_json(out_dir / f"{rec.label}.aborted",
                        {"reason": rec.aborted, "detail": rec.abort_detail,
                         "t_reached": float(rec.t[-1])})
    _write_json(out_dir / "summary.json",
                {"runs": [_run_summary(r) for r in records]})
    if report is not None:
        _write_json(out_dir / "report.json", asdict(report))
    (out_dir / "data-dictionary.md").write_text(DATA_DICTIONARY)


DATA_DICTIONARY = """\
# Output files

All quantities are nondimensional: lengths in units of the initial
vorticity scale, time in turnover units, circulations absolute.

## coupled-eps*-trajectory.csv (one per body scale)

| column      | meaning                                              |
|-------------|------------------------------------------------------|
| t           | sample time                                          |
| h1, h2      | body center, lab frame                               |
| theta       | body attitude (radians)                              |
| ell1, ell2  | body-frame translational velocity                    |
| r           | angular velocity                                     |
| energy      | total energy of the body-fluid system                |
| gamma       | boundary circulation                                 |
| beta        | total blob strength                                  |
| support_min | nearest blob distance from the body center           |
| support_max | farthest blob distance from the body center          |

## limit-trajectory.csv

| column             | meaning                                        |
|--------------------|------------------------------------------------|
| t                  | sample time                                    |
| h1, h2             | point-vortex position                          |
| impulse1, impulse2 | gamma h + sum_j Gamma_j x_j (conserved)        |
| support_min/max    | blob distance range from the vortex            |

## *-blobs.csv

One row per blob: lattice index, strength, start and end positions in
the lab frame.  Blobs keep their index in both systems, so rows with
equal index describe the same material element.

## summary.json

Per-run bookkeeping: step counts, final state, abort marker, timing.
Timing excluded, all other content is reproducible bit for bit.

## report.json

Convergence report: per-scale sup distance between body center and
vortex, matched-blob transport distance, invariant drifts, peak
momentum size, annulus exit times, normal-form diagnostics, and the
log-log slopes of the two distance columns with standard errors.

## *.aborted

Present only for stopped runs; holds the machine-readable reason
(collision | annulus-exit | dt-guard | non-finite) and the time reached.
"""


# ---------------------------------------------------------------------------
# top-level operations


def run(config: ExperimentConfig, out_dir: Path | None = None,
        threads: int | None = None, with_limit: bool = True):
    """Execute the experiment and write artifacts.

    Returns (records, report).  Coupled runs are scheduled on a thread
    pool, one run per worker; the limit run and report assembly stay
    single-threaded.  ``report`` is None when the limit leg is skipped.
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    out_dir = Path(out_dir) if out_dir is not None else config.out
    pset = build_potential_set(build_mesh(config.shape, config.panels))
    mass = build_mass_data(pset, config.m1, config.J1)

    workers = threads or min(len(config.eps), 4)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        coupled = list(pool.map(
            lambda e: run_coupled(config, pset, mass, e), config.eps))

    records = list(coupled)
    report = None
    if with_limit:
        limit = run_limit(config)
        records.append(limit)
        report = assemble_report(config, coupled, limit)

    write_artifacts(out_dir, records, report)
    return records, report


# ---------------------------------------------------------------------------
# identity aggregation


@dataclass(frozen=True)
class CheckRow:
    group: str
    shape: str
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tolerance)


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[CheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def table(self) -> str:
        lines = [f"{'group':<10}{'shape':<16}{'check':<34}"
                 f"{'error':>12}{'tol':>10}  ok"]
        for r in self.rows:
            lines.append(f"{r.group:<10}{r.shape:<16}{r.name:<34}"
                         f"{r.error:>12.3e}{r.tolerance:>10.0e}  "
                         f"{'yes' if r.passed else 'NO'}")
        n_bad = sum(not r.passed for r in self.rows)
        lines.append(f"{len(self.rows)} checks, {n_bad} failing")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-ready rows; a non-finite error is written as null (and its
        row has failed)."""
        return {"all_passed": self.all_passed,
                "rows": [{"group": r.group, "shape": r.shape, "name": r.name,
                          "error": (float(r.error) if np.isfinite(r.error)
                                    else None),
                          "tolerance": r.tolerance, "passed": r.passed}
                         for r in self.rows]}


CANONICAL_SHAPES = (
    ("disk", disk()),
    ("ellipse", ellipse(2.0, 1.0)),
    ("perturbed-disk", perturbed_disk({2: 0.20, 3: 0.18},
                                      {2: 0.12, 3: 0.07})),
)

GEOMETRY_TOL = 1e-8
FIELD_TOL = 1e-6


def check(panels: int = 512, seed: int = 0) -> CheckReport:
    """Aggregate every module-level identity into one pass/fail report:
    boundary-moment identities (pure geometry), solved-field moment
    identities and Laurent constraints, mass-matrix structure, and the
    zero-work property of the quadratic tensors on random momenta.
    Failures become rows, not exceptions."""
    rows = []
    rng = np.random.default_rng(seed)
    for label, shape in CANONICAL_SHAPES:
        mesh = build_mesh(shape, panels)
        for r in identity_suite(mesh).rows:
            rows.append(CheckRow("geometry", label, r.name, r.error,
                                 GEOMETRY_TOL))
        pset = build_potential_set(mesh)
        for r in field_identity_rows(pset):
            rows.append(CheckRow("field", label, r.name, r.error, FIELD_TOL))

        m = pset.mass
        rows.append(CheckRow("mass", label, "symmetry",
                             float(np.abs(m - m.T).max()), 1e-12))
        # on a matrix holding a NaN, eigvalsh returns finite values or raises
        psd = (max(0.0, -float(np.linalg.eigvalsh(m).min()))
               if np.isfinite(m).all() else np.nan)
        rows.append(CheckRow("mass", label, "positive semidefinite", psd,
                             1e-10))

        mass = build_mass_data(pset)
        P = rng.normal(size=(10_000, 3))
        work = [(apply_lambda(mass, w, P) * P).sum(1) for w in ("g", "a")]
        # one array reduction, so a NaN work value fails the row
        rows.append(CheckRow("tensor", label, "quadratic does no work",
                             float(np.abs(work).max()), 1e-12))
    return CheckReport(tuple(rows))


def potential_facts(shape: ShapeSpec, panels: int = 256) -> dict:
    """Reference numbers for one shape: inertia coefficients, conformal
    moments, the circulation-field Laurent head, and the residual of the
    field identity rows."""
    pset = build_potential_set(build_mesh(shape, panels))
    mass = build_mass_data(pset)
    c1 = laurent_coefficients(pset.H, 1)[0]
    return {
        "shape": shape.name,
        "panels": panels,
        "area": float(pset.moments.area),
        "centroid": [float(v) for v in pset.moments.centroid],
        "mass_matrix": [[float(v) for v in row] for row in pset.mass],
        "xi": [float(v) for v in mass.xi],
        "eta": [float(v) for v in mass.eta],
        "circulation_laurent_head": {"re": float(c1.real),
                                     "im": float(c1.imag)},
        "field_identity_max_error": float(
            max(r.error for r in field_identity_rows(pset))),
    }


# ---------------------------------------------------------------------------
# command line


def _out_dir(args, config: ExperimentConfig | None) -> Path:
    if args.out is not None:
        return Path(args.out)
    return config.out if config is not None else Path("runs")


def _load(args) -> ExperimentConfig | None:
    return parse_config(args.config) if args.config else None


def _cmd_check(args) -> int:
    config = _load(args)
    panels = config.panels if config else 512
    seed = config.seed if config else 0
    report = check(panels=panels, seed=seed)
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "identities.json", report.to_payload())
    print(report.table())
    return 0 if report.all_passed else 2


def _cmd_potentials(args) -> int:
    config = _load(args)
    shape = config.shape if config else disk()
    panels = config.panels if config else 256
    facts = potential_facts(shape, panels)
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "potentials.json", facts)
    print(json.dumps(facts, indent=2, sort_keys=True))
    return 0


def _require_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command needs --config")
    return parse_config(args.config)


def _exit_code(records: Sequence[RunRecord]) -> int:
    return 2 if any(r.aborted for r in records) else 0


def _cmd_simulate_coupled(args) -> int:
    config = _require_config(args)
    records, _ = run(config, out_dir=_out_dir(args, config),
                     threads=args.threads, with_limit=False)
    return _exit_code(records)


def _cmd_simulate_limit(args) -> int:
    config = _require_config(args)
    out = _out_dir(args, config)
    rec = run_limit(config)
    write_artifacts(out, [rec])
    return _exit_code([rec])


def _cmd_converge(args) -> int:
    config = _require_config(args)
    records, report = run(config, out_dir=_out_dir(args, config),
                          threads=args.threads)
    print(report.table())
    return _exit_code(records)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexbody",
        description="rigid body in planar vorticity: identity checks, "
                    "potential tables, coupled and limit simulations, and "
                    "the shrinking-body convergence sweep")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    # (name, help, handler, whether it runs the scale sweep)
    specs = (
        ("check-identities", "run every boundary/field identity suite",
         _cmd_check, False),
        ("potentials", "solve the potentials for one shape and tabulate",
         _cmd_potentials, False),
        ("simulate-coupled", "coupled runs for each configured scale",
         _cmd_simulate_coupled, True),
        ("simulate-limit", "the single vortex-wave run", _cmd_simulate_limit,
         False),
        ("converge", "full sweep, limit run, and convergence report",
         _cmd_converge, True),
    )
    for name, help_text, func, sweeps in specs:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", type=Path, default=None,
                       help="experiment file (key = value with sections)")
        q.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides the config)")
        if sweeps:
            q.add_argument("--threads", type=int, default=None,
                           help="worker pool size for the scale sweep")
        q.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (OSError, MemoryError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
