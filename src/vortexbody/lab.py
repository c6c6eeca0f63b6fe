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
import json
import logging
import re
import time
from dataclasses import asdict, dataclass, field
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
from .geometry import (BoundaryMesh, ShapeSpec, build_mesh, disk, ellipse,
                       perturbed_disk)
from .limit_system import VortexCollisionError, VortexWaveState, vw_step
from .normal_form import (
    apply_lambda,
    modulation,
    modulation_rate_monitor,
    normal_form_residual,
)
from .potential import (
    MassData,
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


# the blob kernels square delta, and biotsavart.velocity_gradient's core
# series divides by delta**4: delta**4 and its reciprocal are finite,
# nonzero normal doubles only for 1.2e-77 < delta < 1.2e77, the fourth
# roots of the double range; these are the decades inside
DELTA_MIN, DELTA_MAX = 1e-76, 1e76


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: body, fluid data, scale sweep, time grid, output.

    ``eps`` must be finite and strictly decreasing.  ``patches``
    describe the initial vorticity as (inner, outer, density) annuli
    sharing one lattice ``spacing`` and blob core ``delta``, which
    (``spacing`` when unset) lies in [DELTA_MIN, DELTA_MAX] = [1e-76,
    1e76].  ``rho`` bounds the admissible annulus (support inside
    distances [1/rho, rho] from the carrier); leaving it stops a run with
    an ``annulus-exit`` marker.  ``seed`` (non-negative) feeds only
    randomized identity checks, never the dynamics.  Every number, shape
    coefficients included, must be finite; ``T`` is a whole number of
    ``dt`` steps; the shape meshes at ``panels``, which needs its node
    coordinates within geometry.EXTENT_MAX = 1e76.  That mesh is kept as
    ``mesh`` (not an argument, not compared) for the run to solve on.
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
    mesh: BoundaryMesh = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "mesh", _mesh(self.shape, self.panels))
        if self.m1 <= 0 or self.J1 <= 0:
            raise ConfigError("m1 and J1 must be positive")
        if self.T <= 0 or self.dt <= 0 or self.dt > self.T:
            raise ConfigError("need 0 < dt <= T")
        ratio = self.T / self.dt
        if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
            raise ConfigError(f"T / dt = {ratio:g} is not a whole step count")
        if self.spacing <= 0:
            raise ConfigError("spacing must be positive")
        delta = self.spacing if self.delta is None else self.delta
        if not DELTA_MIN <= delta <= DELTA_MAX:
            raise ConfigError(f"delta = {delta:g} (given, or defaulted from "
                              f"spacing) is outside [{DELTA_MIN:g}, {DELTA_MAX:g}]")
        if self.rho <= 1.0:
            raise ConfigError("rho must exceed 1")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)


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
        # huge amplitudes fail the recentring's mesh with a ValueError
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
                patches.append(VorticityPatch(*vals))
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


def initial_field(config: ExperimentConfig, frame: str) -> BlobField:
    """The configured patches on the one lattice of ``config.spacing``, as
    one blob field of core radius ``config.delta`` (one lattice cell when
    unset); without patches, the empty field.

    The same call with frame='body' and frame='lab' yields identical
    arrays (the body starts at the lab origin with zero attitude), which
    is what makes index matching across the two systems exact.
    """
    parts = [p.discretize(config.spacing) for p in config.patches]
    return BlobField(
        x=np.vstack([np.zeros((0, 2)), *(x for x, _ in parts)]),
        gamma=np.concatenate([np.zeros(0), *(g for _, g in parts)]),
        delta=config.spacing if config.delta is None else config.delta,
        frame=frame)


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
    # the modulation of a coupled run, read by the normal form
    drift: np.ndarray | None = None         # (m, 2) blob velocity at the origin
    a: np.ndarray | None = None             # (m,) strain scalars
    b: np.ndarray | None = None
    p_modulated: np.ndarray | None = None   # (m, 3)

    @property
    def label(self) -> str:
        return "limit" if self.eps is None else f"coupled-eps{self.eps:g}"


def _sample(state, sample) -> tuple[dict, list[str]]:
    """One sample row (t, gamma and beta, then the run's own series) and
    the keys holding a non-finite value.  support is (inf, 0) for an
    empty field; the positions it is read from are checked in blob_lab."""
    row = {"t": state.t, "gamma": state.gamma, "beta": state.field.beta,
           **sample(state)}
    return row, [key for key, value in row.items()
                 if key != "support" and not np.isfinite(value).all()]


def _initial_sample(state, sample) -> dict:
    """A run's row 0; a non-finite one is a ConfigError naming its keys."""
    row, bad = _sample(state, sample)
    if bad:
        raise ConfigError(f"non-finite initial {', '.join(bad)}")
    return row


def _integrate(config: ExperimentConfig, eps: float | None, state, first,
               step, sample, stops, reason) -> RunRecord:
    """The loop both systems share: from the initial state and its
    checked row 0 ``first``, step, sample and check the annulus until T,
    an abort or an annulus exit.

    ``sample(state)`` returns the run-specific series values as a dict
    keyed by RunRecord field (see _sample).  An exception in ``stops``
    raised by ``step`` ends the run with the abort reason
    ``reason(state, exc)``, state being the last one reached.  A sample
    holding a non-finite value ends it as ``non-finite`` and is not kept.
    """
    started = time.perf_counter()
    steps = config.steps
    series = {key: np.zeros((steps + 1, *np.shape(value)))
              for key, value in first.items()}

    def record(k, row):
        for key, value in row.items():
            series[key][k] = value

    record(0, first)
    aborted, detail = None, ""
    done = 0
    for k in range(1, steps + 1):
        try:
            state = step(state, config.dt)
        except stops as exc:
            aborted, detail = reason(state, exc), str(exc)
            break
        row, bad = _sample(state, sample)
        record(k, row)
        if bad:
            aborted = "non-finite"
            detail = (f"non-finite {', '.join(bad)} "
                      f"at t={series['t'][k]:.6g}")
            break
        done = k
        support = series["support"][k]
        if not (support[0] >= 1.0 / config.rho and support[1] <= config.rho):
            aborted = "annulus-exit"
            detail = (f"support [{support[0]:.3f}, {support[1]:.3f}] "
                      f"outside [1/{config.rho:g}, {config.rho:g}] "
                      f"at t={series['t'][k]:.6g}")
            break

    m = done + 1
    last_ok = done - 1 if aborted == "annulus-exit" else done
    rec = RunRecord(
        kind="limit" if eps is None else "coupled", eps=eps,
        blob_gamma=state.field.gamma.copy(), aborted=aborted,
        abort_detail=detail, t_eps=float(series["t"][max(last_ok, 0)]),
        elapsed=time.perf_counter() - started,
        **{key: values[:m] for key, values in series.items()})
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


def _coupled_sample(s) -> dict:
    return {"h": s.placement.h, "ell": s.ell, "energy": total_energy(s),
            "support": s.field.support_annulus((0.0, 0.0)),
            "blob_lab": s.placement.to_lab(s.field.x),
            "theta": s.placement.theta, "r": s.r, **modulation(s)}


def _initial_states(config: ExperimentConfig, pset, mass) -> list:
    """Every scale's checked initial coupled state with its row 0, so
    that a scale the coupled system rejects, or whose first sample is not
    finite, is a ConfigError before any run steps."""
    starts = []
    for eps in config.eps:
        try:
            state = init_coupled(
                ScaledPotentials(pset, eps), mass, alpha=config.alpha,
                gamma=config.gamma, ell0=config.ell0, r0=config.r0,
                field=initial_field(config, "body"))
            starts.append((state, _initial_sample(state, _coupled_sample)))
        except ValueError as exc:   # a ConfigError from the sample as well
            raise ConfigError(f"eps={eps:g}: {exc}") from None
    return starts


def run_coupled(config: ExperimentConfig, state, first) -> RunRecord:
    """Integrate the coupled system from one scale's initial state and
    its row 0 (see _initial_states), sampling every step."""
    return _integrate(config, state.eps, state, first, coupled_step,
                      _coupled_sample,
                      (TimeStepError, BodyCollisionError, FloatingPointError),
                      _coupled_abort_reason)


def run_limit(config: ExperimentConfig) -> RunRecord:
    """Integrate the vortex-wave system once, same lattice and grid."""
    state = VortexWaveState(h=np.zeros(2), field=initial_field(config, "lab"),
                            gamma=config.gamma)

    def sample(s):
        return {"h": s.h, "support": s.field.support_annulus(s.h),
                "impulse": s.gamma * s.h + s.field.gamma @ s.field.x,
                "blob_lab": s.field.x}

    return _integrate(config, None, state, _initial_sample(state, sample),
                      vw_step, sample, VortexCollisionError,
                      lambda s, exc: "collision")


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
    # the mean gap, 0 without blobs
    transport = (np.linalg.norm(coupled.blob_lab[:m] - limit.blob_lab[:m],
                                axis=2).sum(axis=1)
                 / max(coupled.blob_gamma.size, 1))
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


def _coupled_diagnostics(rec: RunRecord, mass: MassData, alpha: float,
                         dt: float) -> dict:
    out = {"residual_fitted_C": None, "residual_max_norm": None,
           "residual_dt_converged": None, "monitor_fitted_C": None}
    if len(rec.t) < 5:
        return out
    res = normal_form_residual(rec, mass, alpha, dt)
    _, monitor = modulation_rate_monitor(rec, mass, dt)
    out.update(residual_fitted_C=res.fitted_constant,
               residual_max_norm=float(np.linalg.norm(res.implied, axis=1).max()),
               residual_dt_converged=res.dt_converged,
               monitor_fitted_C=float(monitor))
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-scale comparison rows plus sweep-level slopes and metadata.

    A row carries the two sup distances, the invariant drifts of its
    coupled run (energy relative, circulation and total blob strength
    absolute), the peak momentum size max_t(|ell| + eps |r|), the last
    time the annulus condition held, the abort marker, and the normal
    form diagnostics.
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


def assemble_report(config: ExperimentConfig, mass: MassData,
                    coupled: Sequence[RunRecord],
                    limit: RunRecord) -> ConvergenceReport:
    """The report of one sweep; ``mass`` is the runs' MassData."""
    rows = []
    for rec in coupled:
        eps = rec.eps
        row = {"eps": eps, "aborted": rec.aborted, "t_eps": rec.t_eps,
               "steps": len(rec.t) - 1}
        row.update(compare(rec, limit))
        # relative to the initial energy; absolute when that is exactly 0
        e0 = abs(rec.energy[0])
        row["energy_drift"] = float(_drift(rec.energy) / (e0 if e0 else 1.0))
        row["gamma_drift"] = _drift(rec.gamma)
        row["beta_drift"] = _drift(rec.beta)
        row["peak_momentum"] = float(
            (np.hypot(rec.ell[:, 0], rec.ell[:, 1]) + eps * np.abs(rec.r)).max())
        row.update(_coupled_diagnostics(rec, mass, config.alpha, config.dt))
        rows.append(row)

    eps_list = [r["eps"] for r in rows]
    slopes = {
        "h_distance": fit_slope(eps_list, [r["sup_h_distance"] for r in rows]),
        "transport": fit_slope(eps_list, [r["sup_transport"] for r in rows]),
    }
    limit_row = {"aborted": limit.aborted, "t_eps": limit.t_eps,
                 "steps": len(limit.t) - 1,
                 "impulse_drift": float(np.linalg.norm(
                     limit.impulse - limit.impulse[0], axis=1).max())}
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


def _write_csv(path: Path, header: str, columns) -> None:
    """The header line, then one line per row of the columns, every
    number as %.17g (round-trips); an (m, k) column fills k columns.
    One % formats the whole table, faster than np.savetxt's per-row loop."""
    table = np.column_stack(columns)
    m, k = table.shape
    row = ",".join(["%.17g"] * k) + "\n"
    path.write_text(f"{header}\n" + (row * m) % tuple(table.ravel().tolist()))


# each trajectory file's header line and the RunRecord series that fill
# it, in file order
_TRAJECTORY = {
    "coupled": ("t,h1,h2,theta,ell1,ell2,r,energy,gamma,beta,"
                "support_min,support_max",
                ("t", "h", "theta", "ell", "r", "energy", "gamma", "beta",
                 "support")),
    "limit": ("t,h1,h2,impulse1,impulse2,support_min,support_max",
              ("t", "h", "impulse", "support")),
}


def write_trajectory(path: Path, rec: RunRecord) -> None:
    header, series = _TRAJECTORY[rec.kind]
    _write_csv(path, header, [getattr(rec, name) for name in series])


def write_blobs(path: Path, rec: RunRecord) -> None:
    _write_csv(path, "index,gamma,x1_start,x2_start,x1_end,x2_end",
               [np.arange(rec.blob_gamma.size), rec.blob_gamma,
                rec.blob_lab[0], rec.blob_lab[-1]])


def _write_json(path: Path, payload) -> None:
    """Strict JSON: a NaN or an infinity is written as null, never as a
    bare ``NaN`` that JSON parsers reject.  Floats round-trip exactly."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
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

Convergence report, reproducible bit for bit: rows (one per body scale),
slopes (log-log fits over the scales), limit (the limit run) and
metadata.  A null is a value that was not computed or is not finite.

rows:
- eps: body scale
- steps: steps taken
- aborted: abort reason (see *.aborted), or null
- t_eps: last time the annulus condition held
- sup_h_distance: max over t of |h_eps - h|, body center against vortex
- sup_transport: max over t of the mean matched-blob gap |x_j_eps - x_j|
  (0 without blobs)
- compared_until: last sample time both runs reached
- energy_drift: max |E - E0| / |E0|, or max |E - E0| when E0 = 0
- gamma_drift: max |gamma - gamma0| of the boundary circulation
- beta_drift: max |beta - beta0| of the total blob strength
- peak_momentum: max over t of |ell| + eps |r|
- residual_fitted_C: max over interior samples of the normal-form
  residual norm (rescaled by eps^min(alpha, 2)) / (1 + |p| + eps |p|^2)
- residual_max_norm: max norm of that rescaled residual
- residual_dt_converged: whether residual_fitted_C at twice the sample
  spacing lies within 10 % of it
- monitor_fitted_C: max rate of the drift-plus-strain correction
  / (1 + |p|)
- the four above are null for a run of fewer than 5 samples

slopes:
- h_distance, transport: the log-log slope of sup_h_distance and of
  sup_transport against eps, as value and stderr (stderr null for two
  scales; the fit null for one scale or a zero distance)

limit:
- aborted, steps, t_eps: as in rows, for the limit run
- impulse_drift: max over t of |I(t) - I(0)|, the vector impulse
  I = gamma h + sum_j Gamma_j x_j

metadata:
- matching: how blobs correspond across the two systems
- eps, alpha, gamma, T, dt: the configured values
- blobs: blob count
- shape: shape preset name

## *.aborted

Present only for stopped runs; holds the machine-readable reason
(collision | annulus-exit | dt-guard | non-finite) and the time reached.
"""


# ---------------------------------------------------------------------------
# top-level operations


def run(config: ExperimentConfig, out_dir: Path | None = None,
        threads: int = 1, with_limit: bool = True):
    """Execute the experiment and write artifacts.

    Returns (records, report).  Every scale's initial state and first
    sample are checked first; then the coupled runs go one after another,
    one per scale, followed by the limit run.  ``report`` is None when the limit leg is
    skipped.  ``threads`` exists for callers that pass it and must be 1.
    """
    if threads != 1:
        raise ConfigError(f"the scale sweep runs serially; threads must be "
                          f"1, got {threads}")
    out_dir = Path(out_dir) if out_dir is not None else config.out
    pset = resolved_potential_set(config.mesh)
    mass = build_mass_data(pset, config.m1, config.J1)

    coupled = [run_coupled(config, *start)
               for start in _initial_states(config, pset, mass)]
    records = list(coupled)
    report = None
    if with_limit:
        limit = run_limit(config)
        records.append(limit)
        report = assemble_report(config, mass, coupled, limit)

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
        """The rows as plain values; a non-finite error fails its row, and
        ``identities.json`` holds it as null."""
        return {"all_passed": self.all_passed,
                "rows": [{"group": r.group, "shape": r.shape, "name": r.name,
                          "error": float(r.error),
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
    rng = np.random.default_rng(seed)
    return CheckReport(tuple(row for label, shape in CANONICAL_SHAPES
                             for row in _check_rows(label, shape, panels, rng)))


def _check_rows(label: str, shape: ShapeSpec, panels: int,
                rng: np.random.Generator) -> list:
    """One shape's check rows; its potential set is freed on return, so
    that no two shapes' sets are held at once."""
    rows = []
    mesh = build_mesh(shape, panels)
    for r in identity_suite(mesh):
        rows.append(CheckRow("geometry", label, r.name, r.error,
                             GEOMETRY_TOL))
    pset = build_potential_set(mesh)
    for r in field_identity_rows(pset):
        rows.append(CheckRow("field", label, r.name, r.error, FIELD_TOL))

    # the Green-identity asymmetry, before mass was symmetrised
    rows.append(CheckRow("mass", label, "symmetry", pset.mass_defect, 1e-12))
    m = pset.mass
    # on a matrix holding a NaN, eigvalsh returns finite values or raises
    psd = (max(0.0, -float(np.linalg.eigvalsh(m).min()))
           if np.isfinite(m).all() else np.nan)
    rows.append(CheckRow("mass", label, "positive semidefinite", psd, 1e-10))

    mass = build_mass_data(pset)
    P = rng.normal(size=(10_000, 3))
    work = [(apply_lambda(mass, w, P) * P).sum(1) for w in ("g", "a")]
    # one array reduction, so a NaN work value fails the row
    rows.append(CheckRow("tensor", label, "quadratic does no work",
                         float(np.abs(work).max()), 1e-12))
    return rows


def _mesh(shape: ShapeSpec, panels: int) -> BoundaryMesh:
    """build_mesh, with a shape it rejects as a ConfigError."""
    try:
        return build_mesh(shape, panels)
    except ValueError as exc:
        raise ConfigError(f"{shape.name} at {panels} panels: {exc}") from None


def resolved_potential_set(mesh: BoundaryMesh):
    """The potential set on ``mesh``.  A solve that fails, or a field
    identity row that misses by more than FIELD_TOL in units of the body's
    circumradius, means the panels do not resolve the shape: a ConfigError
    naming the worst row."""
    shape, panels = mesh.shape, mesh.n
    try:
        pset = build_potential_set(mesh)
    except ValueError as exc:
        raise ConfigError(f"{shape.name} at {panels} panels: {exc}") from None
    # in size units the bound reads the same at every body size; the
    # extent bounds keep size ** 4 a normal double
    size = pset.mesh.circumradius
    errors = {row.name: row.error / size ** row.length_power
              for row in field_identity_rows(pset)}
    # a NaN error is the worst row
    worst = max(errors,
                key=lambda name: np.nan_to_num(errors[name], nan=np.inf))
    if not errors[worst] <= FIELD_TOL:
        raise ConfigError(
            f"{panels} panels do not resolve the {shape.name}: field identity "
            f"{worst!r} misses by {errors[worst]:.3g} > {FIELD_TOL:g} "
            f"(in units of its circumradius)")
    return pset


def potential_facts(mesh: BoundaryMesh) -> dict:
    """Reference numbers for one meshed shape: inertia coefficients,
    conformal moments, the circulation-field Laurent head, and the
    residual of the field identity rows.  A shape the panels do not
    resolve is a ConfigError."""
    pset = resolved_potential_set(mesh)
    c1 = laurent_coefficients(pset.H, 1)[0]
    return {
        "shape": mesh.shape.name,
        "panels": mesh.n,
        "area": float(pset.mesh.moments.area),
        "centroid": [float(v) for v in pset.mesh.moments.centroid],
        "mass_matrix": [[float(v) for v in row] for row in pset.mass],
        "xi": [float(v) for v in pset.xi],
        "eta": [float(v) for v in pset.eta],
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
    facts = potential_facts(config.mesh if config else _mesh(disk(), 256))
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
                     with_limit=False)
    return _exit_code(records)


def _cmd_simulate_limit(args) -> int:
    config = _require_config(args)
    out = _out_dir(args, config)
    rec = run_limit(config)
    write_artifacts(out, [rec])
    return _exit_code([rec])


def _cmd_converge(args) -> int:
    config = _require_config(args)
    records, report = run(config, out_dir=_out_dir(args, config))
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

    # (name, help, handler)
    specs = (
        ("check-identities", "run every boundary/field identity suite",
         _cmd_check),
        ("potentials", "solve the potentials for one shape and tabulate",
         _cmd_potentials),
        ("simulate-coupled", "coupled runs for each configured scale",
         _cmd_simulate_coupled),
        ("simulate-limit", "the single vortex-wave run", _cmd_simulate_limit),
        ("converge", "full sweep, limit run, and convergence report",
         _cmd_converge),
    )
    for name, help_text, func in specs:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", type=Path, default=None,
                       help="experiment file (key = value with sections)")
        q.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides the config)")
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
