"""Modulated body variables and the small-size structure of the body
equation.

The ambient vorticity moves the body-frame origin with a drift (the blob
velocity at the origin) and strains it with a traceless symmetric
gradient (two scalars a, b).  Removing the drift, and a strain
correction attached to the conformal center of the shape, from the body
velocity gives the modulated momentum.  In these variables Newton's
equations collapse to two exactly gyroscopic quadratic tensors, a
circulation term along a fixed axis, a weakly gyroscopic scalar and a
weakly nonlinear remainder.  This module builds those pieces, the
closed-form force approximations they come from, and the residual and
rate diagnostics evaluated on the columns of a coupled run record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biotsavart import HydrodynamicField, velocity_free_space, velocity_gradient
from .coupled_system import CoupledState
from .geometry import perp
from .potential import MassData


# ---------------------------------------------------------------------------
# modulated variables


def _strain(a: float, b: float, v) -> np.ndarray:
    """Apply the gradient [[-a, b], [b, a]]; v may be one vector or (n, 2)."""
    v = np.asarray(v, dtype=float)
    return np.stack([-a * v[..., 0] + b * v[..., 1],
                     b * v[..., 0] + a * v[..., 1]], axis=-1)


def modulation(state: CoupledState) -> dict:
    """Sample the blob field at the body origin and modulate (ell, r):
    the drift (ambient velocity at the origin), the strain scalars a, b
    of the gradient [[-a, b], [b, a]], and the momentum
    (ell - drift - eps strain(xi), eps r) as ``p_modulated``."""
    drift = velocity_free_space(state.field, np.zeros((1, 2)))[0]
    a, b, _ = velocity_gradient(state.field, np.zeros(2))
    eps = state.eps
    ell_mod = state.ell - drift - eps * _strain(a, b, state.scaled.base.xi)
    return {"drift": drift, "a": a, "b": b,
            "p_modulated": np.array([*ell_mod, eps * state.r])}


# ---------------------------------------------------------------------------
# gyroscopic structure


def cross_product(pa, pb) -> np.ndarray:
    """Cross product of (velocity, spin) triples:
    (l_a, w_a) x (l_b, w_b) = (w_a l_b^perp - w_b l_a^perp, l_a^perp . l_b).

    The ordinary R^3 cross product in 2d notation, along the last axis.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    la, wa = pa[..., :2], pa[..., 2:]
    lb, wb = pb[..., :2], pb[..., 2:]
    dot = perp(la)[..., None, :] @ lb[..., None]  # rows get single-call bits
    return np.concatenate([wa * perp(lb) - wb * perp(la), dot[..., 0]], -1)


def gyro_axis(mass: MassData) -> np.ndarray:
    """Fixed axis of the circulation term: (xi^perp, -1)."""
    return np.array([*perp(mass.xi), -1.0])


def apply_lambda(mass: MassData, which: str, p) -> np.ndarray:
    """The quadratic form <Lambda, p, p> of one of the gyroscopic tensors,
    on momenta along the last axis: a (3,) p gives (3,), a (k, 3) stack
    gives (k, 3).  'g' is the genuine-mass tensor, 'under' the bare
    added-mass one, 'a' adds the spin coupling through the first moments
    of the potentials.
    """
    p = np.asarray(p, dtype=float)
    ell, r = p[..., :2], p[..., 2:]
    if which == "g":
        return np.concatenate([mass.m1 * r * perp(ell), np.zeros_like(r)], -1)
    Mell = (mass.added_2x2 @ ell[..., None])[..., 0]  # single-call bits
    dot = perp(ell)[..., None, :] @ Mell[..., None]
    under = np.concatenate([r * perp(Mell), dot[..., 0]], -1)
    if which == "under":
        return under
    if which == "a":
        return under + r * cross_product(p, mass.mu)
    raise ValueError(f"unknown tensor {which!r}; use 'g', 'under' or 'a'")


def _weak_gyro(a, b, mass: MassData) -> np.ndarray:
    """Weakly gyroscopic vector (0, 0, xi . strain(xi) + a eta_1 - b eta_2)
    for each strain pair: scalars give (3,), (m,) arrays give (m, 3)."""
    xi, eta = mass.xi, mass.eta
    dot = _strain(a, b, xi)[..., None, :] @ xi[:, None]  # single-call bits
    third = dot[..., 0, 0] + a * eta[0] - b * eta[1]
    return np.stack([np.zeros_like(third), np.zeros_like(third), third], -1)


# ---------------------------------------------------------------------------
# closed-form force approximations (order-of-accuracy studies only)


def expansion_B(state: CoupledState, mod: dict) -> np.ndarray:
    """Leading behavior of the vorticity force at small body size.

    Every coefficient carries its size scaling already (mass entries,
    area, centroid and quartic moments of the scaled shape), so the
    components 1, 2 are accurate to O(eps^2) and component 3 to
    O(eps^3).
    """
    sc = state.scaled
    m = sc.mass
    S = sc.area
    xg = sc.centroid
    a, b = mod["a"], mod["b"]
    k0 = mod["drift"]
    l1, l2 = state.ell
    r = state.r

    lead = r * (m[:2, :2] + S * np.eye(2)) @ perp(k0)
    col1 = np.array([-(m[0, 0] + S) * a + m[0, 1] * b,
                     -m[1, 0] * a + (m[1, 1] + S) * b])
    col2 = np.array([m[0, 1] * a + (m[0, 0] + S) * b,
                     (m[1, 1] + S) * a + m[1, 0] * b])
    col3 = np.array([m[0, 4] + S * xg[1], m[1, 4] + S * xg[0]])
    col4 = np.array([-m[0, 3] + S * xg[0], -m[1, 3] - S * xg[1]])
    b12 = lead - l1 * col1 - l2 * col2 - 2 * r * a * col3 - 2 * r * b * col4

    b3 = (r * (np.array([m[2, 1], -m[2, 0]]) + S * xg) @ k0
          - l1 * ((-m[2, 0] + S * xg[1]) * a + (m[2, 1] + S * xg[0]) * b)
          - l2 * ((m[2, 1] + S * xg[0]) * a + (m[2, 0] - S * xg[1]) * b)
          - 2 * r * a * (m[2, 4] + sc.m_diff)
          + 2 * r * b * (m[2, 3] + sc.m_cross))
    return np.array([b12[0], b12[1], b3])


def expansion_C(state: CoupledState,
                mod: dict) -> tuple[np.ndarray, np.ndarray]:
    """Leading behavior of the two boundary forces (quadratic part,
    circulation part); same accuracy pattern as expansion_B."""
    sc = state.scaled
    m = sc.mass
    S = sc.area
    xg = sc.centroid
    a, b = mod["a"], mod["b"]
    k0 = mod["drift"]
    l1, l2 = state.ell
    r = state.r
    off = k0 - state.ell

    lead = (r ** 2 * np.array([-m[2, 1], m[2, 0]])
            - r * perp(m[:2, :2] @ off + S * k0))
    t1 = np.array([(m[0, 0] + S) * a - m[0, 1] * b,
                   -m[0, 1] * a - (m[0, 0] + S) * b])
    t2 = np.array([m[1, 0] * a - (m[1, 1] + S) * b,
                   -(m[1, 1] + S) * a - m[1, 0] * b])
    t3 = np.array([-m[2, 0] + m[3, 1] + 2 * S * xg[1],
                   m[2, 1] - m[3, 0] + 2 * S * xg[0]])
    t4 = np.array([m[2, 1] + m[4, 1] + 2 * S * xg[0],
                   m[2, 0] - m[4, 0] - 2 * S * xg[1]])
    ca12 = lead - l1 * t1 - l2 * t2 + a * r * t3 + b * r * t4

    ca3 = (perp(off) @ (m[:2, :2] @ off)
           + r * off @ np.array([-m[2, 1], m[2, 0]])
           - r * S * (k0 @ xg)
           + l1 * (a * (-m[3, 1] + S * xg[1] + 2 * m[0, 4])
                   + b * (-m[4, 1] + S * xg[0] - 2 * m[0, 3]))
           + l2 * (a * (m[3, 0] + S * xg[0] + 2 * m[1, 4])
                   + b * (m[4, 0] - S * xg[1] - 2 * m[1, 3]))
           + 2 * r * a * (m[2, 4] + sc.m_diff)
           - 2 * r * b * (m[2, 3] + sc.m_cross))

    gamma, eps = state.gamma, state.eps
    xi, eta = state.scaled.base.xi, state.scaled.base.eta
    cb12 = (gamma * perp(off) + gamma * eps * r * xi
            + gamma * eps * perp(_strain(a, b, xi)))
    cb3 = (gamma * eps * (xi @ off)
           + gamma * eps ** 2 * (-a * eta[0] + b * eta[1]))

    return (np.array([ca12[0], ca12[1], ca3]),
            np.array([cb12[0], cb12[1], cb3]))


def boundary_approximation_defect(state: CoupledState,
                                  mod: dict) -> float:
    """Boundary L2 gap between the drift-strain-potential surrogate of
    the circulation-free trace and the exact one.

    The surrogate replaces the blob field by its origin jet (drift plus
    strain) and carries the induced potentials; the spin potential is
    shared by both sides.  Decays like eps^(5/2).
    """
    sc = state.scaled
    mesh = sc.base.mesh
    nodes = state.eps * mesh.x
    a, b, drift = mod["a"], mod["b"], mod["drift"]
    off = state.ell - drift
    traces = sc.phi_traces

    surrogate = (drift + _strain(a, b, nodes)
                 + off[0] * traces[0] + off[1] * traces[1]
                 - a * traces[3] - b * traces[4]
                 + state.r * traces[2])
    exact = HydrodynamicField(sc, state.field).tilde_boundary_trace(
        state.ell, state.r)
    gap = exact - surrogate
    return float(np.sqrt(((gap ** 2).sum(1) * state.eps * mesh.w).sum()))


# ---------------------------------------------------------------------------
# trajectory diagnostics


@dataclass(frozen=True)
class ResidualSeries:
    """Centered-difference residual of the modulated body equation,
    rescaled by eps^min(alpha, 2), at the interior samples
    ``run.t[1:-1]``."""

    implied: np.ndarray          # remainder force series, (n-2, 3)
    fitted_constant: float       # max |implied| / (1 + |p| + eps |p|^2)
    dt_converged: bool | None = None  # None when the run is too short to tell


def _centered(values: np.ndarray, dt: float) -> np.ndarray:
    """Centered difference along the first axis, at the interior samples."""
    return (values[2:] - values[:-2]) / (2.0 * dt)


def _inertia_terms(p: np.ndarray, eps: float, alpha: float, mass: MassData):
    """M = eps^alpha M_g + eps^2 M_a and, per sample, the quadratic terms
    eps^(alpha-1) Lambda_g(p) + eps Lambda_a(p) of the modulated momentum."""
    M = eps ** alpha * mass.genuine + eps ** 2 * mass.added_3x3
    quad = (eps ** (alpha - 1.0) * apply_lambda(mass, "g", p)
            + eps * apply_lambda(mass, "a", p))
    return M, quad


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: one dot per row."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _residual_core(run, mass: MassData, alpha: float, dt: float, every: int):
    """The residual and its fitted constant on every ``every``-th sample."""
    eps = run.eps
    p, gamma, a, b = (column[::every] for column in
                      (run.p_modulated, run.gamma, run.a, run.b))
    M, quad = _inertia_terms(p, eps, alpha, mass)
    gamma = gamma[1:-1, None]
    gyro = gamma * cross_product(p[1:-1], gyro_axis(mass))
    weak = eps * gamma * _weak_gyro(a[1:-1], b[1:-1], mass)
    # single-call bits
    inertia = (M @ _centered(p, every * dt)[..., None])[..., 0]
    out = (inertia + quad[1:-1] - gyro - weak) / eps ** min(alpha, 2.0)
    sizes = np.linalg.norm(p[1:-1], axis=1)
    fitted = float((np.linalg.norm(out, axis=1)
                    / (1.0 + sizes + eps * sizes ** 2)).max())
    return out, fitted


def normal_form_residual(run, mass: MassData, alpha: float,
                         dt: float) -> ResidualSeries:
    """Everything in the modulated equation except the remainder force,
    moved to one side: what is left over, divided by its expected size.

    ``run`` is a coupled lab.RunRecord sampled every ``dt`` (its eps and
    its gamma, a, b and p_modulated columns are read); ``mass`` and
    ``alpha`` are the run's.  The momentum derivative uses centered
    differences at the sampled cadence, no smoothing; dt_converged
    compares against the double cadence and flags runs sampled too
    coarsely for the difference to mean anything."""
    if len(run.t) < 3:
        raise ValueError("need at least three uniformly spaced samples")
    out, fitted = _residual_core(run, mass, alpha, dt, 1)

    converged = None
    if len(run.t) >= 5:
        _, coarse = _residual_core(run, mass, alpha, dt, 2)
        scale = max(fitted, np.finfo(float).tiny)
        converged = bool(abs(coarse - fitted) <= 0.1 * scale)

    return ResidualSeries(implied=out, fitted_constant=fitted,
                          dt_converged=converged)


def modulation_rate_monitor(run, mass: MassData, dt: float):
    """Centered-difference rate of the drift-plus-strain correction,
    with the spin rotation removed, fitted against 1 + |p_modulated|.

    Reads the eps and the r, drift, a, b and p_modulated columns of a
    coupled lab.RunRecord sampled every ``dt``.  Returns the rates at the
    interior samples, ``run.t[1:-1]``, and the fitted constant, 0.0 with
    fewer than three samples.  Bounded along healthy runs.
    """
    vals = run.drift + run.eps * _strain(run.a, run.b, mass.xi)
    rates = _centered(vals, dt) + run.r[1:-1, None] * perp(run.drift[1:-1])
    sizes = _row_norms(run.p_modulated[1:-1])
    fitted = float((_row_norms(rates) / (1.0 + sizes)).max(initial=0.0))
    return rates, fitted
