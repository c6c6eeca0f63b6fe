"""The full body-fluid system at body scale eps, evolved in the frame
attached to the body.

State: blob-discretized vorticity (body frame), body velocity (ell, r),
attitude theta and lab position h.  Newton's equations use the
pressure-free reformulation: the force splits into a vorticity part B
(a blob sum against the Kirchhoff potential gradients) and boundary
parts C_a, C_b, C_c (quadratures of the circulation-free trace and the
harmonic field against the rigid normal data), plus the Coriolis-type
term from the rotating frame.  The pressure itself is never formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .geometry import TWO_PI, perp, rk4_step, rotation, squared_distances
from .potential import ScaledPotentials, log_potential_sum
from .biotsavart import BlobField, HydrodynamicField, pair_energy

log = logging.getLogger(__name__)


class TimeStepError(RuntimeError):
    """dt too large for the current blob/body configuration."""


@dataclass(frozen=True)
class VorticityPatch:
    """Annular patch of uniform vorticity, discretized on a fixed
    cell-centered lattice (deterministic: no randomness in the fill).
    The lattice spacing and the blob core belong to the experiment, which
    puts every patch on one lattice.
    """

    inner: float
    outer: float
    vorticity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.inner < self.outer:
            raise ValueError("need 0 <= inner < outer")
        if not np.isfinite(self.vorticity):
            raise ValueError("vorticity must be finite")

    def discretize(self, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        """Blob positions (n, 2) and strengths (n,): each lattice cell
        whose center lies in the annulus becomes one blob of strength
        spacing^2 * vorticity at that center."""
        k = int(np.ceil(self.outer / spacing)) + 1
        idx = np.arange(-k, k) + 0.5
        X, Y = np.meshgrid(idx * spacing, idx * spacing)
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        rad = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[(self.inner <= rad) & (rad <= self.outer)]
        return pts, np.full(len(pts), spacing * spacing * self.vorticity)


@dataclass(frozen=True)
class CoupledState:
    """The body at lab position ``h`` and attitude ``theta`` (body point x
    sits at lab point R(theta) x + h), moving with body-frame velocity
    (ell, r), among body-frame blobs.  ``m1`` and ``J1`` are the body's
    unit-scale mass and moment of inertia, entering at eps^alpha and
    eps^(alpha+2); the added mass is read from ``scaled.base``, the same
    potential set the forces read."""

    alpha: float
    h: np.ndarray
    theta: float
    ell: np.ndarray
    r: float
    field: BlobField           # body frame
    gamma: float
    scaled: ScaledPotentials
    m1: float
    J1: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float).reshape(2))
        object.__setattr__(self, "ell", np.asarray(self.ell, dtype=float).reshape(2))
        if self.field.frame != "body":
            raise ValueError("coupled blobs live in the body frame")

    @property
    def eps(self) -> float:
        return self.scaled.eps

    @property
    def body_mass(self) -> float:
        return self.eps ** self.alpha * self.m1

    @property
    def inertia_matrix(self) -> np.ndarray:
        """eps^alpha I M_g I + eps^2 I M_a I with I = diag(1, 1, eps)."""
        eps, I = self.eps, np.diag([1.0, 1.0, self.eps])
        return (eps ** self.alpha * I @ np.diag([self.m1, self.m1, self.J1]) @ I
                + eps ** 2 * I @ self.scaled.base.mass[:3, :3] @ I)

    @property
    def p(self) -> np.ndarray:
        return np.array([self.ell[0], self.ell[1], self.r])

    def to_lab(self, x):
        """Lab positions R(theta) x + h of body points x, shape (..., 2)."""
        return np.asarray(x) @ rotation(self.theta).T + self.h

    def boundary_distance(self) -> float:
        """Smallest blob distance to the boundary nodes (inf without blobs)."""
        rho = squared_distances(self.field.x, self.eps * self.scaled.base.mesh.x)
        return float(np.sqrt(rho.min(initial=np.inf)))


def init_coupled(scaled: ScaledPotentials, *, m1: float, J1: float,
                 alpha: float, gamma: float, ell0=(0.0, 0.0), r0: float = 0.0,
                 field: BlobField) -> CoupledState:
    """Assemble an initial state: body at rest pose (h=0, theta=0), the
    given body-frame blobs, body velocity (ell0, r0).

    The body circumradius must lie below half the closest blob distance,
    the inertia matrix must be finite and positive definite, and so must
    eps ** (alpha - 1), the scale of the normal form's gyroscopic term.
    """
    if gamma == 0.0:
        log.warning("gamma = 0: runs are fine, zero-size limit claims are not")

    body_radius = scaled.eps * scaled.base.mesh.circumradius
    closest, _ = field.support_annulus((0.0, 0.0))
    if 2.0 * body_radius > closest:
        raise ValueError(
            f"body circumradius {body_radius:.3f} too large for vorticity "
            f"support starting at {closest:.3f}")

    state = CoupledState(alpha=float(alpha), h=np.zeros(2), theta=0.0,
                         ell=ell0, r=float(r0), field=field,
                         gamma=float(gamma), scaled=scaled, m1=float(m1),
                         J1=float(J1))
    try:    # a zero pivot raises; a NaN or an infinity comes through
        definite = np.isfinite(np.linalg.cholesky(state.inertia_matrix)).all()
    except (np.linalg.LinAlgError, OverflowError):  # eps ** alpha overflows
        definite = False
    if not definite:
        raise ValueError("inertia matrix is not finite and positive definite")
    try:    # a power of Python floats raises on overflow
        float(scaled.eps) ** (float(alpha) - 1.0)
    except OverflowError:
        raise ValueError("eps ** (alpha - 1), the normal form's gyroscopic "
                         "scale, overflows") from None
    return state


# ---------------------------------------------------------------------------
# forces


def force_B(state: CoupledState, hydro: HydrodynamicField) -> np.ndarray:
    """Vorticity force: blob sum of [v - ell - r x^perp]^perp . grad Phi_i.

    Evaluated adjointly: the potentials are single layers on shared
    nodes, so the blob sum collapses onto the transposed product with
    the state's blob x node geometry ``hydro`` followed by a dot product
    with each charge vector.
    """
    v = hydro.blob_velocity(state.gamma, state.ell, state.r)
    u_perp = perp(v - state.ell - state.r * perp(state.field.x))
    lobe = hydro.gradient_adjoint(state.field.gamma[:, None] * u_perp)

    phi = state.scaled.base.phi
    return np.array([phi[0].charges @ lobe, phi[1].charges @ lobe,
                     state.eps * (phi[2].charges @ lobe)])


def force_C(state: CoupledState, hydro: HydrodynamicField):
    """Boundary force terms (C_a, C_b, C_c), each a 3-vector.

    C_c vanishes identically (an exact property of the harmonic field);
    it is still computed so the cancellation is visible in tests.
    """
    mesh = state.scaled.base.mesh
    w = state.eps * mesh.w
    K = state.scaled.rigid_normal_data

    vt = hydro.tilde_boundary_trace(state.ell, state.r)
    rigid = state.ell + state.r * perp(state.eps * mesh.x)
    H = state.scaled.h_trace

    quad = lambda f: K @ (f * w)
    C_a = quad(0.5 * (vt ** 2).sum(1)) - quad((rigid * vt).sum(1))
    C_b = state.gamma * quad(((vt - rigid) * H).sum(1))
    C_c = 0.5 * state.gamma ** 2 * quad((H ** 2).sum(1))
    return C_a, C_b, C_c


def accelerations(state: CoupledState,
                  hydro: HydrodynamicField) -> np.ndarray:
    """The body accelerations (ell', r') as a (3,) array, from
    M (ell', r') = -B - C - (m r ell^perp, 0)."""
    B = force_B(state, hydro)
    C_a, C_b, C_c = force_C(state, hydro)
    cor = np.array([*(state.body_mass * state.r * perp(state.ell)), 0.0])
    rhs = -(B + C_a + C_b + C_c + cor)
    return np.linalg.solve(state.inertia_matrix, rhs)


# ---------------------------------------------------------------------------
# time stepping


def _stage_rhs(state: CoupledState, dt: float, x, ell, r, theta, h):
    """Time derivatives of (blob positions, ell, r, theta, h) at a stage.

    Guard: over dt at this stage's speed, no blob may cross a fifth of the
    stage's clearance to the body; otherwise TimeStepError.  A non-finite
    stage input raises FloatingPointError before any solve.
    """
    if not (np.isfinite(x).all() and np.isfinite([*ell, r, theta]).all()):
        raise FloatingPointError(
            f"non-finite stage input in the step from t={state.t:.6g}")
    stage = replace(state, field=state.field.with_positions(x), ell=ell,
                    r=float(r))
    hydro = HydrodynamicField(stage.scaled, stage.field)
    x_dot = hydro.blob_velocity(stage.gamma, ell, r) - ell - r * perp(x)
    vmax = float(np.hypot(x_dot[:, 0], x_dot[:, 1]).max(initial=0.0))
    if dt * vmax >= 0.2 * hydro.clearance:
        raise TimeStepError(
            f"dt {dt:.3e} x speed {vmax:.3f} exceeds a fifth of the "
            f"clearance {hydro.clearance:.3f}")
    accel = accelerations(stage, hydro)
    return x_dot, accel[:2], accel[2], float(r), rotation(theta) @ ell


def coupled_step(state: CoupledState, dt: float) -> CoupledState:
    """One RK4 step of the joint blob + body system; every stage is
    guarded as in :func:`_stage_rhs`, and a collision inside a stage
    aborts the run."""
    x, ell, r, theta, h = rk4_step(
        lambda *y: _stage_rhs(state, dt, *y),
        (state.field.x, state.ell, state.r, state.theta, state.h), dt)
    return replace(state, field=state.field.with_positions(x), ell=ell, r=r,
                   theta=theta, h=h, t=state.t + dt)


# ---------------------------------------------------------------------------
# conserved energy


def total_energy(state: CoupledState) -> float:
    """Half of 2H = p^T M p - sum_jk G_j G_k G(x_j,x_k) - 2 gamma sum_j G_j psi_H(x_j).

    The exterior Green's function G splits into the regularized pair
    stream, whose blob sum is biotsavart.pair_energy, a bounded harmonic
    correction u that cancels the free log on the boundary, and
    -beta psi_H, which carries the correction's log growth; so the last
    sum's factor becomes beta + 2 gamma.

    The blob sums of u and psi_H follow by Green's reciprocity from F,
    the blobs' free log potential at the scaled nodes and at H's scaled
    pole.  With (sigma, c) the Dirichlet density of -F on the nodes and
    zero total density,

        sum_j G_j u(x_j)     = (sigma w) . F + beta c,
        sum_j G_j psi_H(x_j) = F(pole) + H.charges . F
                               + beta (H.constant - ln(eps)/2pi),

    so one blob x node pass and one Dirichlet solve serve both.
    """
    p = state.p
    # an overflow gives an infinite energy, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(p @ state.inertia_matrix @ p)
    f = state.field
    base = state.scaled.base
    mesh, H, eps, beta = base.mesh, base.H, state.eps, f.beta
    F = log_potential_sum(eps * np.vstack([mesh.x, H.pole]), f.x, f.gamma)
    F_nodes, F_pole = F[:-1], F[-1]
    sigma, c = base.ops.dirichlet_density(-F_nodes)
    green = pair_energy(f) + float((sigma * mesh.w) @ F_nodes) + beta * c
    s_h = (F_pole + float(H.charges @ F_nodes)
           + beta * (H.constant - np.log(eps) / TWO_PI))
    return 0.5 * (quad - green - (beta + 2.0 * state.gamma) * s_h)
