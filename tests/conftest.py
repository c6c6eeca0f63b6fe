"""Session fixtures shared between module tests and the acceptance gate.

The expensive assets (potential sets, the frozen-state expansion sweep,
the residual reference runs, the alpha=2 trajectory sweep) are computed
once per session; acceptance criteria and module tests read the same
objects instead of re-running the experiments.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from vortexbody.biotsavart import BlobField, HydrodynamicField
from vortexbody.coupled_system import (VorticityPatch, coupled_step, force_B,
                                       force_C, init_coupled)
from vortexbody.geometry import (ShapeSpec, build_mesh, perp, perturbed_disk,
                                 rotation)
from vortexbody.normal_form import (
    _centered,
    _inertia_terms,
    boundary_approximation_defect,
    expansion_B,
    expansion_C,
    modulation,
    normal_form_residual,
)
from vortexbody.potential import (ScaledPotentials, build_mass_data,
                                  build_potential_set, log_potential_sum)

SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)


def gradient_matrix(sample) -> np.ndarray:
    """The traceless symmetric matrix [[-a, b], [b, a]] of a velocity_gradient
    sample (a, b, clean)."""
    a, b, _ = sample
    return np.array([[-a, b], [b, a]])


def patch_field(inner, outer, spacing, vorticity=1.0) -> BlobField:
    """One annular patch on a lattice of ``spacing``, blob core one cell."""
    x, gamma = VorticityPatch(inner, outer, vorticity).discretize(spacing)
    return BlobField(x=x, gamma=gamma, delta=spacing)


def empty_field(frame="body") -> BlobField:
    """A field with no blobs; its core radius is never read."""
    return BlobField(x=np.zeros((0, 2)), gamma=np.zeros(0), delta=0.1,
                     frame=frame)


def total_force(state, hydro) -> np.ndarray:
    """The right-hand side -(B + C + Coriolis) of the body equation."""
    C_a, C_b, C_c = force_C(state, hydro)
    coriolis = np.array([*(state.body_mass * state.r * perp(state.ell)), 0.0])
    return -(force_B(state, hydro) + C_a + C_b + C_c + coriolis)


def scaled_shape(shape: ShapeSpec, factor: float) -> ShapeSpec:
    """The same curve with every Fourier coefficient times ``factor``."""
    return ShapeSpec(shape.name, shape.modes,
                     tuple(c * factor for c in shape.coeffs))


def neumann_potential(solution, points) -> np.ndarray:
    """A NeumannSolution's single-layer potential at each point."""
    return log_potential_sum(points, solution.mesh.x, solution.charges)


def harmonic_stream(H, points) -> np.ndarray:
    """The stream function (1/2pi) ln|x - pole| + S sigma + c of a
    HarmonicField at each point; it vanishes on the boundary."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    base = (0.25 / np.pi) * np.log(((pts - H.pole) ** 2).sum(axis=1))
    return base + log_potential_sum(pts, H.mesh.x, H.charges) + H.constant


def harmonic_circulation(H) -> float:
    """The circulation of a HarmonicField's boundary trace."""
    trace = H.boundary_trace()
    return float(np.sum((trace * H.mesh.tau).sum(axis=1) * H.mesh.w))


def rotated_mass_identity_check(run, dt: float) -> float:
    """Max gap, over interior times and the two velocity components,
    between the attitude-rotated inertia terms and the plain time
    derivative of the rotated momentum, along a ``sampled_run``.

    Both sides use centered differences; the gap vanishes at rate dt^2.
    """
    if len(run.t) < 3:
        raise ValueError("need at least three uniformly spaced samples")
    eps, alpha, p = run.eps, run.alpha, run.p_modulated
    Mg, Ma = run.mass.genuine, run.mass.added_3x3
    M, quad = _inertia_terms(p, eps, alpha, run.mass)
    # the attitude rotation of each sample, acting on (ell, r)
    Q = np.tile(np.eye(3), (len(run.t), 1, 1))
    Q[:, :2, :2] = np.moveaxis(rotation(run.theta), -1, 0)

    rotated = ((eps ** alpha * Mg @ Q + eps ** 2 * Q @ Ma)
               @ p[..., None])[..., 0]
    inertia = (M @ _centered(p, dt)[..., None])[..., 0]
    lhs = (Q[1:-1] @ (inertia + quad[1:-1])[..., None])[:, :2, 0]
    rhs = _centered(rotated, dt)[:, :2]
    return float(np.abs(lhs - rhs).max())

# Frozen flow state for the expansion-order sweep.  The shape must be
# genuinely asymmetric: central symmetry kills the odd shape moments
# (conformal center, third-potential dipole) that carry the leading
# third-component remainders, and the circulation sign is chosen so the
# circulation-linear and circulation-free parts of that remainder add
# instead of cancelling inside the sweep window.
ASYM_COS = {2: 0.20, 3: 0.18}
ASYM_SIN = {2: 0.12, 3: 0.07}
FROZEN_ELL = (0.3, -0.2)
FROZEN_R = 0.7
FROZEN_GAMMA = -1.0


def make_random_blobs() -> BlobField:
    rng = np.random.default_rng(42)
    n = 14
    rad = rng.uniform(1.0, 1.9, n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    gam = rng.normal(0.3, 0.25, n)
    x = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return BlobField(x=x, gamma=gam, delta=0.06)


@pytest.fixture(scope="session")
def asym_setup():
    shape = perturbed_disk(cos_amps=ASYM_COS, sin_amps=ASYM_SIN)
    pset = build_potential_set(build_mesh(shape, 256))
    return pset, build_mass_data(pset)


@pytest.fixture(scope="session")
def random_blobs():
    return make_random_blobs()


@pytest.fixture(scope="session")
def frozen_sweep(asym_setup, random_blobs):
    """Exact-vs-expansion errors over the eps sweep at the frozen state.

    Returns per-quantity error lists, fitted log-log slopes, and the max
    spin-coupling quadratic term, keyed for both the module tests and
    acceptance criteria 4-5.
    """
    pset, _ = asym_setup
    errs = {k: [] for k in ("B12", "B3", "Ca12", "Ca3", "Cb12", "Cb3", "defect")}
    cc_max = 0.0
    for eps in SWEEP_EPS:
        sp = ScaledPotentials(pset, eps)
        st = init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                          ell0=FROZEN_ELL, r0=FROZEN_R, field=random_blobs)
        mod = modulation(st)
        hydro = HydrodynamicField(sp, st.field)
        B = force_B(st, hydro)
        C_a, C_b, C_c = force_C(st, hydro)
        eB = expansion_B(st, mod)
        eCa, eCb = expansion_C(st, mod)
        errs["B12"].append(float(np.hypot(*(B - eB)[:2])))
        errs["B3"].append(abs(float((B - eB)[2])))
        errs["Ca12"].append(float(np.hypot(*(C_a - eCa)[:2])))
        errs["Ca3"].append(abs(float((C_a - eCa)[2])))
        errs["Cb12"].append(float(np.hypot(*(C_b - eCb)[:2])))
        errs["Cb3"].append(abs(float((C_b - eCb)[2])))
        errs["defect"].append(boundary_approximation_defect(st, mod))
        cc_max = max(cc_max, float(np.abs(C_c).max()))
    log_eps = np.log(SWEEP_EPS)
    slopes = {k: float(np.polyfit(log_eps, np.log(v), 1)[0])
              for k, v in errs.items()}
    return {"errors": errs, "slopes": slopes, "cc_max": cc_max}


def run_columns(rows, state) -> SimpleNamespace:
    """Sample rows stacked into the columns a coupled run record holds,
    with the run's eps and alpha taken from ``state`` and its MassData
    built from the state's potential set, m1 and J1."""
    return SimpleNamespace(
        eps=state.eps, alpha=state.alpha,
        mass=build_mass_data(state.scaled.base, state.m1, state.J1),
        **{key: np.asarray([row[key] for row in rows]) for key in rows[0]})


def sampled_row(st) -> dict:
    """One sample of the columns the normal-form diagnostics read."""
    return {"t": st.t, "theta": st.theta, "gamma": st.gamma,
            "r": st.r, **modulation(st)}


def every(run, k: int) -> SimpleNamespace:
    """The run sampled every k-th row: columns sliced, constants kept."""
    return SimpleNamespace(**{key: value[::k] if isinstance(value, np.ndarray)
                              else value for key, value in vars(run).items()})


def sampled_run(pset, blobs, *, eps, dt, steps, r0):
    """Step a coupled run from ell0 = (1, 0) and return its sampled
    columns (see run_columns), one row per state."""
    st = init_coupled(ScaledPotentials(pset, eps), m1=1.0, J1=1.0, alpha=2.0,
                      gamma=FROZEN_GAMMA, ell0=(1.0, 0.0), r0=r0, field=blobs)
    rows = []
    for k in range(steps + 1):
        if k:
            st = coupled_step(st, dt)
        rows.append(sampled_row(st))
    return run_columns(rows, st)


@pytest.fixture(scope="session")
def residual_runs(asym_setup, random_blobs):
    """Reference trajectories for the normal-form residual, one per eps,
    sampled finely enough that the centered difference is dt-converged
    (the gyroscopic frequency grows like 1/eps^2, hence the cadences)."""
    pset, _ = asym_setup
    runs = {}
    for eps, dt, steps in ((0.1, 2.5e-4, 192), (0.05, 1.25e-4, 384)):
        runs[eps] = (sampled_run(pset, random_blobs, eps=eps, dt=dt,
                                 steps=steps, r0=0.3 / eps), dt)
    return runs


@pytest.fixture(scope="session")
def residual_series(residual_runs):
    return {eps: normal_form_residual(record, record.mass, record.alpha, dt)
            for eps, (record, dt) in residual_runs.items()}


def disk_vortex_rhs(R, mass, gamma, strengths):
    """Right-hand side of a rigid disk of radius R, body mass ``mass`` and
    circulation ``gamma`` among point vortices of the given strengths
    (Shashikanth, Marsden, Burdick & Kelly, Phys. Fluids 14, 2002), for
    solve_ivp.  The state is (z_c, U, z_1 .. z_n) with each complex entry
    stored as two reals; circulations are counter-clockwise.

    Each vortex has the circle-theorem images -Gamma_k at
    z_c + R^2 / conj(z_k - z_c) and +Gamma_k at z_c, the translation adds
    the dipole -U R^2 / (z - z_c) to the complex potential, and the
    conserved impulse (m + pi R^2) U - i gamma z_c
    - i sum Gamma_k (z_k - R^2 / conj(z_k - z_c)) gives U'.
    """
    G = np.asarray(strengths, dtype=float)

    def rhs(_, y):
        zc, U, *rest = y[0::2] + 1j * y[1::2]
        z = np.array(rest)
        zeta = z - zc
        images = zc + R * R / np.conj(zeta)
        pair = np.subtract.outer(z, z)
        np.fill_diagonal(pair, 1.0)
        mutual = G / (2j * np.pi * pair)
        np.fill_diagonal(mutual, 0.0)
        # conjugate velocity of each vortex, its own term left out
        w = (U * R * R / zeta ** 2 + (gamma + G.sum()) / (2j * np.pi * zeta)
             + mutual.sum(axis=1)
             - (G / (2j * np.pi * np.subtract.outer(z, images))).sum(axis=1))
        zdot = np.conj(w)
        lift = G @ (zdot + R * R * np.conj(zdot - U) / np.conj(zeta) ** 2)
        Udot = 1j * (gamma * U + lift) / (mass + np.pi * R * R)
        out = np.concatenate([[U, Udot], zdot])
        return np.column_stack([out.real, out.imag]).ravel()

    return rhs


def vortex_wave_rhs(gamma, strengths):
    """Right-hand side of the eps -> 0 limit of ``disk_vortex_rhs``: a
    point vortex of circulation ``gamma`` at h among point vortices of the
    given strengths, for solve_ivp.  The state is (h, z_1 .. z_n), each
    complex entry stored as two reals; circulations are counter-clockwise.

    With point vortices for the background, the vortex-wave system is the
    point-vortex system of all n + 1: each moves with the others' flow.
    """
    G = np.concatenate([[gamma], np.asarray(strengths, dtype=float)])

    def rhs(_, y):
        z = y[0::2] + 1j * y[1::2]
        pair = np.subtract.outer(z, z)
        np.fill_diagonal(pair, 1.0)
        w = G / (2j * np.pi * pair)
        np.fill_diagonal(w, 0.0)
        zdot = np.conj(w.sum(axis=1))
        return np.column_stack([zdot.real, zdot.imag]).ravel()

    return rhs
