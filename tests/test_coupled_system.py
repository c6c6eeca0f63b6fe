"""Coupled blob + body dynamics: trivial force cases, the exactly solvable
disk with pure circulation, Green's function against the circle images,
energy conservation under step halving, and frame-change identities."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1

from conftest import (empty_field, gradient_matrix, harmonic_stream,
                      patch_field, total_force)
from vortexbody import coupled_system
from vortexbody.biotsavart import (
    BlobField,
    HydrodynamicField,
    pair_energy,
    velocity_free_space,
    velocity_gradient,
)
from vortexbody.coupled_system import (
    TimeStepError,
    VorticityPatch,
    accelerations,
    coupled_step,
    force_B,
    force_C,
    init_coupled,
    total_energy,
)
from vortexbody.geometry import (TWO_PI, build_mesh, disk, ellipse, perp,
                                 rotation)
from vortexbody.potential import (
    ScaledPotentials,
    build_mass_data,
    build_potential_set,
    log_gradient_sum,
    log_potential_sum,
)

EPS = 0.1
ALPHA = 2.0


@pytest.fixture(scope="module")
def disk_setup():
    pset = build_potential_set(build_mesh(disk(), 256))
    return ScaledPotentials(pset, EPS), build_mass_data(pset)


@pytest.fixture(scope="module")
def ellipse_setup():
    pset = build_potential_set(build_mesh(ellipse(2.0, 1.0), 256))
    return ScaledPotentials(pset, EPS), build_mass_data(pset)


def test_patch_lattice_total_strength():
    x, gamma = VorticityPatch(1.0, 2.0, 1.0).discretize(0.05)
    want = 3.0 * np.pi  # pi (2^2 - 1^2) for unit vorticity
    assert abs(gamma.sum() - want) < 5e-3 * want
    assert x.shape == (len(gamma), 2)

    with pytest.raises(ValueError):
        VorticityPatch(2.0, 1.0)


# the lattice spacing is checked by ExperimentConfig (test_config_invariants)
@pytest.mark.parametrize("spacing, vorticity, message", [
    (0.05, np.nan, "vorticity"), (0.05, np.inf, "vorticity")])
def test_patch_rejects_nonfinite_values(spacing, vorticity, message):
    with pytest.raises(ValueError, match=message):
        VorticityPatch(1.0, 2.0, vorticity).discretize(spacing)


def test_init_preconditions(disk_setup):
    sp, md = disk_setup
    # support must start beyond twice the body circumradius
    with pytest.raises(ValueError):
        init_coupled(sp, md, alpha=ALPHA, gamma=1.0,
                     field=BlobField(x=[[0.15, 0.0]], gamma=[1.0], delta=0.01))


def test_gamma_zero_warns(disk_setup, caplog):
    sp, md = disk_setup
    with caplog.at_level("WARNING", logger="vortexbody.coupled_system"):
        init_coupled(sp, md, alpha=ALPHA, gamma=0.0, field=empty_field())
    assert any("gamma" in rec.message for rec in caplog.records)


def test_empty_field_energy_is_quadratic(disk_setup, ellipse_setup):
    # the blob sums of an empty field are empty products: exactly +0
    for sp, md in (disk_setup, ellipse_setup):
        for gamma in (2 * np.pi, -3.0):
            st = init_coupled(sp, md, alpha=ALPHA, gamma=gamma,
                              ell0=(1.0, 0.0), r0=0.4, field=empty_field())
            p = st.p
            assert total_energy(st) == 0.5 * p @ st.inertia_matrix @ p


def test_coincident_blobs_energy_equals_merged(ellipse_setup):
    # overlapping patches share lattice points, so two blobs can sit at
    # one position; their pair term is the self-interaction, and the
    # energy is that of one blob carrying both strengths
    sp, md = ellipse_setup
    parts = [patch_field(1.0, 1.8, 0.3, 1.0),
             patch_field(1.4, 2.0, 0.3, 0.5)]
    x = np.vstack([f.x for f in parts])
    g = np.concatenate([f.gamma for f in parts])
    pos, where = np.unique(x, axis=0, return_inverse=True)
    assert len(pos) < len(x)
    dup = BlobField(x=x, gamma=g, delta=0.3)
    merged = BlobField(x=pos, gamma=np.bincount(where.ravel(), weights=g),
                       delta=0.3)
    energy = [total_energy(init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi,
                                        ell0=(0.5, 0.0), field=f))
              for f in (dup, merged)]
    assert energy[0] == pytest.approx(energy[1], rel=1e-13, abs=0.0)


def test_coincident_blobs_energy_emits_no_warning(ellipse_setup):
    # ln 0 + E1(0) is never formed for blobs sharing a position
    sp, md = ellipse_setup
    parts = [patch_field(1.0, 1.8, 0.3, 1.0),
             patch_field(1.4, 2.0, 0.3, 0.5)]
    dup = BlobField(x=np.vstack([f.x for f in parts]),
                    gamma=np.concatenate([f.gamma for f in parts]), delta=0.3)
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(0.5, 0.0),
                      field=dup)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(total_energy(st))


def boundary_correction(state, sources, strengths, points) -> np.ndarray:
    """Harmonic correction, at ``points``, that cancels on the body
    boundary the free log potential of charges ``strengths`` at
    ``sources``: the exterior Dirichlet part of the Green's function,
    evaluated point by point.

    The log growth -sum(strengths)/2pi is carried by a pole at an
    interior point so the solve decays.  This is the direct route that
    total_energy replaces by a reciprocity sum on the nodes.
    """
    mesh = state.scaled.base.mesh
    eps = state.eps
    total = float(np.sum(strengths))
    pole = eps * mesh.interior_point

    def base(q):
        d = np.asarray(q, float).reshape(-1, 2) - pole
        return -(total / (2 * TWO_PI)) * np.log((d ** 2).sum(1))

    nodes = eps * mesh.x
    data = -(log_potential_sum(nodes, sources, strengths) + base(nodes))
    sigma, c = state.scaled.base.ops.dirichlet_density(data)
    points = np.asarray(points, float).reshape(-1, 2)
    return (base(points)
            + log_potential_sum(points / eps, mesh.x, sigma * mesh.w) + c)


def dense_pair_stream(field):
    """Every pair's regularized stream, E1 evaluated on all of them."""
    d = field.x[:, None, :] - field.x[None, :, :]
    rho = (d ** 2).sum(axis=-1)
    apart = rho > 0
    psi = np.full(rho.shape, (np.log(field.delta) - np.euler_gamma / 2) / 2)
    psi[apart] = (np.log(rho[apart]) + exp1(rho[apart] / field.delta ** 2)) / 4
    return psi / np.pi


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_blocked_pair_sum_matches_dense(ellipse_setup, n):
    # total_energy sums gamma^T P gamma over the upper block-triangle with
    # E1 cut off; against one dense product it differs only by roundoff.
    # The first blob's position is repeated, inside a block and across one
    sp, md = ellipse_setup
    rng = np.random.default_rng(n)
    radius = rng.uniform(1.2, 1.8, n)
    angle = rng.uniform(0, 2 * np.pi, n)
    x = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    x[n // 2] = x[-1] = x[0]
    f = BlobField(x=x, gamma=rng.uniform(0.5, 1.5, n), delta=0.1)
    st = init_coupled(sp, md, alpha=ALPHA, gamma=1.0, ell0=(0.5, 0.0), field=f)
    psi = f.gamma @ dense_pair_stream(f) @ f.gamma
    p = st.p
    correction = boundary_correction(st, f.x, f.gamma, f.x)
    stream = harmonic_stream(sp.base.H, f.x / EPS)
    dense = 0.5 * (p @ st.inertia_matrix @ p - psi - f.gamma @ correction
                   - 2.0 * (f.beta + st.gamma) * (f.gamma @ stream))
    # total_energy = dense + (psi - blocked psi)/2
    assert abs(2.0 * (dense - total_energy(st))) <= 1e-14 * abs(psi)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_pair_energy_matches_dense(n):
    # the fields of test_blocked_pair_sum_matches_dense, the pair sum alone
    rng = np.random.default_rng(n)
    radius = rng.uniform(1.2, 1.8, n)
    angle = rng.uniform(0, 2 * np.pi, n)
    x = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    x[n // 2] = x[-1] = x[0]
    f = BlobField(x=x, gamma=rng.uniform(0.5, 1.5, n), delta=0.1)
    psi = f.gamma @ dense_pair_stream(f) @ f.gamma
    assert abs(pair_energy(f) - psi) <= 1e-14 * abs(psi)


@pytest.mark.parametrize("kernel", [
    lambda st: velocity_free_space(st.field, st.field.x),
    total_energy,
    lambda st: pair_energy(st.field),
], ids=["velocity_free_space", "total_energy", "pair_energy"])
def test_blob_blob_sums_hold_no_pair_matrix(disk_setup, kernel):
    # row blocks keep the peak linear in n: at 2796 blobs a quarter of
    # one (n, n) array (15.6 MB) bounds it
    sp, md = disk_setup
    f = patch_field(1.0, 1.8, 0.05)
    st = init_coupled(sp, md, alpha=ALPHA, gamma=1.0, field=f)
    kernel(st)   # warm up lazily imported code paths
    tracemalloc.start()
    try:
        kernel(st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= f.n ** 2 * 8 / 4, peak / (f.n ** 2 * 8)


def green_function(state, x, y) -> float:
    """Exterior Dirichlet Green's function at one pair of points, through
    the same boundary correction as the energy."""
    y = np.asarray(y, float).reshape(1, 2)
    unit = np.ones(1)
    free = log_potential_sum(x, y, unit)[0]
    return float(free + boundary_correction(state, y, unit, x)[0])


def test_green_function_matches_disk_images(disk_setup):
    sp, md = disk_setup
    y = np.array([0.45, 0.15])
    st = init_coupled(sp, md, alpha=ALPHA, gamma=0.0,
                      field=BlobField(x=[y], gamma=[1.0], delta=1e-6))
    ys = EPS**2 * y / (y @ y)
    for x in ([0.8, -0.3], [0.2, 0.9], [3.0, 1.0]):
        got = green_function(st, x, y)
        x = np.asarray(x)
        want = (np.log(np.hypot(*(x - y)))
                - np.log(np.hypot(*(x - ys)) * np.hypot(*y) / EPS)) / (2 * np.pi)
        assert abs(got - want) < 1e-10


def test_energy_matches_disk_images(disk_setup):
    # outside a disk of radius eps the Green's function is the image
    # formula and psi_H(x) = ln(|x|/eps)/2pi, so the energy is closed form
    sp, md = disk_setup
    gamma, delta = 2.3, 0.05
    x = np.array([[0.45, 0.15], [-0.3, 0.6]])
    g = np.array([1.0, -0.7])
    st = init_coupled(sp, md, alpha=ALPHA, gamma=gamma, ell0=(0.4, -0.1),
                      r0=0.6, field=BlobField(x=x, gamma=g, delta=delta))

    def image(x, y):
        ys = EPS**2 * y / (y @ y)
        return -np.log(np.hypot(*(x - ys)) * np.hypot(*y) / EPS) / (2 * np.pi)

    green = np.empty((2, 2))
    for j in range(2):
        for k in range(2):
            r = np.hypot(*(x[j] - x[k]))
            pair = (np.log(delta) - np.euler_gamma / 2 if j == k
                    else np.log(r) + exp1(r**2 / delta**2) / 2) / (2 * np.pi)
            green[j, k] = pair + image(x[j], x[k])
    stream = np.log(np.hypot(x[:, 0], x[:, 1]) / EPS) / (2 * np.pi)
    p = st.p
    want = (0.5 * p @ st.inertia_matrix @ p - 0.5 * g @ green @ g
            - (g.sum() + gamma) * (g @ stream))
    assert abs(total_energy(st) - want) <= 1e-12 * abs(want)


def test_forces_vanish_at_rest(disk_setup, ellipse_setup):
    sp, md = disk_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=3.0, field=empty_field())
    hydro = HydrodynamicField(sp, st.field)
    assert np.array_equal(force_B(st, hydro), np.zeros(3))
    C_a, C_b, C_c = force_C(st, hydro)
    assert np.abs(C_a).max() < 1e-13
    assert np.abs(C_c).max() < 1e-12
    # no blobs: the vorticity force is +0, never -0, on any body or motion
    for sp, md in (disk_setup, ellipse_setup):
        for gamma in (2 * np.pi, -3.0):
            st = init_coupled(sp, md, alpha=ALPHA, gamma=gamma,
                              ell0=(0.4, -0.2), r0=0.7, field=empty_field())
            B = force_B(st, HydrodynamicField(sp, st.field))
            assert np.array_equal(B, np.zeros(3))
            assert not np.signbit(B).any()


def test_disk_lift_is_minus_gamma_ell_perp(disk_setup):
    # no vorticity, no spin: the only surviving boundary force on a disk
    # is the circulation lift
    sp, md = disk_setup
    gamma, ell = 3.0, np.array([0.4, -0.2])
    st = init_coupled(sp, md, alpha=ALPHA, gamma=gamma, ell0=ell,
                      field=empty_field())
    C_a, C_b, C_c = force_C(st, HydrodynamicField(sp, st.field))
    assert np.abs(C_a).max() < 1e-12
    assert np.abs(C_b[:2] - gamma * perp(-ell)).max() < 1e-12
    assert abs(C_b[2]) < 1e-13
    assert np.abs(C_c).max() < 1e-12


def test_ellipse_spin_couple_is_zero_without_flow(ellipse_setup):
    # C_c vanishes identically whatever the shape or motion
    sp, md = ellipse_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(0.3, 0.7),
                      r0=0.9, field=empty_field())
    _, _, C_c = force_C(st, HydrodynamicField(sp, st.field))
    assert np.abs(C_c).max() < 1e-8


def test_stage_geometry_matches_direct_sums(ellipse_setup):
    # one blob x node build serves the blob velocity, the adjoint sum of
    # force_B and the dt-guard clearance; each against its direct form
    sp, md = ellipse_setup
    rng = np.random.default_rng(19)
    n = 40
    rad = rng.uniform(0.4, 0.9, n)
    ang = rng.uniform(0.0, 2 * np.pi, n)
    field = BlobField(x=np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]),
                      gamma=rng.normal(size=n), delta=0.03)
    st = init_coupled(sp, md, alpha=ALPHA, gamma=-1.3, ell0=(0.4, -0.25),
                      r0=2.1, field=field)
    hy = HydrodynamicField(sp, st.field)
    x = st.field.x
    mesh, phi = sp.base.mesh, sp.base.phi

    charges = (hy.charges + st.ell[0] * phi[0].charges
               + st.ell[1] * phi[1].charges + st.r * EPS * phi[2].charges)
    v = (velocity_free_space(st.field, x)
         + log_gradient_sum(x / EPS, mesh.x, charges)
         + st.gamma / EPS * sp.base.H.velocity(x / EPS))
    got = hy.blob_velocity(st.gamma, st.ell, st.r)
    assert np.abs(got - v).max() < 1e-12 * np.abs(v).max()

    u_perp = perp(v - st.ell - st.r * perp(x))
    direct = np.array([
        np.sum(st.field.gamma * (u_perp * phi[i].gradient(x / EPS)).sum(1))
        * (EPS if i == 2 else 1.0) for i in range(3)])
    B = force_B(st, hy)
    assert np.abs(B - direct).max() < 1e-12 * np.abs(direct).max()

    assert hy.clearance == pytest.approx(st.boundary_distance(), rel=1e-14)


def test_disk_orbit_matches_reduced_ode(disk_setup):
    # disk + circulation and nothing else: M ell' = gamma ell^perp exactly,
    # so the center traces a circle of radius M |ell| / gamma
    sp, md = disk_setup
    gamma = 2 * np.pi
    M = EPS**ALPHA * md.m1 + EPS**2 * np.pi
    st = init_coupled(sp, md, alpha=ALPHA, gamma=gamma, ell0=(1.0, 0.0),
                      field=empty_field())

    hydro = HydrodynamicField(sp, st.field)
    accel = accelerations(st, hydro)
    assert np.abs(accel - [0.0, gamma / M, 0.0]).max() < 1e-11
    assert np.abs(st.inertia_matrix @ accel
                  - total_force(st, hydro)).max() < 1e-12

    period = 2 * np.pi * M / gamma
    n = 200
    for _ in range(n // 2):
        st = coupled_step(st, period / n)
    Om = gamma / M
    h_half = (1.0 / Om) * np.array([np.sin(np.pi), 1 - np.cos(np.pi)])
    assert np.abs(st.placement.h - h_half).max() < 1e-6 * (M / gamma)
    for _ in range(n // 2):
        st = coupled_step(st, period / n)
    assert np.abs(st.ell - [1.0, 0.0]).max() < 1e-6
    assert np.abs(st.placement.h).max() < 1e-8
    assert abs(st.r) < 1e-12


def test_disk_spin_is_frozen_even_with_vorticity(disk_setup):
    sp, md = disk_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(0.5, 0.2),
                      r0=0.3,
                      field=patch_field(1.0, 2.0, 0.2))
    for _ in range(25):
        st = coupled_step(st, 0.002)
    assert abs(st.r - 0.3) < 1e-10


def test_energy_conservation_improves_with_dt(ellipse_setup):
    sp, md = ellipse_setup
    st0 = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(1.0, 0.0),
                       r0=0.5,
                       field=patch_field(1.0, 2.0, 0.15))
    E0 = total_energy(st0)
    T, n = 0.1, 50

    st = st0
    for _ in range(n):
        st = coupled_step(st, T / n)
    drift_coarse = abs(total_energy(st) - E0) / abs(E0)
    assert drift_coarse < 1e-7

    # blob strengths and the circulation constant are untouched by stepping
    assert np.array_equal(st.field.gamma, st0.field.gamma)
    assert st.gamma == st0.gamma

    st = st0
    for _ in range(2 * n):
        st = coupled_step(st, T / (2 * n))
    drift_fine = abs(total_energy(st) - E0) / abs(E0)
    assert drift_coarse / drift_fine > 12.0


def lab_frame_view(state):
    """Body center, its lab-frame velocity, and the blobs moved to the
    lab frame."""
    pl = state.placement
    field = replace(state.field, x=pl.to_lab(state.field.x), frame="lab")
    return pl.h.copy(), rotation(pl.theta) @ state.ell, field


def test_frame_change_identities(ellipse_setup):
    # after a few steps the body has genuinely moved; the body-frame blob
    # kernel samples must match the lab-frame ones conjugated by the
    # attitude, and the origin gradient matches a finite-difference probe
    sp, md = ellipse_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(1.0, 0.0),
                      r0=0.5,
                      field=patch_field(1.0, 2.0, 0.2))
    for _ in range(5):
        st = coupled_step(st, 0.002)
    assert abs(st.placement.theta) > 0.0

    h, h_dot, lab_field = lab_frame_view(st)
    R = rotation(st.placement.theta)

    k_body = velocity_free_space(st.field, [0.0, 0.0])[0]
    k_lab = velocity_free_space(lab_field, h)[0]
    assert np.abs(k_body - R.T @ k_lab).max() < 1e-12

    g_body = gradient_matrix(velocity_gradient(st.field, [0.0, 0.0]))
    g_lab = gradient_matrix(velocity_gradient(lab_field, h))
    assert np.abs(g_body - R.T @ g_lab @ R).max() < 1e-12

    h_ = 1e-6
    J = np.zeros((2, 2))
    for k in range(2):
        d = np.zeros(2)
        d[k] = h_
        J[:, k] = (velocity_free_space(lab_field, h + d)[0]
                   - velocity_free_space(lab_field, h - d)[0]) / (2 * h_)
    assert np.abs(g_lab - 0.5 * (J + J.T)).max() < 1e-8

    pl = st.placement
    body_x = (lab_field.x - pl.h) @ rotation(pl.theta)
    assert np.abs(pl.to_lab(body_x) - lab_field.x).max() < 1e-12
    assert np.allclose(h_dot, R @ st.ell, atol=1e-15)


def test_step_guard_rejects_reckless_dt(ellipse_setup):
    sp, md = ellipse_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(1.0, 0.0),
                      r0=0.5,
                      field=patch_field(1.0, 2.0, 0.2))
    with pytest.raises(TimeStepError):
        coupled_step(st, 5.0)
    with pytest.raises(ValueError):
        coupled_step(st, 0.0)


def test_dt_guard_checks_every_stage(ellipse_setup, monkeypatch):
    # a clearance that collapses at stage 2 stops the step, though the
    # stage-1 speed and clearance pass the guard
    sp, md = ellipse_setup
    st = init_coupled(sp, md, alpha=ALPHA, gamma=2 * np.pi, ell0=(1.0, 0.0),
                      r0=0.5,
                      field=patch_field(1.0, 2.0, 0.2))
    coupled_step(st, 0.002)
    builds = []

    class ClosingField(HydrodynamicField):
        def __init__(self, *args):
            super().__init__(*args)
            builds.append(self)
            if len(builds) == 2:
                self.clearance = 1e-9

    monkeypatch.setattr(coupled_system, "HydrodynamicField", ClosingField)
    with pytest.raises(TimeStepError):
        coupled_step(st, 0.002)
    assert len(builds) == 2
