"""Modulated variables and the normal form of the body equation: strain
extraction against kernel differences, tensor algebra (orthogonality,
batching, disk degeneracies), the frozen-state expansion sweep, and
the residual/identity diagnostics on short reference trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FROZEN_ELL, FROZEN_GAMMA, FROZEN_R, empty_field, every,
                      rotated_mass_identity_check, run_columns, sampled_row,
                      sampled_run)
from vortexbody.biotsavart import (BlobField, HydrodynamicField,
                                   velocity_free_space, velocity_gradient)
from vortexbody.coupled_system import (
    force_B,
    force_C,
    init_coupled,
)
from vortexbody.geometry import build_mesh, disk, perp
from vortexbody.normal_form import (
    apply_lambda,
    boundary_approximation_defect,
    cross_product,
    expansion_B,
    expansion_C,
    gyro_axis,
    modulation,
    modulation_rate_monitor,
    normal_form_residual,
    _strain,
    _weak_gyro,
)
from vortexbody.potential import ScaledPotentials, build_mass_data, build_potential_set


def weakly_gyroscopic_G(mod, mass) -> np.ndarray:
    """Weakly gyroscopic vector (0, 0, xi . strain(xi) + a eta_1 - b eta_2)."""
    return _weak_gyro(mod["a"], mod["b"], mass)


@pytest.fixture(scope="module")
def disk_setup():
    pset = build_potential_set(build_mesh(disk(), 256))
    return ScaledPotentials(pset, 0.1), build_mass_data(pset)


@pytest.fixture(scope="module")
def asym_state(asym_setup, random_blobs):
    pset, _ = asym_setup
    sp = ScaledPotentials(pset, 0.1)
    return init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                        ell0=FROZEN_ELL, r0=FROZEN_R, field=random_blobs)


# --------------------------------------------------------------------------
# modulation data


def test_trivial_modulation(asym_setup):
    pset, _ = asym_setup
    sp = ScaledPotentials(pset, 0.1)
    st = init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                      ell0=(0.3, -0.2), r0=0.7, field=empty_field())
    mod = modulation(st)
    assert velocity_gradient(st.field, np.zeros(2))[2]   # clean
    assert mod["a"] == 0.0 and mod["b"] == 0.0
    assert np.all(mod["drift"] == 0.0)
    assert np.array_equal(mod["p_modulated"][:2], st.ell)
    assert np.array_equal(mod["p_modulated"], np.array([0.3, -0.2, 0.1 * 0.7]))


def test_symmetric_ring_modulation(asym_setup):
    # an 8-fold ring has no flow and no strain at its center
    pset, _ = asym_setup
    ang = np.arange(8) * np.pi / 4
    ring = BlobField(x=1.5 * np.column_stack([np.cos(ang), np.sin(ang)]),
                     gamma=np.full(8, 0.3), delta=0.05)
    st = init_coupled(ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0, alpha=2.0,
                      gamma=FROZEN_GAMMA, field=ring)
    mod = modulation(st)
    assert np.abs(mod["drift"]).max() < 1e-14
    assert abs(mod["a"]) < 1e-14 and abs(mod["b"]) < 1e-14


def test_modulated_momentum_bookkeeping(asym_state):
    st = asym_state
    mod = modulation(st)
    eps = st.eps
    want = (st.ell - mod["drift"]
            - eps * _strain(mod["a"], mod["b"], st.scaled.base.xi))
    p = mod["p_modulated"]
    np.testing.assert_allclose(p[:2], want, rtol=0, atol=1e-15)
    assert np.array_equal(p, np.array([*p[:2], eps * st.r]))


def gradient_matrix(mod):
    return np.array([[-mod["a"], mod["b"]], [mod["b"], mod["a"]]])


def test_gradient_matrix_matches_kernel_jacobian(asym_state):
    # independent route: difference the free-space kernel at the origin
    mod = modulation(asym_state)
    G = gradient_matrix(mod)
    assert G[0, 0] == -G[1, 1] and G[0, 1] == G[1, 0]  # traceless symmetric
    h = 1e-5
    field = asym_state.field
    fd = np.empty((2, 2))
    for j, e in enumerate(np.eye(2)):
        du = (velocity_free_space(field, h * e)
              - velocity_free_space(field, -h * e))[0] / (2 * h)
        fd[:, j] = du
    sym = 0.5 * (fd + fd.T)
    sym -= 0.5 * np.trace(sym) * np.eye(2)
    np.testing.assert_allclose(G, sym, atol=1e-8)


def test_strain_is_the_gradient_matrix_action(asym_state):
    mod = modulation(asym_state)
    v = np.array([0.7, -0.4])
    np.testing.assert_allclose(_strain(mod["a"], mod["b"], v),
                               gradient_matrix(mod) @ v, rtol=0, atol=1e-16)
    batch = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 2.0]])
    np.testing.assert_allclose(_strain(mod["a"], mod["b"], batch),
                               batch @ gradient_matrix(mod).T,
                               rtol=0, atol=1e-16)


# --------------------------------------------------------------------------
# tensor algebra


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_cross_product_matches_numpy(vals):
    pa, pb = np.array(vals[:3]), np.array(vals[3:])
    np.testing.assert_allclose(cross_product(pa, pb), np.cross(pa, pb),
                               rtol=0, atol=1e-12)


def test_gyro_axis_is_perp_conformal_center(asym_setup, disk_setup):
    _, md = asym_setup
    np.testing.assert_allclose(gyro_axis(md), [*perp(md.xi), -1.0],
                               rtol=0, atol=0)
    _, md_disk = disk_setup
    np.testing.assert_allclose(gyro_axis(md_disk), [0.0, 0.0, -1.0],
                               atol=1e-12)


def test_lambda_orthogonality(asym_setup):
    # the quadratic terms do no work: exact up to roundoff on 10^4 draws
    _, md = asym_setup
    rng = np.random.default_rng(7)
    P = rng.normal(size=(10_000, 3))
    for which in ("g", "under", "a"):
        work = (apply_lambda(md, which, P) * P).sum(1)
        assert np.abs(work).max() < 1e-12, which


def test_lambda_batched_matches_rows(asym_setup):
    # a (k, 3) stack gives the per-row results stacked
    _, md = asym_setup
    rng = np.random.default_rng(5)
    P, Q = rng.normal(size=(2, 64, 3))
    for which in ("g", "under", "a"):
        rows = np.array([apply_lambda(md, which, row) for row in P])
        batched = apply_lambda(md, which, P)
        assert batched.shape == P.shape
        scale = np.linalg.norm(rows, axis=1).max()
        np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-14 * scale)
        assert apply_lambda(md, which, P[0]).shape == (3,)
    for qb in (Q, Q[0]):  # a stack, and one triple broadcast over the rows
        rows = np.array([np.cross(pa, qa)
                         for pa, qa in zip(P, np.broadcast_to(qb, P.shape))])
        scale = np.linalg.norm(rows, axis=1).max()
        np.testing.assert_allclose(cross_product(P, qb), rows, rtol=0,
                                   atol=1e-14 * scale)
    with pytest.raises(ValueError):
        apply_lambda(md, "nope", P)


def test_disk_degeneracies(disk_setup):
    # no conformal center, no mass coupling: the added tensor collapses
    _, md = disk_setup
    assert np.abs(md.mu).max() < 1e-12
    rng = np.random.default_rng(3)
    for p in rng.normal(size=(4, 3)):
        gap = apply_lambda(md, "a", p) - apply_lambda(md, "under", p)
        assert np.abs(gap).max() < 1e-14
        np.testing.assert_allclose(cross_product(p, gyro_axis(md)),
                                   [*perp(p[:2]), 0.0], atol=1e-12)


def test_weakly_gyroscopic_G_disk_vanishes(disk_setup):
    sp, md = disk_setup
    st = init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                      ell0=(0.5, 0.1), r0=0.4, field=empty_field())
    G = weakly_gyroscopic_G(modulation(st), md)
    assert np.abs(G).max() < 1e-15


def test_weakly_gyroscopic_G_lives_on_the_spin_axis(asym_state):
    G = weakly_gyroscopic_G(modulation(asym_state),
                            build_mass_data(asym_state.scaled.base))
    assert G[0] == 0.0 and G[1] == 0.0
    assert G[2] != 0.0


def test_structure_tensor_bundle(asym_setup):
    # the constant ingredients of the modulated equation, read off MassData
    pset, md = asym_setup
    eps, alpha = 0.1, 2.0
    Mg, Ma = md.genuine, md.added_3x3
    np.testing.assert_array_equal(Ma, pset.mass[:3, :3])
    np.testing.assert_array_equal(md.added_2x2, pset.mass[:2, :2])
    np.testing.assert_array_equal(Mg, np.diag([md.m1, md.m1, md.J1]))
    # a state on the same set holds the total mass I M_g I + I M_a I,
    # scaled and in this operation order, to the bit
    st = init_coupled(ScaledPotentials(pset, eps), m1=md.m1, J1=md.J1,
                      alpha=alpha, gamma=FROZEN_GAMMA, field=empty_field())
    I = np.diag([1.0, 1.0, eps])
    M = st.inertia_matrix
    np.testing.assert_array_equal(
        M, eps ** alpha * I @ Mg @ I + eps ** 2 * I @ Ma @ I)
    # acting on modulated momenta, which carry the spin as eps r, the
    # inertia is the total mass without its diagonal spin scaling
    I_inv = np.diag([1.0, 1.0, 1.0 / eps])
    np.testing.assert_allclose(I_inv @ M @ I_inv,
                               eps ** alpha * Mg + eps ** 2 * Ma,
                               rtol=1e-14, atol=0)
    p = np.array([0.4, -1.2, 0.7])
    np.testing.assert_allclose(
        apply_lambda(md, "a", p),
        apply_lambda(md, "under", p) + p[2] * cross_product(p, md.mu),
        rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# expansions at the frozen state


def test_expansion_sweep_slopes(frozen_sweep):
    slopes = frozen_sweep["slopes"]
    for key in ("B12", "Ca12", "Cb12"):
        assert 1.6 <= slopes[key] <= 2.4, (key, slopes[key])
    for key in ("B3", "Ca3", "Cb3"):
        assert 2.6 <= slopes[key] <= 3.4, (key, slopes[key])
    assert 2.1 <= slopes["defect"] <= 2.9, slopes["defect"]
    assert frozen_sweep["cc_max"] < 1e-8


def test_expansion_error_regression(frozen_sweep):
    # frozen magnitudes at eps = 0.1; a single mistranscribed term moves
    # these by orders of magnitude
    want = {
        "B12": 1.2565611519e-03, "B3": 4.5952639226e-06,
        "Ca12": 2.1129130343e-04, "Ca3": 7.8957364726e-06,
        "Cb12": 9.6239670487e-05, "Cb3": 3.8609287348e-06,
        "defect": 3.6982398130e-04,
    }
    for key, value in want.items():
        got = frozen_sweep["errors"][key][1]
        assert abs(got - value) < 1e-6 * value, (key, got)


def test_empty_field_expansions(asym_setup):
    pset, _ = asym_setup
    sp = ScaledPotentials(pset, 0.1)

    # no vorticity: the source integral and its expansion both vanish
    st = init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                      ell0=FROZEN_ELL, r0=FROZEN_R, field=empty_field())
    mod = modulation(st)
    hydro = HydrodynamicField(sp, st.field)
    assert np.abs(force_B(st, hydro)).max() == 0.0
    assert np.abs(expansion_B(st, mod)).max() == 0.0

    # circulation term: for potential flow the retained terms are exact
    _, C_b, _ = force_C(st, hydro)
    _, eCb = expansion_C(st, mod)
    assert np.abs(C_b - eCb).max() < 1e-12

    # and with the body at rest every term carries a zero factor
    rest = init_coupled(sp, m1=1.0, J1=1.0, alpha=2.0, gamma=FROZEN_GAMMA,
                        field=empty_field())
    _, eCb0 = expansion_C(rest, modulation(rest))
    assert np.abs(eCb0).max() == 0.0


# --------------------------------------------------------------------------
# trajectory diagnostics


def _short_run(pset, blobs, eps, dt, steps):
    return sampled_run(pset, blobs, eps=eps, dt=dt, steps=steps,
                       r0=0.3 / eps)


def _resting(asym_setup, samples):
    """A body at rest with no vorticity, sampled ``samples`` times."""
    pset, _ = asym_setup
    st = init_coupled(ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0, alpha=2.0,
                      gamma=0.0, field=empty_field())
    return run_columns([sampled_row(st)] * samples, st)


@pytest.fixture(scope="module")
def reference_run(asym_setup, random_blobs):
    pset, _ = asym_setup
    return _short_run(pset, random_blobs, eps=0.1, dt=1e-3, steps=48)


def residual(run, dt):
    return normal_form_residual(run, run.mass, run.alpha, dt)


def test_trivial_residual_is_zero(asym_setup):
    series = residual(_resting(asym_setup, 6), 0.01)
    assert series.fitted_constant == 0.0
    assert np.all(series.implied == 0.0)
    assert series.dt_converged is True


def test_residual_input_validation(asym_setup):
    with pytest.raises(ValueError):
        residual(_resting(asym_setup, 2), 0.01)


def test_residual_dt_stability_on_reference_run(reference_run):
    series = residual(reference_run, 1e-3)
    assert series.dt_converged is True
    coarse = residual(every(reference_run, 2), 2e-3)
    dev = abs(coarse.fitted_constant / series.fitted_constant - 1.0)
    assert dev < 0.10
    assert series.implied.shape == (47, 3)


def test_residual_flags_coarse_cadence(asym_setup, random_blobs):
    # at eps = 0.05 a 5e-4 cadence under-resolves the gyro oscillation
    pset, _ = asym_setup
    record = _short_run(pset, random_blobs, eps=0.05, dt=5e-4, steps=24)
    series = residual(record, 5e-4)
    assert series.dt_converged is False


def test_rotated_mass_identity_rate(reference_run):
    # Richardson on nested cadences: the discrepancy must fall like dt^2
    d1 = rotated_mass_identity_check(reference_run, 1e-3)
    d2 = rotated_mass_identity_check(every(reference_run, 2), 2e-3)
    d4 = rotated_mass_identity_check(every(reference_run, 4), 4e-3)
    assert 3.0 < d4 / d2 < 5.0
    assert 3.0 < d2 / d1 < 5.0


def test_rotated_mass_identity_trivial(asym_setup):
    assert rotated_mass_identity_check(_resting(asym_setup, 5), 0.01) == 0.0


def weak_gyro_calibration(series, dt: float) -> float:
    """Fitted constant of the weak-gyroscopic bound: the running integral
    of p . G against eps (1 + t + integral of |p|^2), maximized in time."""
    eps = series.eps
    xi, eta = series.mass.xi, series.mass.eta
    p = series.p_modulated
    # G = (0, 0, xi . strain(xi) + a eta_1 - b eta_2), strain [[-a, b], [b, a]]
    a, b = series.a, series.b
    third = (-a * xi[0] ** 2 + 2 * b * xi[0] * xi[1] + a * xi[1] ** 2
             + a * eta[0] - b * eta[1])
    dots = p[:, 2] * third
    sizes2 = (p ** 2).sum(1)
    num = 0.0
    size_int = 0.0
    best = 0.0
    for k in range(1, len(series.t)):
        num += 0.5 * dt * (dots[k - 1] + dots[k])
        size_int += 0.5 * dt * (sizes2[k - 1] + sizes2[k])
        elapsed = series.t[k] - series.t[0]
        best = max(best, abs(num) / (eps * (1.0 + elapsed + size_int)))
    return best


def test_weak_gyro_calibration_stable(asym_setup, random_blobs):
    pset, _ = asym_setup
    c1 = weak_gyro_calibration(
        _short_run(pset, random_blobs, 0.1, 2e-3, 24), 2e-3)
    c2 = weak_gyro_calibration(
        _short_run(pset, random_blobs, 0.1, 1e-3, 48), 1e-3)
    assert c1 > 0
    assert abs(c1 / c2 - 1.0) < 0.10


def test_modulation_rate_monitor_bounded(reference_run):
    rates, fitted = modulation_rate_monitor(reference_run, reference_run.mass,
                                            1e-3)
    assert rates.shape == (47, 2)
    assert np.all(np.isfinite(rates))
    assert fitted < 0.5


def test_defect_is_an_l2_norm(asym_state):
    assert boundary_approximation_defect(asym_state,
                                         modulation(asym_state)) > 0
