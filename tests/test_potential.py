"""Oracle tests for the exterior potential solves.

Closed forms used as golden values:

* unit disk: Phi_1 = -x1/|x|^2, mass matrix diag(pi, pi, 0, pi/2, pi/2),
  H = x^perp / (2 pi |x|^2), xi = eta = 0;
* ellipse with semiaxes (a, b): m11 = pi b^2, m22 = pi a^2,
  m33 = pi (a^2 - b^2)^2 / 8, xi = 0, eta = (a^2 - b^2)/2 (real);
  all classical potential-flow values.

The volume route in test_volume_quadrature_oracle integrates the squared
gradient over the fluid directly (no Green identity): a thin boundary
collar is evaluated by Taylor continuation of the holomorphic gradient
from its boundary trace, the mid region in normal-offset coordinates,
then a polar annulus and an analytic Laurent tail.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import (empty_field, harmonic_circulation, harmonic_stream,
                      neumann_potential, scaled_shape)
from vortexbody.contour import hat_field
from vortexbody.coupled_system import init_coupled
from vortexbody.geometry import build_mesh, disk, ellipse, perturbed_disk
from vortexbody.lab import CANONICAL_SHAPES
from vortexbody.potential import (
    BoundaryOperators,
    ScaledPotentials,
    build_mass_data,
    build_potential_set,
    field_identity_rows,
    laurent_coefficients,
    moment_closed_forms,
    moment_integrals,
    solve_exterior_neumann,
    spectral_derivative,
)

N = 512


@pytest.fixture(scope="module")
def disk_set():
    return build_potential_set(build_mesh(disk(), N))


@pytest.fixture(scope="module")
def ellipse_set():
    return build_potential_set(build_mesh(ellipse(2.0, 1.0), N))


@pytest.fixture(scope="module")
def bump_set():
    shape = perturbed_disk(cos_amps={2: 0.15}, sin_amps={3: 0.10})
    return build_potential_set(build_mesh(shape, N))


PROBES = np.array([[2.0, 0.0], [1.5, 0.5], [0.0, -3.0], [-1.2, 0.7]])


def test_disk_phi1_closed_form(disk_set):
    r2 = (PROBES ** 2).sum(axis=1)
    vals = neumann_potential(disk_set.phi[0], PROBES)
    assert np.abs(vals - (-PROBES[:, 0] / r2)).max() < 1e-8
    grad = disk_set.phi[0].gradient(PROBES)
    exact = np.stack([-1.0 / r2 + 2.0 * PROBES[:, 0] ** 2 / r2 ** 2,
                      2.0 * PROBES[:, 0] * PROBES[:, 1] / r2 ** 2], axis=-1)
    assert np.abs(grad - exact).max() < 1e-8
    assert disk_set.phi[0].data_residual < 1e-12


def test_disk_phi3_identically_zero(disk_set):
    sol = disk_set.phi[2]
    assert np.abs(sol.density).max() < 1e-12
    assert np.abs(sol.boundary_trace()).max() < 1e-12
    assert np.abs(sol.gradient(PROBES)).max() < 1e-12


def test_disk_mass_matrix(disk_set):
    expected = np.diag([np.pi, np.pi, 0.0, np.pi / 2, np.pi / 2])
    assert np.abs(disk_set.mass - expected).max() < 1e-10
    assert disk_set.mass_defect < 1e-12


@pytest.mark.parametrize("radius", [1e4, 1e40, 1e76])
def test_zero_datum_passes_on_a_large_disk(radius):
    # the disk's rotation datum K_3 is zero up to rounding of size
    # radius * 1e-16, whose flux sum the compatibility floor must absorb
    pset = build_potential_set(build_mesh(disk(radius), 64))
    assert np.abs(pset.phi[2].density).max() <= 1e-12 * radius


def test_disk_harmonic_field(disk_set):
    H = disk_set.H
    assert abs(harmonic_circulation(H) - 1.0) < 1e-10
    r2 = (PROBES ** 2).sum(axis=1)
    exact = np.stack([-PROBES[:, 1], PROBES[:, 0]], axis=-1) / (2 * np.pi * r2[:, None])
    assert np.abs(H.velocity(PROBES) - exact).max() < 1e-12
    # the stream behaves like (1/2pi) ln |x| plus a constant far away
    far = harmonic_stream(H, [[10.0, 0.0], [0.0, 100.0]])
    shifts = far - np.log([10.0, 100.0]) / (2 * np.pi)
    assert abs(shifts[1] - shifts[0]) < 1e-10
    c = laurent_coefficients(H, 3)
    assert abs(c[0] - 1.0 / (2j * np.pi)) < 1e-8
    assert np.abs(c[1:]).max() < 1e-10


def test_disk_conformal_center(disk_set):
    xi, eta = disk_set.xi, disk_set.eta
    assert np.abs(xi).max() < 1e-9
    assert np.abs(eta).max() < 1e-9


def test_ellipse_closed_forms(ellipse_set):
    a, b = 2.0, 1.0
    m = ellipse_set.mass
    assert abs(m[0, 0] - np.pi * b ** 2) < 1e-8
    assert abs(m[1, 1] - np.pi * a ** 2) < 1e-8
    assert abs(m[2, 2] - np.pi * (a * a - b * b) ** 2 / 8) < 1e-8
    xi, eta = ellipse_set.xi, ellipse_set.eta
    assert np.abs(xi).max() < 1e-9
    assert abs(eta[0] - (a * a - b * b) / 2) < 1e-8
    assert abs(eta[1]) < 1e-9


def test_neumann_self_convergence():
    shape = ellipse(2.0, 1.0)
    probes = np.array([[3.0, 0.0], [0.0, -3.0], [2.0, 2.0], [-2.5, 0.8]])
    (coarse,) = solve_exterior_neumann(BoundaryOperators(build_mesh(shape, 128)),
                                       build_mesh(shape, 128).neumann_data(1))
    (fine,) = solve_exterior_neumann(BoundaryOperators(build_mesh(shape, 256)),
                                     build_mesh(shape, 256).neumann_data(1))
    assert np.abs(neumann_potential(coarse, probes)
                  - neumann_potential(fine, probes)).max() < 1e-8


def test_conformal_center_self_convergence():
    shape = perturbed_disk(cos_amps={3: 0.2})
    xi_c = build_potential_set(build_mesh(shape, 256)).xi
    xi_f = build_potential_set(build_mesh(shape, 512)).xi
    assert np.abs(xi_c - xi_f).max() < 1e-7


def test_incompatible_data_rejected(disk_set):
    mesh = disk_set.mesh
    with pytest.raises(ValueError, match="incompatible"):
        solve_exterior_neumann(disk_set.ops, mesh.neumann_data(1) + 0.3)


def test_moment_rows_against_closed_forms(disk_set, ellipse_set, bump_set):
    for pset in (disk_set, ellipse_set, bump_set):
        for i in range(1, 6):
            quad = moment_integrals(pset.phi[i - 1])
            closed = moment_closed_forms(pset, i)
            for w in ("z", "zbar", "abs2", "z2"):
                assert abs(quad[w] - closed[w]) < 1e-8, (i, w)


def test_field_identity_rows(disk_set, ellipse_set, bump_set):
    for pset in (disk_set, ellipse_set, bump_set):
        worst = max(row.error for row in field_identity_rows(pset))
        assert worst < 1e-8


def test_laurent_tail_structure(ellipse_set, bump_set):
    for pset in (ellipse_set, bump_set):
        area = pset.mesh.moments.area
        for i in range(1, 6):
            c = laurent_coefficients(pset.phi[i - 1], 3)
            assert abs(c[0]) < 1e-9  # gradients decay like 1/z^2
        m = pset.mass
        c2 = laurent_coefficients(pset.phi[0], 2)[1]
        expected = (-m[0, 1] + 1j * (m[0, 0] + area)) / (2j * np.pi)
        assert abs(c2 - expected) < 1e-9
        c3 = laurent_coefficients(pset.phi[2], 3)[2]
        mom = pset.mesh.moments
        expected3 = (-2 * (m[2, 4] + mom.m_diff)
                     - 2j * (m[2, 3] + mom.m_cross)) / (2j * np.pi)
        assert abs(c3 - expected3) < 1e-9


def test_laurent_radius_invariance(bump_set):
    sol = bump_set.phi[3]
    rc = bump_set.mesh.circumradius
    c_a = laurent_coefficients(sol, 4, radius=3.0 * rc)
    c_b = laurent_coefficients(sol, 4, radius=5.0 * rc)
    assert np.abs(c_a - c_b).max() < 1e-9
    with pytest.raises(ValueError, match="intersects"):
        laurent_coefficients(sol, 2, radius=0.5 * rc)


def test_scaling_laws(bump_set):
    eps = 0.37
    scaled = ScaledPotentials(bump_set, eps)
    direct = build_potential_set(build_mesh(scaled_shape(bump_set.mesh.shape, eps), N))
    assert np.abs(scaled.mass - direct.mass).max() < 1e-10
    pts = np.array([[0.9, 0.4], [-1.3, 0.2], [0.1, 1.1]])
    for i in range(1, 6):
        grad = ((eps if i >= 3 else 1.0)
                * bump_set.phi[i - 1].gradient(pts / eps))
        assert np.abs(grad - direct.phi[i - 1].gradient(pts)).max() < 1e-10
    assert np.abs(bump_set.H.velocity(pts / eps) / eps
                  - direct.H.velocity(pts)).max() < 1e-10
    assert np.abs(harmonic_stream(bump_set.H, pts / eps)
                  - harmonic_stream(direct.H, pts)).max() < 1e-10
    assert np.abs(scaled.h_trace
                  - direct.H.boundary_trace()).max() < 1e-10
    # the cached traces, indexed from 0 like base.phi, and read-only
    for i, factor in enumerate((1.0, 1.0, eps, eps, eps)):
        assert np.array_equal(scaled.phi_traces[i],
                              factor * bump_set.phi[i].boundary_trace())
    assert len(scaled.phi_traces) == 5
    assert np.array_equal(scaled.h_trace, bump_set.H.boundary_trace() / eps)
    for trace in (*scaled.phi_traces, scaled.h_trace):
        with pytest.raises(ValueError, match="read-only"):
            trace[0, 0] = 0.0
    assert np.abs(direct.xi - eps * bump_set.xi).max() < 1e-10
    assert np.abs(direct.eta - eps ** 2 * bump_set.eta).max() < 1e-10
    assert abs(scaled.area - direct.mesh.moments.area) < 1e-12
    assert np.abs(scaled.centroid - direct.mesh.moments.centroid).max() < 1e-12
    assert abs(scaled.m_diff - direct.mesh.moments.m_diff) < 1e-12
    assert abs(scaled.m_cross - direct.mesh.moments.m_cross) < 1e-12


def test_mass_data_bundle(disk_set, ellipse_set):
    md = build_mass_data(ellipse_set, m1=2.0, J1=0.5)
    m = md.mass
    assert np.allclose(md.mu, [m[0, 2], m[1, 2], 0.0])
    # total inertia of a state on the same set: eps^alpha I M_g I
    # + eps^2 I M_a I to the bit, symmetric positive definite at a sample
    # regime point
    eps, alpha = 0.1, 2.0
    st = init_coupled(ScaledPotentials(ellipse_set, eps), m1=md.m1,
                      J1=md.J1, alpha=alpha, gamma=1.0, field=empty_field())
    M = st.inertia_matrix
    I = np.diag([1.0, 1.0, eps])
    np.testing.assert_array_equal(
        M, eps ** alpha * I @ np.diag([md.m1, md.m1, md.J1]) @ I
        + eps ** 2 * I @ ellipse_set.mass[:3, :3] @ I)
    assert np.abs(M - M.T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > 0
    # added-mass spectrum: psd always, rank-deficient exactly for the disk
    ev_e = np.linalg.eigvalsh(md.added_3x3)
    assert ev_e.min() > 1e-6
    ev_d = np.linalg.eigvalsh(build_mass_data(disk_set).added_3x3)
    assert ev_d.min() > -1e-12
    assert np.sort(np.abs(ev_d))[0] < 1e-10


def _volume_gram_diag(pset, i, collar=0.08, jet_order=12,
                      n_collar=10, n_bulk=28, n_ring=20, n_ang=512):
    mesh = pset.mesh
    n = mesh.n
    rc = mesh.circumradius
    r_mid, r_out = 2.5 * rc, 6.0 * rc
    w_hat = hat_field(pset.phi[i - 1].boundary_trace()).astype(complex)
    zdot = mesh.speed * (mesh.tau[:, 0] + 1j * mesh.tau[:, 1])

    def dds(f):
        fk = np.fft.fft(f)
        k = np.fft.fftfreq(n, 1.0 / n)
        fk *= 1j * k
        if n % 2 == 0:
            fk[n // 2] = 0.0
        return np.fft.ifft(fk)

    # low-pass the trace so repeated differentiation stays below the
    # rounding floor, then build the Taylor jets along the boundary
    fk = np.fft.fft(w_hat)
    fk[np.abs(np.fft.fftfreq(n, 1.0 / n)) > n // 6] = 0.0
    jets = [np.fft.ifft(fk)]
    for _ in range(jet_order):
        jets.append(dds(jets[-1]) / zdot)

    n_c = mesh.normal[:, 0] + 1j * mesh.normal[:, 1]
    n_s = np.column_stack([spectral_derivative(mesh.normal[:, 0]),
                           spectral_derivative(mesh.normal[:, 1])])
    cross = n_s[:, 0] * mesh.normal[:, 1] - n_s[:, 1] * mesh.normal[:, 0]

    def jac(d):
        return np.abs(-mesh.speed + d * cross)

    h = 2 * np.pi / n
    total = 0.0
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, jet_order + 1)]))
    xg, wg = leggauss(n_collar)
    for q, wq in zip(0.5 * collar * (xg + 1.0), 0.5 * collar * wg):
        dz = -q * n_c
        W = np.zeros(n, complex)
        for k in range(jet_order + 1):
            W += jets[k] * dz ** k / fact[k]
        total += np.sum(np.abs(W) ** 2 * jac(q)) * h * wq

    # normal-offset bulk out to the circle |x| = r_mid
    xn = (mesh.x * mesh.normal).sum(axis=1)
    D = xn + np.sqrt(xn ** 2 + r_mid ** 2 - (mesh.x ** 2).sum(axis=1))
    xg2, wg2 = leggauss(n_bulk)
    for q, wq in zip(xg2, wg2):
        d = collar + 0.5 * (D - collar) * (q + 1.0)
        g = pset.phi[i - 1].gradient(mesh.x - d[:, None] * mesh.normal)
        total += np.sum((g ** 2).sum(axis=1) * jac(d) * 0.5 * (D - collar) * wq) * h

    th = np.arange(n_ang) * 2 * np.pi / n_ang
    ring = np.column_stack([np.cos(th), np.sin(th)])
    xg3, wg3 = leggauss(n_ring)
    for r_, w_ in zip(0.5 * (r_out - r_mid) * xg3 + 0.5 * (r_out + r_mid),
                      0.5 * (r_out - r_mid) * wg3):
        g = pset.phi[i - 1].gradient(r_ * ring)
        total += np.sum((g ** 2).sum(axis=1)) * r_ * w_ * (2 * np.pi / n_ang)

    c = laurent_coefficients(pset.phi[i - 1], 8, radius=0.9 * r_out)
    tail = sum(2 * np.pi * abs(c[k - 1]) ** 2 / ((2 * k - 2) * r_out ** (2 * k - 2))
               for k in range(2, 9))
    return total + tail


def test_volume_quadrature_oracle(disk_set, ellipse_set):
    assert abs(_volume_gram_diag(disk_set, 1) - np.pi) < 1e-6
    for i in (1, 2):
        vol = _volume_gram_diag(ellipse_set, i)
        assert abs(vol - ellipse_set.mass[i - 1, i - 1]) < 1e-4


def test_boundary_operator_shared(disk_set):
    # one factored operator serves many right-hand sides
    ops = BoundaryOperators(disk_set.mesh)
    g = disk_set.mesh.neumann_data(4)
    (sol,) = solve_exterior_neumann(ops, g)
    th = disk_set.mesh.s
    # disk: data cos(2 theta) lifts to cos(2 theta)/(2 r^2)
    assert np.abs(sol.boundary_values - 0.5 * np.cos(2 * th)).max() < 1e-10


def backward_error(M, x, b):
    """||M x - b|| / (||M|| ||x||) in the max norm."""
    return np.abs(M @ x - b).max() / (np.abs(M).sum(axis=1).max()
                                      * np.abs(x).max())


@pytest.mark.parametrize("panels", [128, 256, 512])
@pytest.mark.parametrize("shape", [shape for _, shape in CANONICAL_SHAPES],
                         ids=[label for label, _ in CANONICAL_SHAPES])
def test_run_solves_are_backward_stable(shape, panels):
    # the run-side solves apply an inverse and one refinement step; their
    # backward error stays within twice the LU solve's (floored at the
    # unit roundoff), which the bare inverse product misses by up to 3.5x
    mesh = build_mesh(shape, panels)
    ops = BoundaryOperators(mesh)
    rng = np.random.default_rng(panels)
    floor = np.finfo(float).eps
    data = [mesh.neumann_data(i) for i in range(1, 6)] + [rng.normal(size=panels)]
    for g in data:
        g = g - (g @ mesh.w) / mesh.w.sum()
        lu = backward_error(ops.A, np.linalg.solve(ops.A, g), g)
        assert backward_error(ops.A, ops.neumann_density(g), g) <= 2.0 * max(lu, floor)
    pole_log = np.log(((mesh.x - mesh.interior_point) ** 2).sum(axis=1))
    for f in (pole_log, rng.normal(size=panels)):
        b = np.append(f, 0.0)
        lu = backward_error(ops.B, np.linalg.solve(ops.B, b), b)
        x = np.append(*ops.dirichlet_density(f))
        assert backward_error(ops.B, x, b) <= 2.0 * max(lu, floor)


@pytest.mark.parametrize("shape", [shape for _, shape in CANONICAL_SHAPES],
                         ids=[label for label, _ in CANONICAL_SHAPES])
def test_batched_build_solve_matches_column_solves(shape):
    mesh = build_mesh(shape, 512)
    ops = BoundaryOperators(mesh)
    data = np.stack([mesh.neumann_data(i) for i in range(1, 6)])
    for sol, g in zip(solve_exterior_neumann(ops, data), data):
        single = np.linalg.solve(ops.A, g)
        assert np.abs(sol.density - single).max() <= 1e-13 * np.abs(single).max()


def test_batched_build_checks_each_datum(disk_set):
    # each row is held to its own size: a small datum's flux is not
    # measured against a larger one's scale
    mesh = disk_set.mesh
    small = 1e-6 * (mesh.neumann_data(1) + 0.3)
    with pytest.raises(ValueError, match="incompatible"):
        solve_exterior_neumann(disk_set.ops, [mesh.neumann_data(4) * 1e6, small])


def modular_offsets(n):
    """(i - j) mod n for every entry (i, j) of an (n, n) array."""
    return (np.arange(n)[:, None] - np.arange(n)[None, :]) % n


def reference_single_layer(mesh, sin2):
    """V as a plain whole-array expression, given the (n, n) split factor
    4 sin^2((s_i - s_j)/2), with the log rule gathered by a modular index."""
    n, x, speed = mesh.n, mesh.x, mesh.speed
    h = 2 * np.pi / n
    r2 = (x[:, None, 0] - x[None, :, 0]) ** 2 + (x[:, None, 1] - x[None, :, 1]) ** 2
    lam = np.zeros(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    lam[k != 0] = -2 * np.pi / np.abs(k[k != 0])
    col = np.fft.ifft(lam).real
    log_rule = col[modular_offsets(n)]
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = np.log(r2 / sin2)
    np.fill_diagonal(smooth, 2.0 * np.log(speed))
    return (log_rule + h * smooth) / (2.0 * (2 * np.pi)) * speed[None, :]


def reference_operators(mesh):
    """A and V of ``BoundaryOperators`` as plain whole-array expressions;
    both log-split terms of V are gathered from their first columns by a
    modular index."""
    n, x, nv, speed = mesh.n, mesh.x, mesh.normal, mesh.speed
    h = 2 * np.pi / n
    d1 = x[:, None, 0] - x[None, :, 0]
    d2 = x[:, None, 1] - x[None, :, 1]
    r2 = d1 ** 2 + d2 ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = (nv[:, None, 0] * d1 + nv[:, None, 1] * d2) / r2
    np.fill_diagonal(kern, -(nv * mesh.xpp).sum(axis=1) / (2.0 * speed ** 2))
    A = -0.5 * np.eye(n) + (h / (2 * np.pi)) * kern * speed[None, :]

    sin2 = (4.0 * np.sin(0.5 * mesh.s) ** 2)[modular_offsets(n)]
    return A, reference_single_layer(mesh, sin2)


def pairwise_sine_single_layer(mesh):
    """V with the split factor evaluated on every pair of grid parameters,
    4 sin^2((s_i - s_j)/2): the direct form of the factor that
    ``BoundaryOperators`` takes from one column."""
    ds = mesh.s[:, None] - mesh.s[None, :]
    return reference_single_layer(mesh, 4.0 * np.sin(0.5 * ds) ** 2)


@pytest.mark.parametrize("panels", [64, 512])
@pytest.mark.parametrize("shape", [disk(), ellipse(2.0, 1.0),
                                   perturbed_disk({2: 0.20, 3: 0.18},
                                                  {2: 0.12, 3: 0.07})],
                         ids=["disk", "ellipse", "perturbed-disk"])
def test_operators_built_in_place_match_reference(shape, panels):
    mesh = build_mesh(shape, panels)
    ops = BoundaryOperators(mesh)
    A, V = reference_operators(mesh)
    assert np.array_equal(ops.A, A)
    assert np.array_equal(ops.V, V)


@pytest.mark.parametrize("panels", [64, 512])
@pytest.mark.parametrize("shape", [shape for _, shape in CANONICAL_SHAPES],
                         ids=[label for label, _ in CANONICAL_SHAPES])
def test_single_layer_matches_pairwise_sine_factor(shape, panels):
    """The column-built split factor differs from the pairwise one only in
    the sine's argument, (i - j)h instead of the rounded s_i - s_j; V and the
    added-mass matrix it yields move by roundoff only."""
    mesh = build_mesh(shape, panels)
    pset = build_potential_set(mesh)
    V = pairwise_sine_single_layer(mesh)
    assert np.abs(pset.ops.V - V).max() <= 1e-13 * np.abs(V).max()

    raw = np.array([[np.sum((V @ phi.density) * mesh.neumann_data(j + 1) * mesh.w)
                     for j in range(5)] for phi in pset.phi])
    mass = 0.5 * (raw + raw.T)
    assert np.abs(pset.mass - mass).max() <= 1e-14 * np.abs(mass).max()
