"""Blob kernel and exterior correction, checked against closed-form
flows: single vortices, Rankine patches, the circle-theorem image system
and corotating pairs."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import exp1

from conftest import gradient_matrix, patch_field
from vortexbody import biotsavart
from vortexbody.biotsavart import (
    PAIR_ROWS,
    BlobField,
    BodyCollisionError,
    HydrodynamicField,
    StageScratch,
    pair_energy,
    pair_stream_matrix,
    velocity_free_space,
    velocity_gradient,
)
from vortexbody.geometry import (TWO_PI, build_mesh, disk, ellipse,
                                 outer_difference, perp, polygon_contains,
                                 rotation, squared_distances)
from vortexbody.lab import CANONICAL_SHAPES
from vortexbody.limit_system import VortexWaveState, vw_step
from vortexbody.potential import ScaledPotentials, build_potential_set, log_gradient_sum

EPS = 0.3


@pytest.fixture(scope="module")
def disk_scaled():
    mesh = build_mesh(disk(), 256)
    return ScaledPotentials(build_potential_set(mesh), EPS)


def test_single_blob_far_field():
    f = BlobField(x=[[0.0, 0.0]], gamma=[3.0], delta=0.01)
    u = velocity_free_space(f, [[2.0, 0.0]])[0]
    assert np.allclose(u, [0.0, 3.0 / (4.0 * np.pi)], atol=1e-14)


def test_rankine_patch():
    # lattice fill of a disk of radius a with uniform vorticity
    a, s, omega = 0.5, 0.01, 2.0
    g = np.arange(-a, a + s, s)
    X, Y = np.meshgrid(g, g)
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    pts = pts[(pts**2).sum(1) <= a**2]
    patch = BlobField(x=pts, gamma=np.full(len(pts), s * s * omega), delta=2 * s)

    u = velocity_free_space(patch, [[2 * a, 0.0]])[0]
    expect = patch.beta / (4.0 * np.pi * a)
    assert abs(np.hypot(*u) - expect) < 1e-3 * expect

    ui = velocity_free_space(patch, [[0.1, 0.05]])[0]
    assert np.allclose(ui, 0.5 * omega * perp([0.1, 0.05]), rtol=1e-2)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    fld = BlobField(x=rng.normal(size=(12, 2)) + 3.0,
                    gamma=rng.normal(size=12), delta=0.05)
    p0 = np.array([0.3, -0.2])
    gs = velocity_gradient(fld, p0)
    _, _, clean = gs
    assert clean

    h = 1e-6
    J = np.zeros((2, 2))
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        J[:, k] = (velocity_free_space(fld, [p0 + dp])[0]
                   - velocity_free_space(fld, [p0 - dp])[0]) / (2 * h)
    assert np.abs(gradient_matrix(gs) - 0.5 * (J + J.T)).max() < 1e-9
    assert np.trace(gradient_matrix(gs)) == 0.0


def test_gradient_matches_point_vortex_integrals():
    # far from all cores the scalars reduce to the singular-kernel moments
    # -(1/2pi) sum G sin(2 theta)/rho and -(1/2pi) sum G cos(2 theta)/rho
    rng = np.random.default_rng(11)
    fld = BlobField(x=rng.normal(size=(9, 2)) + 4.0,
                    gamma=rng.normal(size=9), delta=0.03)
    p0 = np.array([-0.4, 0.6])
    a, b, _ = velocity_gradient(fld, p0)
    d = fld.x - p0
    th = np.arctan2(d[:, 1], d[:, 0])
    r2 = (d**2).sum(1)
    a_ref = -np.sum(fld.gamma * np.sin(2 * th) / r2) / (2 * np.pi)
    b_ref = -np.sum(fld.gamma * np.cos(2 * th) / r2) / (2 * np.pi)
    assert abs(a - a_ref) < 1e-13
    assert abs(b - b_ref) < 1e-13


def test_gradient_core_center_is_finite():
    f = BlobField(x=[[1e-9, 0.0], [0.0, 1e-9]], gamma=[1.0, -0.5], delta=0.1)
    a, b, clean = velocity_gradient(f, [0.0, 0.0])
    assert not clean
    assert np.isfinite([a, b]).all()
    assert abs(a) < 1e-10 and abs(b) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
@example(40.0, -25.0, 0.7)   # far from the origin: p (G Gamma) - G (Gamma y) cancels
def test_kernel_equivariance(cx, cy, angle):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    g = rng.normal(size=5)
    f = BlobField(x=x, gamma=g, delta=0.2)
    p = np.array([[1.7, -0.3]])
    u = velocity_free_space(f, p)

    shift = np.array([cx, cy])
    u_shift = velocity_free_space(f.with_positions(f.x + shift), p + shift)
    assert np.allclose(u_shift, u, atol=1e-12)

    R = rotation(angle)
    u_rot = velocity_free_space(f.with_positions(x @ R.T), p @ R.T)
    assert np.allclose(u_rot, u @ R.T, atol=1e-12)


@pytest.mark.parametrize("kernel", [
    lambda f: velocity_free_space(f, f.x),
    pair_stream_matrix,
], ids=["velocity_free_space", "pair_stream_matrix"])
def test_blob_blob_kernels_hold_few_pair_arrays(kernel):
    # the blob-blob kernels build their (n, n) arrays in place, so the
    # peak stays within four such arrays (1092 blobs: 9.5 MB each)
    f = patch_field(1.0, 1.8, 0.08)
    kernel(f)   # warm up lazily imported code paths
    tracemalloc.start()
    try:
        kernel(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * f.n ** 2 * 8, peak / (f.n ** 2 * 8)


def one_product(f, pts):
    """The blob sum at pts from one unblocked product of the full G."""
    d = pts[:, None, :] - f.x[None, :, :]
    rho = (d ** 2).sum(axis=-1)
    g = np.zeros_like(rho)
    apart = rho > 0
    g[apart] = -np.expm1(-rho[apart] / f.delta ** 2) / rho[apart]
    moments = g @ (f.gamma[:, None] * np.column_stack([np.ones(f.n), f.x]))
    return perp(pts * moments[:, :1] - moments[:, 1:]) / (2 * np.pi)


@pytest.mark.parametrize("m", [1, 64, 65, 200])
def test_velocity_free_space_blocks_match_one_product(m):
    # the row-blocked sum against one unblocked product of the full G
    rng = np.random.default_rng(m)
    f = BlobField(x=rng.uniform(-1, 1, (150, 2)),
                  gamma=rng.normal(size=150), delta=0.1)
    pts = np.vstack([f.x[:min(m, 20)], rng.uniform(-1.5, 1.5, (m, 2))])[:m]
    want = one_product(f, pts)
    got = velocity_free_space(f, pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blob_blob_form_matches_one_product(n):
    # the upper-triangle blob-blob sum against one unblocked product of
    # the full G, with coincident first and last blobs and a pair on each
    # side of the 40 delta^2 reciprocal cut
    rng = np.random.default_rng(n)
    delta = 0.1
    x = rng.uniform(-1, 1, (n, 2))
    if n > 1:
        x[-1] = x[0]
    if n > 4:
        x[1] = x[2] + [np.sqrt(40 * delta ** 2 * (1 + 1e-9)), 0.0]
        x[-2] = x[3] + [0.0, np.sqrt(40 * delta ** 2 * (1 - 1e-9))]
    f = BlobField(x=x, gamma=rng.normal(size=n), delta=delta)
    want = one_product(f, f.x)
    got = velocity_free_space(f, f.x)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the form is chosen by value, not by identity
    assert np.array_equal(velocity_free_space(f, f.x.copy()), got)


def test_blob_blob_form_builds_each_pair_once(monkeypatch):
    built = []

    def counting(points, sources, *args):
        rho = squared_distances(points, sources, *args)
        built.append(rho.size)
        return rho

    monkeypatch.setattr(biotsavart, "squared_distances", counting)
    n = 200
    f = BlobField(x=np.random.default_rng(1).uniform(-1, 1, (n, 2)),
                  gamma=np.ones(n), delta=0.1)
    velocity_free_space(f, f.x)
    assert 0 < sum(built) <= n * (n + PAIR_ROWS) // 2


def test_pair_energy_builds_each_pair_once(monkeypatch):
    built = []

    def counting(points, sources, *args):
        rho = squared_distances(points, sources, *args)
        built.append(rho.size)
        return rho

    monkeypatch.setattr(biotsavart, "squared_distances", counting)
    n = 200
    f = BlobField(x=np.random.default_rng(1).uniform(-1, 1, (n, 2)),
                  gamma=np.ones(n), delta=0.1)
    pair_energy(f)
    assert 0 < sum(built) <= n * (n + PAIR_ROWS) // 2


@pytest.mark.parametrize("delta", [0.07, 0.3])
@pytest.mark.parametrize("side", [-1e-9, 1e-9])
def test_pair_stream_cutoff_is_below_roundoff(delta, side):
    # E1 is dropped from 40 core radii squared on; on either side of the
    # cut the value equals the uncut stream
    rho = (40.0 + side) * delta ** 2
    f = BlobField(x=[[0.0, 0.0], [np.sqrt(rho), 0.0]], gamma=[1.0, 1.0],
                  delta=delta)
    r2 = f.x[1, 0] ** 2
    want = (np.log(r2) + exp1(r2 / delta ** 2)) / (4 * np.pi)
    got = pair_stream_matrix(f)
    assert got[0, 1] == got[1, 0]
    assert abs(got[0, 1] - want) <= 1e-15 * abs(want)


def test_e1_table_matches_mpmath():
    # the Taylor table against 40-digit E1 on [0.5, 40): a uniform grid,
    # both ends, and each side of every midpoint between nodes, where the
    # expansion reaches furthest
    nodes = biotsavart._E1_NODES
    mid = nodes[:-1] + 0.5 * np.diff(nodes)
    u = np.unique(np.concatenate([np.linspace(0.5, 40.0, 4000, endpoint=False),
                                  mid - 1e-12, mid + 1e-12,
                                  [0.5, np.nextafter(40.0, 0.0)]]))
    assert u[0] == 0.5 and u[-1] < 40.0
    with mpmath.workdps(40):
        want = np.array([float(mpmath.e1(x)) for x in u])
    assert np.abs(biotsavart._e1(u) / want - 1.0).max() <= 2e-15


@pytest.mark.parametrize("delta", [0.07, 0.3])
@pytest.mark.parametrize("side", [-1e-12, 1e-12])
def test_pair_stream_is_continuous_across_the_e1_table_start(delta, side):
    # the power series below u = 0.5, the table above: on each side the
    # value is the scipy-evaluated stream (the switch at u = 40 is the
    # cutoff test's)
    u = 0.5 + side
    f = BlobField(x=[[0.0, 0.0], [np.sqrt(u) * delta, 0.0]], gamma=[1.0, 1.0],
                  delta=delta)
    r2 = f.x[1, 0] ** 2
    assert (r2 / delta ** 2 < 0.5) == (side < 0)
    want = (np.log(r2) + exp1(r2 / delta ** 2)) / (4 * np.pi)
    got = pair_stream_matrix(f)[0, 1]
    assert abs(got - want) <= 4.4e-16 * max(1.0, abs(want))


@pytest.mark.parametrize("delta", [0.07, 0.3, 1.3, 5.0])
def test_pair_stream_below_the_table_matches_mpmath(delta):
    # below u = 0.5 the stream is one polynomial in u, ln r^2 + E1(u) with
    # the logs cancelled; against 40-digit ln r^2 + E1(u) on [0, 0.5),
    # where u = 0 is the self-pair's limit 2 ln delta - euler_gamma
    u = np.concatenate([np.linspace(0.0, 0.5, 400, endpoint=False),
                        [np.nextafter(0.5, 0.0)]])
    x = np.zeros((u.size + 1, 2))
    x[1:, 0] = np.sqrt(u) * delta
    f = BlobField(x=x, gamma=np.ones(u.size + 1), delta=delta)
    got = pair_stream_matrix(f, 0, 1)[0, 1:]
    r2 = x[1:, 0] ** 2
    assert (r2 / delta ** 2 < 0.5).all()
    with mpmath.workdps(40):
        d2 = mpmath.mpf(delta) ** 2
        want = np.array([float((mpmath.log(r) + mpmath.e1(mpmath.mpf(r) / d2)
                                if r > 0 else mpmath.log(d2) - mpmath.euler)
                               / (4 * mpmath.pi)) for r in r2])
    assert np.abs(got - want).max() <= 2.2e-16 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
def test_blob_field_rejects_bad_core_radius(delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        BlobField(x=[[0.0, 0.0]], gamma=[1.0], delta=delta)


def exterior_velocity(hy, points):
    """The zero-flux, zero-circulation field at arbitrary points: the
    free-space blob sum plus the gradient of the correction layer, read
    through the scaling law."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return (velocity_free_space(hy.field, pts)
            + log_gradient_sum(pts / hy.scaled.eps, hy.scaled.base.mesh.x,
                               hy.charges))


def test_disk_image_system(disk_scaled):
    # a near-point blob outside a disk of radius EPS: the zero-flux,
    # zero-circulation field is the vortex plus images at the inverse
    # point (opposite sign) and the center (same sign)
    y = np.array([0.45, 0.15])
    G1 = 2.0
    blob = BlobField(x=[y], gamma=[G1], delta=1e-6)
    hy = HydrodynamicField(disk_scaled, blob)

    def image_vel(p):
        p = np.asarray(p, float)
        ys = (EPS**2 / (y @ y)) * y
        out = np.zeros(2)
        for pos, g in [(y, G1), (ys, -G1), (np.zeros(2), G1)]:
            d = p - pos
            out += g / (2 * np.pi) * perp(d) / (d @ d)
        return out

    for p in [[0.9, 0.2], [0.1, -0.8], [-0.5, 0.5], [2.0, 1.0]]:
        assert np.abs(exterior_velocity(hy, [p])[0] - image_vel(p)).max() < 1e-10

    mesh = disk_scaled.base.mesh
    nodes = EPS * mesh.x
    want = np.array([image_vel(q) @ t for q, t in zip(nodes, mesh.tau)])
    got = (hy.tilde_boundary_trace([0.0, 0.0], 0.0) * mesh.tau).sum(1)
    assert np.abs(got - want).max() < 1e-10
    assert abs(hy.flux_defect) < 1e-12


def test_hydrodynamic_flux_and_circulation(disk_scaled):
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 6)
    rad = rng.uniform(0.8, 1.6, 6)
    blobs = BlobField(x=np.stack([rad * np.cos(ang), rad * np.sin(ang)], -1),
                      gamma=rng.normal(size=6), delta=0.05)
    hy = HydrodynamicField(disk_scaled, blobs)

    def loop_integrals(radius, n=1440):
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        pts = radius * np.stack([np.cos(t), np.sin(t)], -1)
        u = exterior_velocity(hy, pts)
        nrm = pts / radius
        tau = np.stack([-nrm[:, 1], nrm[:, 0]], -1)
        ds = 2 * np.pi * radius / n
        return (np.sum((u * nrm).sum(1)) * ds, np.sum((u * tau).sum(1)) * ds)

    # between body and vorticity: both vanish
    flux, circ = loop_integrals(0.6)
    assert abs(flux) < 1e-8
    assert abs(circ) < 1e-8
    # enclosing all blobs: circulation recovers the total strength
    flux, circ = loop_integrals(3.0)
    assert abs(flux) < 1e-8
    assert abs(circ - blobs.beta) < 1e-8


def test_interior_blob_rejected(disk_scaled):
    inside = BlobField(x=[[0.1, 0.0]], gamma=[1.0], delta=1e-3)
    with pytest.raises(BodyCollisionError):
        HydrodynamicField(disk_scaled, inside)
    # a blob exactly on a boundary node: its winding sum is 0/0
    scaled = ScaledPotentials(build_potential_set(build_mesh(disk(), 64)), 0.5)
    on_node = BlobField(x=0.5 * scaled.base.mesh.x[3:4], gamma=[1.0],
                        delta=0.01)
    with pytest.raises(BodyCollisionError):
        HydrodynamicField(scaled, on_node)


@pytest.mark.parametrize("panels", [64, 256])
@pytest.mark.parametrize("shape", [shape for _, shape in CANONICAL_SHAPES],
                         ids=[label for label, _ in CANONICAL_SHAPES])
def test_containment_beyond_one_panel(shape, panels):
    # the winding-sum test agrees with the polygon ray cast at every point
    # farther than one panel length from every node
    mesh = build_mesh(shape, panels)
    scaled = ScaledPotentials(build_potential_set(mesh), EPS)
    lo, hi = mesh.x.min(axis=0), mesh.x.max(axis=0)
    unit = np.random.default_rng(0).random((600, 2))
    pts = lo + (1.6 * unit - 0.3) * (hi - lo)
    far = squared_distances(pts, mesh.x).min(axis=1) > mesh.w.max() ** 2
    inside = polygon_contains(mesh.x, pts)
    outside_pts, inside_pts = pts[far & ~inside], pts[far & inside][:16]
    assert len(outside_pts) > 100 and len(inside_pts) == 16

    HydrodynamicField(scaled, BlobField(x=EPS * outside_pts,
                                        gamma=np.ones(len(outside_pts)),
                                        delta=1e-3))
    for p in inside_pts:
        with pytest.raises(BodyCollisionError):
            HydrodynamicField(scaled, BlobField(x=[EPS * p], gamma=[1.0],
                                                delta=1e-3))


def ring(n, radius, delta, seed):
    rng = np.random.default_rng(seed)
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return BlobField(x=radius * np.column_stack([np.cos(ang), np.sin(ang)]),
                     gamma=rng.normal(size=n), delta=delta)


def test_stage_scratch_reuse_is_exact(disk_scaled):
    # a build on a scratch last used by a larger field on another mesh
    # reads only the leading elements, and gives the fresh build's bits
    scratch = StageScratch()
    HydrodynamicField(disk_scaled, ring(40, 1.2, 0.05, 0), scratch)
    scaled = ScaledPotentials(build_potential_set(build_mesh(ellipse(2.0, 1.0),
                                                             128)), 0.2)
    field = ring(14, 0.9, 0.04, 1)
    reused = HydrodynamicField(scaled, field, scratch)
    fresh = HydrodynamicField(scaled, field)
    assert np.shares_memory(reused._kx, scratch.arrays(1, 1)[0])
    w = np.random.default_rng(2).normal(size=(field.n, 2))
    ell = np.array([0.3, -0.2])
    assert np.array_equal(reused.blob_velocity(1.5, ell, 0.7),
                          fresh.blob_velocity(1.5, ell, 0.7))
    assert np.array_equal(reused.gradient_adjoint(w), fresh.gradient_adjoint(w))
    assert reused.clearance == fresh.clearance
    assert reused.flux_defect == fresh.flux_defect
    assert np.array_equal(reused.charges, fresh.charges)


def full_array_stage(scaled, field):
    """The stage build with every (blobs, nodes) array whole: r^2 and the
    core factor 1 - exp(-u) on every pair, multiplied into full-size
    products.  The reference HydrodynamicField must match bit for bit;
    ``near`` counts the pairs within the cut, and ``u_nearest`` is each
    blob's u at its nearest node."""
    base = scaled.base
    mesh, eps = base.mesh, scaled.eps
    unit = field.x / eps
    kx = outer_difference(unit[:, 0], mesh.x[:, 0])
    ky = outer_difference(unit[:, 1], mesh.x[:, 1])
    r2 = kx * kx
    r2 += ky * ky
    clearance = eps * float(np.sqrt(r2.min(initial=np.inf)))
    u_nearest = r2.min(axis=1) * (eps / field.delta) ** 2
    kx /= r2
    ky /= r2
    core = np.multiply(r2, -(eps / field.delta) ** 2)
    near = core > -40.0
    tail = np.expm1(core[near])
    core.fill(1.0)
    core[near] = -tail
    g = field.gamma / TWO_PI
    u_free = np.column_stack([g @ (core * ky), -(g @ (core * kx))]) / eps
    g_n = -(u_free * mesh.normal).sum(axis=1)
    w_eps = eps * mesh.w
    flux_defect = float(np.sum(g_n * w_eps) / np.sum(w_eps))
    sigma = base.ops.neumann_density(g_n - flux_defect)
    charges = sigma * mesh.w
    tangent = ((u_free * mesh.tau).sum(axis=1)
               + base.ops.arc_derivative(base.ops.V @ sigma))
    phi = base.phi
    columns = np.column_stack([charges, phi[0].charges, phi[1].charges,
                               eps * phi[2].charges, base.H.charges]) / TWO_PI
    return {"_kx": kx, "_ky": ky, "clearance": clearance,
            "flux_defect": flux_defect, "charges": charges,
            "_boundary_tangent": tangent,
            "_grad": np.stack([kx @ columns, ky @ columns], axis=-1),
            "_free": velocity_free_space(field, field.x), "near": near.sum(),
            "u_nearest": u_nearest}


@pytest.fixture(scope="module")
def ellipse64_scaled():
    return ScaledPotentials(build_potential_set(build_mesh(ellipse(2.0, 1.0),
                                                           64)), 0.2)


def cut_pair_blobs(scaled):
    """Blobs off the disk's boundary where u = r^2 (eps/delta)^2 at their
    nearest node is 40 -+ 1e-9, or well inside or outside the cut."""
    mesh, eps, delta = scaled.base.mesh, scaled.eps, 0.02 * scaled.eps
    k = np.arange(0, mesh.n, 16)
    u_near = np.resize([40.0 - 1e-9, 40.0 + 1e-9, 4.0, 30.0, 39.9, 41.0],
                       len(k))
    off = np.sqrt(u_near) * delta / eps
    return BlobField(x=eps * (mesh.x[k] - off[:, None] * mesh.normal[k]),
                     gamma=np.linspace(-1.0, 2.0, len(k)), delta=delta)


@pytest.mark.parametrize("case", ["near", "far", "chunks", "empty", "cut"])
def test_stage_build_matches_full_arrays(ellipse64_scaled, disk_scaled, case):
    # r^2 in row chunks and the core factor at the near pairs only give
    # the bits of the whole-array build, seen also through the flux
    # defect, the correction's charges and the boundary tangent trace:
    # pairs within the u = 40 cut, none there, 600 blobs x 64 nodes in
    # row chunks of 255 (the last one 90 rows), no blobs, and blobs on
    # either side of the cut by 1e-9 off the disk
    scaled = disk_scaled if case == "cut" else ellipse64_scaled
    eps, mesh = scaled.eps, scaled.base.mesh
    field = {"near": ring(40, 0.5, 0.04, 3),
             "far": ring(40, 0.5, 1e-4, 4),
             "chunks": ring(600, 0.45, 0.03, 5),
             "empty": ring(0, 0.5, 0.04, 6),
             "cut": cut_pair_blobs(disk_scaled)}[case]
    if case == "chunks":
        assert field.n % (biotsavart._CHUNK_FLOATS // mesh.n) == 90
    scratch = StageScratch()
    hydro = HydrodynamicField(scaled, field, scratch)
    ref = full_array_stage(scaled, field)
    assert (ref.pop("near") > 0) == (case in ("near", "chunks", "cut"))
    u = ref.pop("u_nearest")
    if case == "cut":
        assert ((40.0 - 2e-9 < u) & (u < 40.0)).sum() == 3
        assert ((40.0 <= u) & (u < 40.0 + 2e-9)).sum() == 3
    for name, want in ref.items():
        got = getattr(hydro, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    assert np.array_equal(hydro.tilde_boundary_trace([0.0, 0.0], 0.0),
                          ref["_boundary_tangent"][:, None] * mesh.tau)
    assert sum(b.size for b in scratch._buffers) == 2 * field.n * mesh.n


def test_core_factor_is_one_from_forty():
    u = np.linspace(40.0, 1e3, 100_001)
    assert (-np.expm1(-u) == 1.0).all()


def test_body_frame_assembly(disk_scaled):
    blob = BlobField(x=[[0.45, 0.15]], gamma=[2.0], delta=1e-6)
    gamma, ell, r = 2.0 * np.pi, np.array([0.3, -0.1]), 0.7
    hy = HydrodynamicField(disk_scaled, blob)
    mesh = disk_scaled.base.mesh
    w = EPS * mesh.w

    tilde = hy.tilde_boundary_trace(ell, r)
    trace = tilde + gamma * disk_scaled.h_trace
    circ = np.sum((trace * mesh.tau).sum(1) * w)
    assert abs(circ - gamma) < 1e-10
    # the circulation-free part carries none of it
    assert abs(np.sum((tilde * mesh.tau).sum(1) * w)) < 1e-10

    # v.n is the rigid normal velocity of the scaled body
    vn = (trace * mesh.normal).sum(1)
    rigid = (ell[0] * mesh.neumann_data(1) + ell[1] * mesh.neumann_data(2)
             + r * EPS * mesh.neumann_data(3))
    assert np.abs(vn - rigid).max() < 1e-12


def test_body_frame_reduces_to_harmonic_field(disk_scaled):
    # zero-strength blobs only sample the field: with no vorticity and no
    # body motion the velocity at the blobs is the circulation carrier
    pts = np.array([[0.5, 0.4], [1.0, -2.0], [-0.9, 0.1]])
    probes = BlobField(x=pts, gamma=np.zeros(3), delta=0.01)
    hy = HydrodynamicField(disk_scaled, probes)
    h = disk_scaled.base.H.velocity(pts / EPS) / EPS
    assert np.allclose(hy.blob_velocity(1.0, [0.0, 0.0], 0.0), h, atol=1e-14)


def test_corotating_pair_period():
    # the blobs of a vortex-wave state with a massless, distant vortex
    # move under the blob kernel alone
    d0, strength = 1.0, 0.75   # per blob
    pair = BlobField(x=[[d0 / 2, 0.0], [-d0 / 2, 0.0]],
                     gamma=[strength, strength], delta=1e-8, frame="lab")
    period = 2.0 * np.pi**2 * d0**2 / strength
    n = 2000
    cur = VortexWaveState(h=[100.0, 0.0], field=pair, gamma=0.0)
    for _ in range(n):
        cur = vw_step(cur, period / n)
    assert np.abs(cur.field.x - pair.x).max() < 1e-6
    assert np.array_equal(cur.field.gamma, pair.gamma)


def test_pair_stream_consistency():
    # radial derivative of the pair stream must reproduce the kernel speed
    delta = 0.07

    def psi(r):
        f = BlobField(x=[[0.0, 0.0], [r, 0.0]], gamma=[1.0, 1.0], delta=delta)
        return pair_stream_matrix(f)[0, 1]

    for r in (0.03, 0.2, 1.0):
        h = 1e-6
        dpsi = (psi(r + h) - psi(r - h)) / (2 * h)
        speed = -np.expm1(-(r / delta)**2) / (2 * np.pi * r)
        assert abs(dpsi - speed) < 1e-6 * max(abs(speed), 1.0)

    self_val = pair_stream_matrix(
        BlobField(x=[[0.0, 0.0]], gamma=[1.0], delta=delta))[0, 0]
    assert abs(self_val - (np.log(delta) - 0.5 * np.euler_gamma) / (2 * np.pi)) < 1e-15
