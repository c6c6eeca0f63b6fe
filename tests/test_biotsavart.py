"""Blob kernel and exterior correction, checked against closed-form
flows: single vortices, Rankine patches, the circle-theorem image system
and corotating pairs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import exp1

from vortexbody.biotsavart import (
    BlobField,
    BodyCollisionError,
    HydrodynamicField,
    pair_stream_matrix,
    velocity_free_space,
    velocity_gradient,
)
from vortexbody.coupled_system import VorticityPatch
from vortexbody.geometry import (build_mesh, disk, perp, polygon_contains,
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
    assert gs.clean

    h = 1e-6
    J = np.zeros((2, 2))
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        J[:, k] = (velocity_free_space(fld, [p0 + dp])[0]
                   - velocity_free_space(fld, [p0 - dp])[0]) / (2 * h)
    assert np.abs(gs.matrix - 0.5 * (J + J.T)).max() < 1e-9
    assert np.trace(gs.matrix) == 0.0


def test_gradient_matches_point_vortex_integrals():
    # far from all cores the scalars reduce to the singular-kernel moments
    # -(1/2pi) sum G sin(2 theta)/rho and -(1/2pi) sum G cos(2 theta)/rho
    rng = np.random.default_rng(11)
    fld = BlobField(x=rng.normal(size=(9, 2)) + 4.0,
                    gamma=rng.normal(size=9), delta=0.03)
    p0 = np.array([-0.4, 0.6])
    gs = velocity_gradient(fld, p0)
    d = fld.x - p0
    th = np.arctan2(d[:, 1], d[:, 0])
    r2 = (d**2).sum(1)
    a_ref = -np.sum(fld.gamma * np.sin(2 * th) / r2) / (2 * np.pi)
    b_ref = -np.sum(fld.gamma * np.cos(2 * th) / r2) / (2 * np.pi)
    assert abs(gs.a - a_ref) < 1e-13
    assert abs(gs.b - b_ref) < 1e-13


def test_gradient_core_center_is_finite():
    f = BlobField(x=[[1e-9, 0.0], [0.0, 1e-9]], gamma=[1.0, -0.5], delta=0.1)
    gs = velocity_gradient(f, [0.0, 0.0])
    assert not gs.clean
    assert np.isfinite([gs.a, gs.b]).all()
    assert abs(gs.a) < 1e-10 and abs(gs.b) < 1e-10


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
    u_shift = velocity_free_space(f.shifted(shift), p + shift)
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
    f = VorticityPatch(1.0, 1.8, spacing=0.08).discretize()
    kernel(f)   # warm up lazily imported code paths
    tracemalloc.start()
    try:
        kernel(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * f.n ** 2 * 8, peak / (f.n ** 2 * 8)


@pytest.mark.parametrize("m", [1, 64, 65, 200])
def test_velocity_free_space_blocks_match_one_product(m):
    # the row-blocked sum against one unblocked product of the full G
    rng = np.random.default_rng(m)
    f = BlobField(x=rng.uniform(-1, 1, (150, 2)),
                  gamma=rng.normal(size=150), delta=0.1)
    pts = np.vstack([f.x[:min(m, 20)], rng.uniform(-1.5, 1.5, (m, 2))])[:m]
    d = pts[:, None, :] - f.x[None, :, :]
    rho = (d ** 2).sum(axis=-1)
    g = np.zeros_like(rho)
    apart = rho > 0
    g[apart] = -np.expm1(-rho[apart] / f.delta ** 2) / rho[apart]
    moments = g @ (f.gamma[:, None] * np.column_stack([np.ones(f.n), f.x]))
    want = perp(pts * moments[:, :1] - moments[:, 1:]) / (2 * np.pi)
    got = velocity_free_space(f, pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
    with pytest.raises(BodyCollisionError), np.errstate(invalid="ignore"):
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


def test_body_frame_assembly(disk_scaled):
    blob = BlobField(x=[[0.45, 0.15]], gamma=[2.0], delta=1e-6)
    gamma, ell, r = 2.0 * np.pi, np.array([0.3, -0.1]), 0.7
    hy = HydrodynamicField(disk_scaled, blob)
    mesh = disk_scaled.base.mesh
    w = EPS * mesh.w

    tilde = hy.tilde_boundary_trace(ell, r)
    trace = tilde + gamma * disk_scaled.h_boundary_trace()
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
