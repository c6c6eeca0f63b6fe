import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_shape
from vortexbody import geometry as vb
from vortexbody.geometry import (_segments_cross, outer_difference,
                                 squared_distances)
from vortexbody.lab import CANONICAL_SHAPES
from vortexbody.potential import build_potential_set

# Oracle: perimeter of the (2,1) ellipse, 4*a*E(1 - b^2/a^2) via scipy.special.ellipe
ELLIPSE_21_PERIMETER = 9.688448220547675


def perimeter(mesh) -> float:
    return float(mesh.w.sum())


def segments_cross_all_pairs(pts: np.ndarray) -> bool:
    """Reference for ``_segments_cross``: the same proper-crossing test on
    every non-adjacent pair of closed-polyline segments."""
    n = len(pts)
    b = np.roll(pts, -1, axis=0)
    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    p = pts[i_idx]
    r = b[i_idx] - pts[i_idx]
    q = pts[j_idx]
    v = b[j_idx] - pts[j_idx]
    rxv = r[:, 0] * v[:, 1] - r[:, 1] * v[:, 0]
    d = q - p
    dxv = d[:, 0] * v[:, 1] - d[:, 1] * v[:, 0]
    dxr = d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = dxv / rxv
        u = dxr / rxv
    ok = np.abs(rxv) > 1e-14
    eps = 1e-12
    hit = ok & (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    return bool(np.any(hit))


def random_polyline(kind: str, n: int, rng) -> np.ndarray:
    if kind == "generic":
        return rng.random((n, 2))
    if kind == "star":     # simple unless the one jittered angle crosses
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        theta[rng.integers(n)] += rng.normal(0.0, 0.3)
        radius = 1.0 + rng.uniform(-0.9, 0.9) * rng.random(n)
        return np.column_stack([radius * np.cos(theta),
                                radius * np.sin(theta)])
    if kind == "lattice":  # collinear, touching and repeated points
        return np.round(rng.random((n, 2)) * 4.0) / 4.0
    if kind == "non-finite":  # an overflowing shape meshes to such points
        pts = rng.random((n, 2))
        start, run = rng.integers(n), rng.integers(1, 4)
        pts[start:start + run, rng.integers(2)] = rng.choice(
            [np.inf, -np.inf, np.nan])
        return pts
    # two long, nearly collinear segments end to end, on a closed loop
    angle, tilt = rng.uniform(0.0, np.pi), 10.0 ** rng.uniform(-14, -13.5)
    along = np.array([np.cos(angle), np.sin(angle)])
    p0 = rng.random(2)
    p1 = p0 + rng.uniform(0.3, 1.0) * along
    gap = 10.0 ** rng.uniform(-8, -2)
    # the lines meet between 1 and 1.5 gaps before q0, on segment 0
    q0 = (p1 + gap * along
          + rng.uniform(1.0, 1.5) * gap * tilt * vb.perp(along))
    q1 = q0 + rng.uniform(0.3, 1.0) * np.array([np.cos(angle + tilt),
                                                 np.sin(angle + tilt)])
    return np.array([p0, p1, q0, q1, q1 + 3.0 * vb.perp(along),
                     p0 + 3.0 * vb.perp(along)])


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["generic", "star", "lattice", "near-collinear",
                             "non-finite"]),
       n=st.integers(4, 80), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_crossing_test_matches_all_pairs(kind, n, seed):
    pts = random_polyline(kind, n, np.random.default_rng(seed))
    with np.errstate(invalid="ignore"):   # inf - inf on non-finite points
        assert _segments_cross(pts) == segments_cross_all_pairs(pts)


def test_flagged_pair_with_disjoint_extents_is_kept():
    # segments 0 and 2 are collinear to 1e-14; rounding puts their computed
    # crossing inside both, though their extents lie 8.6e-4 apart, far
    # beyond any pad proportional to the curve's size alone
    pts = np.array([[0.3623664729670736, 0.9263583613581154],
                    [0.11859958913079735, 1.861490968120949],
                    [0.11837614935804122, 1.8623481223572573],
                    [-0.12861505138081655, 2.8098497754101426],
                    [-3.03160387373754, 2.0531094650843866],
                    [-2.54062234938965, 0.1696180510323595]])
    lo0, hi0 = np.minimum(pts[0], pts[1]), np.maximum(pts[0], pts[1])
    lo2, hi2 = np.minimum(pts[2], pts[3]), np.maximum(pts[2], pts[3])
    assert np.maximum(lo2 - hi0, lo0 - hi2).max() > 8e-4
    assert segments_cross_all_pairs(pts)
    assert _segments_cross(pts)


@pytest.mark.parametrize("panels", [8, 16, 64, 512, 2048])
@pytest.mark.parametrize("shape", [shape for _, shape in CANONICAL_SHAPES],
                         ids=[label for label, _ in CANONICAL_SHAPES])
def test_canonical_shapes_do_not_self_intersect(shape, panels):
    mesh = vb.build_mesh(shape, panels)
    assert not _segments_cross(mesh.x)
    if panels <= 512:
        assert not segments_cross_all_pairs(mesh.x)


def test_disk_mesh_nodes_and_frames():
    mesh = vb.build_mesh(vb.disk(1.0), 8)
    angles = np.arange(8) * np.pi / 4
    np.testing.assert_allclose(mesh.x[:, 0], np.cos(angles), atol=1e-14)
    np.testing.assert_allclose(mesh.x[:, 1], np.sin(angles), atol=1e-14)
    # normals point to the center (into the solid)
    np.testing.assert_allclose(mesh.normal, -mesh.x, atol=1e-14)
    # tau = -perp(n)
    np.testing.assert_allclose(mesh.tau, -vb.perp(mesh.normal), atol=1e-15)


def test_weights_sum_to_perimeter_and_closed_normal():
    for shape in (vb.disk(1.0), vb.ellipse(2, 1),
                  vb.perturbed_disk(cos_amps={3: 0.2})):
        mesh = vb.build_mesh(shape, 128)
        assert abs(mesh.w.sum() - perimeter(mesh)) < 1e-10
        closure = (mesh.normal * mesh.w[:, None]).sum(axis=0)
        assert np.abs(closure).max() < 1e-10


def test_ellipse_perimeter_golden():
    mesh = vb.build_mesh(vb.ellipse(2, 1), 512)
    assert abs(perimeter(mesh) - ELLIPSE_21_PERIMETER) < 1e-8


def test_mesh_validation():
    with pytest.raises(ValueError):
        vb.build_mesh(vb.disk(1.0), 4)
    with pytest.raises(ValueError):
        vb.build_mesh(vb.disk(1.0), 9)
    # clockwise parametrization is rejected
    with pytest.raises(ValueError):
        vb.build_mesh(vb.ShapeSpec("cw", (-1,), (1.0 + 0j,)), 64)
    # a mode mix that loops through itself is rejected with a diagnostic
    with pytest.raises(ValueError, match="self-intersect"):
        vb.build_mesh(vb.ShapeSpec("knot", (1, 3), (1.0 + 0j, 0.8 + 0j)), 128)


def test_disk_moments_exact():
    mesh = vb.build_mesh(vb.disk(1.0), 64)
    mom = mesh.moments
    assert abs(mom.area - np.pi) < 1e-12
    assert abs(mom.m_polar - np.pi / 2) < 1e-12
    assert abs(mom.m_diff) < 1e-12
    assert abs(mom.m_cross) < 1e-12
    assert np.abs(mom.centroid).max() < 1e-13


def test_ellipse_moments_closed_form():
    # integral of x1^2 over the ellipse is pi a^3 b / 4, of x2^2 is pi a b^3 / 4
    mesh = vb.build_mesh(vb.ellipse(2, 1), 256)
    mom = mesh.moments
    assert abs(mom.area - 2 * np.pi) < 1e-10
    assert abs(mom.m_diff - 3 * np.pi / 2) < 1e-10
    assert abs(mom.m_cross) < 1e-10
    assert abs(mom.m_polar - 5 * np.pi / 2) < 1e-10


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.floats(0.3, 3.0))
def test_ellipse_moments_property(a, b):
    mesh = vb.build_mesh(vb.ellipse(a, b), 96)
    mom = mesh.moments
    scale = max(1.0, a * b) ** 2
    assert abs(mom.area - np.pi * a * b) < 1e-10 * scale
    assert abs(mom.m_diff - np.pi * a * b * (a * a - b * b) / 4) < 1e-9 * scale
    assert abs(mom.m_polar - np.pi * a * b * (a * a + b * b) / 4) < 1e-9 * scale


def test_presets_are_centered():
    for shape in (vb.perturbed_disk(cos_amps={3: 0.2}),
                  vb.perturbed_disk(cos_amps={2: 0.15}, sin_amps={3: 0.10})):
        mom = vb.build_mesh(shape, 256).moments
        assert np.abs(mom.centroid).max() < 1e-13


def test_translated_shape_moves_centroid():
    shape = vb.ellipse(2, 1).translated((0.3, -0.4))
    mom = vb.build_mesh(shape, 256).moments
    np.testing.assert_allclose(mom.centroid, [0.3, -0.4], atol=1e-12)


def test_scaled_shape():
    eps = 0.125
    base = vb.build_mesh(vb.ellipse(2, 1), 64)
    small = vb.build_mesh(scaled_shape(vb.ellipse(2, 1), eps), 64)
    np.testing.assert_allclose(small.x, eps * base.x, atol=1e-15)
    np.testing.assert_allclose(small.w, eps * base.w, atol=1e-15)
    mom = small.moments
    assert abs(mom.area - eps ** 2 * 2 * np.pi) < 1e-12


@pytest.mark.parametrize("shape, message", [
    (vb.disk(1e300), "node coordinate exceeds"),
    (vb.disk(2.0 * vb.EXTENT_MAX), "node coordinate exceeds"),
    # the second derivative of mode 9 overflows
    (vb.ShapeSpec("wavy", (1, 9), (1.0, 1e307)), "non-finite"),
    # modes 1 and 1 - 64 alias on 64 panels: the nodes trace a circle of
    # radius 1e75, but the weights sum to 4e85 and the moments overflow
    (vb.ShapeSpec("aliased", (-63, 1), (-1e83, 1e75 + 1e83)), "moments"),
])
def test_too_large_curve_fails_without_warning(shape, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            vb.build_mesh(shape, 64)


def test_curve_within_extent_bound_meshes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = vb.build_mesh(scaled_shape(vb.ellipse(2, 1),
                                          0.4 * vb.EXTENT_MAX), 64)
    assert np.abs(mesh.x).max() <= vb.EXTENT_MAX
    mom = mesh.moments
    assert np.isfinite([mom.area, mom.m_diff, mom.m_cross,
                        mom.m_polar]).all()


# a hooked body whose centroid lies in the fluid: H's log pole would sit
# outside the solid, and H would carry no circulation
OFF_CENTROID_AMPS = {1: -1.0, 2: -0.3, 3: 0.7, 4: -0.3}


def test_centroid_outside_body_fails_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="centroid outside the body"):
            vb.perturbed_disk(cos_amps=OFF_CENTROID_AMPS)


def test_nonconvex_body_with_centroid_inside_meshes():
    # r = 1 + 0.9 cos 2t pinches to 0.1 at its waist, which the centroid
    # still lies inside; area pi (1 + 0.9^2 / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = vb.build_mesh(vb.perturbed_disk(cos_amps={2: 0.9}), 256)
    assert abs(mesh.moments.area - np.pi * (1 + 0.9 ** 2 / 2)) < 1e-12
    assert np.abs(mesh.interior_point).max() < 1e-12


@pytest.mark.parametrize("radius", [1e-50, 0.5 * vb.EXTENT_MIN])
def test_small_curve_meshes_and_solves(radius):
    # the degeneracy test is relative, so a disk far below unit size, down
    # to nodes spanning EXTENT_MIN, meshes; its added masses are the unit
    # disk's times radius^(2 + [i>=3] + [j>=3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = vb.build_mesh(vb.disk(radius), 64)
        mass = build_potential_set(mesh).mass
    assert np.ptp(mesh.x, axis=0).max() >= vb.EXTENT_MIN
    power = 2 + (np.arange(5) >= 2)
    unit = build_potential_set(vb.build_mesh(vb.disk(1.0), 64)).mass
    scaled = mass / radius ** power[:, None] / radius ** (power[None, :] - 2)
    assert np.abs(scaled - unit).max() < 1e-13


def test_curve_below_extent_floor_fails_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            vb.build_mesh(vb.disk(0.4 * vb.EXTENT_MIN), 64)


def test_spectral_refinement():
    per = ELLIPSE_21_PERIMETER
    e8 = abs(perimeter(vb.build_mesh(vb.ellipse(2, 1), 8)) - per)
    e16 = abs(perimeter(vb.build_mesh(vb.ellipse(2, 1), 16)) - per)
    assert e8 / e16 > 10.0


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-6.0, 6.0), hx=st.floats(-2, 2), hy=st.floats(-2, 2))
def test_placement_roundtrip(theta, hx, hy):
    pl = vb.Placement(h=np.array([hx, hy]), theta=theta)
    pts = np.array([[0.3, -1.2], [1.0, 0.0], [-0.7, 0.45]])
    R = vb.rotation(theta)
    # inverse map: y -> (y - h) R
    np.testing.assert_allclose((pl.to_lab(pts) - pl.h) @ R, pts, atol=1e-12)
    np.testing.assert_allclose((pts @ R) @ R.T, pts, atol=1e-12)


@pytest.mark.parametrize("m, n", [(0, 5), (1, 1), (200, 300), (3, 20000)])
def test_squared_distances_chunks_are_exact(m, n):
    # the row-chunked build has the bits of the direct two-difference
    # formula
    rng = np.random.default_rng(n)
    p, y = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
    want = ((p[:, None, 0] - y[None, :, 0]) ** 2
            + (p[:, None, 1] - y[None, :, 1]) ** 2)
    assert np.array_equal(squared_distances(p, y), want)


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                           -5e-324, 1e308, -1e308, 1.0, -2.5])


@pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (1, 1), (64, 2729),
                                  (64, 2731), (300, 257)])
@pytest.mark.parametrize("draw", ["normal", "special"])
def test_outer_difference_matches_subtract_outer(m, n, draw):
    # the exact rank-2 product has the values of numpy's outer subtract,
    # NaN where it is NaN, on both sides of the 8192-element buffer width
    rng = np.random.default_rng(m * n)
    if draw == "normal":
        a, b = rng.normal(size=m), rng.normal(size=n)
    else:
        a, b = rng.choice(SPECIAL_VALUES, m), rng.choice(SPECIAL_VALUES, n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.subtract.outer(a, b)
        got = outer_difference(a, b)
        assert got.shape == (m, n)
        assert np.array_equal(got, want, equal_nan=True)


def test_outer_difference_of_signed_zeros():
    # every pair of special values, and the one sign it does not keep:
    # (-0) - (+0) is -0 in numpy's subtract and +0 from the product
    a = b = SPECIAL_VALUES
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.subtract.outer(a, b)
        got = outer_difference(a, b)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(want[1, 0]) and not np.signbit(got[1, 0])
    zero = (a[:, None] == 0) & (b[None, :] == 0)
    assert not np.signbit(got[zero]).any()


def test_perp_and_rotation():
    v = np.array([1.0, 2.0])
    np.testing.assert_allclose(vb.perp(v), [-2.0, 1.0])
    np.testing.assert_allclose(vb.perp(vb.perp(v)), -v)
    np.testing.assert_allclose(vb.rotation(np.pi / 2) @ v, vb.perp(v), atol=1e-15)


def test_rk4_step_is_fourth_order():
    # v' = perp(v) rotates v; the clock t' = 1 has a constant rate, which
    # RK4 integrates exactly, so only the roundoff of summing dt is left
    v0 = np.array([1.0, 0.5])
    errors = []
    for n in (20, 40):
        y = (v0, 0.0)
        for _ in range(n):
            y = vb.rk4_step(lambda v, t: (vb.perp(v), 1.0), y, 1.0 / n)
        errors.append(np.abs(y[0] - vb.rotation(1.0) @ v0).max())
        assert abs(y[1] - 1.0) < 1e-14
    assert 14.0 <= errors[0] / errors[1] <= 18.0
    with pytest.raises(ValueError):
        vb.rk4_step(lambda v, t: (vb.perp(v), 1.0), (v0, 0.0), 0.0)
