"""Acceptance gate: one test per numbered criterion of the release
checklist, at the tolerances frozen there.

1. boundary/field identity suite on three canonical shapes at N=512
2. disk golden values (closed-form potential, added mass, Laurent head)
3. conserved quantities along a coupled reference run
4. force expansion error orders over the eps sweep
5. boundary approximation defect order
6. normal-form residual bound, tensor orthogonality, rotated-mass identity
7. uniform boundedness of the modulated momentum
8. trajectory convergence to the limit system
9. disk orbit against an independently integrated reduced ODE
10. disk among point vortices against the exact disk-vortex ODE
11. the exact eps -> 0 rate on the disk: disk-vortex ODE against the
    vortex-wave ODE of the same point vortices

Criteria 7-9 drive the config-file interface end to end; everything else
calls the library directly.  The eps-sweep fixture is the dominant cost
(about 20 s); the rest runs in seconds.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (disk_vortex_rhs, every, neumann_potential, patch_field,
                      rotated_mass_identity_check, sampled_run,
                      vortex_wave_rhs)
from vortexbody.biotsavart import BlobField
from vortexbody.coupled_system import coupled_step, init_coupled, total_energy
from vortexbody.geometry import build_mesh, disk, ellipse
from vortexbody.lab import check, parse_config, run
from vortexbody.normal_form import apply_lambda
from vortexbody.potential import (
    ScaledPotentials,
    build_mass_data,
    build_potential_set,
    laurent_coefficients,
)

TWO_PI = 2.0 * np.pi
ANNULUS = patch_field(1.0, 1.8, 0.15)


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_identity_suite():
    report = check(panels=512, seed=0)
    failures = [r for r in report.rows if not r.passed]
    assert not failures, failures
    assert {r.shape for r in report.rows} == {"disk", "ellipse",
                                              "perturbed-disk"}
    assert {r.tolerance for r in report.rows if r.group == "geometry"} == {1e-8}
    assert {r.tolerance for r in report.rows if r.group == "field"} == {1e-6}


# -- criterion 2 ------------------------------------------------------------

@pytest.fixture(scope="module")
def disk512():
    pset = build_potential_set(build_mesh(disk(), 512))
    return pset, build_mass_data(pset)


def test_criterion_2_disk_golden_values(disk512):
    pset, md = disk512
    ang = np.linspace(0.0, TWO_PI, 7, endpoint=False)
    probes = np.concatenate([
        rad * np.column_stack([np.cos(ang), np.sin(ang)])
        for rad in (1.2, 2.0, 3.7)])
    r2 = (probes ** 2).sum(axis=1)

    assert np.abs(neumann_potential(pset.phi[0], probes)
                  + probes[:, 0] / r2).max() < 1e-8
    assert abs(pset.mass[0, 0] - np.pi) < 1e-6
    assert abs(pset.mass[1, 1] - np.pi) < 1e-6
    assert abs(laurent_coefficients(pset.H, 1)[0] - 1.0 / (2j * np.pi)) < 1e-8
    assert np.abs(md.xi).max() < 1e-9
    assert np.abs(md.eta).max() < 1e-9
    assert np.abs(pset.phi[2].boundary_trace()).max() < 1e-12
    assert np.abs(pset.phi[2].gradient(probes)).max() < 1e-12


# -- criterion 3 ------------------------------------------------------------

@pytest.fixture(scope="module")
def conservation():
    """Ellipse reference run (eps=0.1, alpha=2, gamma=2pi, annular lattice)
    to T=1 at two cadences, plus the spinning-disk control."""
    pset = build_potential_set(build_mesh(ellipse(2.0, 1.0), 256))

    def drift(dt):
        st = init_coupled(ScaledPotentials(pset, 0.1), m1=1.0, J1=1.0,
                          alpha=2.0, gamma=TWO_PI, ell0=(0.1, 0.0), r0=0.0,
                          field=ANNULUS)
        e0 = total_energy(st)
        strengths = st.field.gamma.copy()
        worst_e, worst_g, worst_b = 0.0, 0.0, 0.0
        for _ in range(round(1.0 / dt)):
            st = coupled_step(st, dt)
            worst_e = max(worst_e, abs(total_energy(st) - e0))
            worst_g = max(worst_g, abs(st.gamma - TWO_PI))
            worst_b = max(worst_b,
                          float(np.abs(st.field.gamma - strengths).max()))
        return worst_e / abs(e0), worst_g, worst_b

    coarse, g1, b1 = drift(0.004)
    fine, g2, b2 = drift(0.002)

    pdisk = build_potential_set(build_mesh(disk(), 256))
    st = init_coupled(ScaledPotentials(pdisk, 0.1), m1=1.0, J1=1.0,
                      alpha=2.0, gamma=TWO_PI, ell0=(0.1, 0.0), r0=0.5,
                      field=ANNULUS)
    spin = 0.0
    for _ in range(250):
        st = coupled_step(st, 0.004)
        spin = max(spin, abs(st.r - 0.5))

    return {"coarse": coarse, "fine": fine, "gamma_dev": max(g1, g2),
            "beta_dev": max(b1, b2), "spin_dev": spin}


def test_criterion_3_conserved_quantities(conservation):
    assert conservation["gamma_dev"] == 0.0
    assert conservation["beta_dev"] == 0.0
    assert conservation["coarse"] < 1e-4
    # fourth-order scheme: halving dt improves the drift ~16x; accept a
    # factor-4 band either way since the max is taken over the whole run
    ratio = conservation["coarse"] / conservation["fine"]
    assert 8.0 <= ratio <= 64.0, ratio
    assert conservation["spin_dev"] < 1e-10


# -- criteria 4 and 5 -------------------------------------------------------

def test_criterion_4_force_expansion_orders(frozen_sweep):
    slopes = frozen_sweep["slopes"]
    for key in ("B12", "Ca12", "Cb12"):
        assert 1.6 <= slopes[key] <= 2.4, (key, slopes[key])
    for key in ("B3", "Ca3", "Cb3"):
        assert 2.6 <= slopes[key] <= 3.4, (key, slopes[key])
    assert frozen_sweep["cc_max"] <= 1e-8


def test_criterion_5_boundary_defect_order(frozen_sweep):
    assert 2.1 <= frozen_sweep["slopes"]["defect"] <= 2.9


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_normal_form(asym_setup, random_blobs, residual_runs,
                                 residual_series):
    fine, ref = residual_series[0.05], residual_series[0.1]
    assert abs(fine.fitted_constant - ref.fitted_constant) \
        <= 0.25 * ref.fitted_constant
    assert ref.dt_converged and fine.dt_converged

    pset, md = asym_setup
    P = np.random.default_rng(0).standard_normal((10_000, 3))
    for which in ("g", "under", "a"):
        work = (apply_lambda(md, which, P) * P).sum(1)
        assert np.abs(work).max() < 1e-12, which

    # rotated-mass identity: centered differences agree at rate dt^2
    dt = 1e-3
    record = sampled_run(pset, random_blobs, eps=0.1, dt=dt, steps=48,
                         r0=3.0)
    d1 = rotated_mass_identity_check(record, dt)
    d2 = rotated_mass_identity_check(every(record, 2), 2 * dt)
    d4 = rotated_mass_identity_check(every(record, 4), 4 * dt)
    assert 3.0 <= d2 / d1 <= 5.0, (d1, d2)
    assert 3.0 <= d4 / d2 <= 5.0, (d2, d4)


# -- criteria 7 and 8 -------------------------------------------------------

SWEEP_CONFIG = """\
[shape]
preset = ellipse
a = 2.0
b = 1.0
panels = 256

[body]
alpha = 2.0
gamma = 6.283185307179586
ell0 = 0.5 0.0

[vorticity]
patch = 1.0 1.8 1.0
spacing = 0.15

[sweep]
eps = 0.2 0.1 0.05

[time]
t = 0.5
dt = 0.001

[run]
seed = 0
rho = 4.0
"""


def test_readme_example_is_the_acceptance_sweep(tmp_path):
    # README's example config is SWEEP_CONFIG with the blob core given
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    (tmp_path / "readme.cfg").write_text(example)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CONFIG)
    assert (parse_config(tmp_path / "readme.cfg")
            == replace(parse_config(tmp_path / "sweep.cfg"), delta=0.15))


@pytest.fixture(scope="module")
def alpha2_sweep(tmp_path_factory):
    """Coupled runs over the eps sweep against the shared limit run;
    the dominant cost of the whole suite."""
    root = tmp_path_factory.mktemp("sweep")
    (root / "sweep.cfg").write_text(SWEEP_CONFIG)
    config = parse_config(root / "sweep.cfg")
    _, report = run(config, out_dir=root / "runs")
    return report


def test_criterion_7_momentum_uniformly_bounded(alpha2_sweep):
    rows = alpha2_sweep.rows
    assert all(row["aborted"] is None for row in rows)
    assert all(row["t_eps"] == pytest.approx(0.5, rel=1e-9) for row in rows)
    peaks = [row["peak_momentum"] for row in rows]
    assert max(peaks) / min(peaks) - 1.0 <= 0.10, peaks


def test_criterion_8_trajectory_convergence(alpha2_sweep):
    rows = alpha2_sweep.rows
    assert [row["eps"] for row in rows] == [0.2, 0.1, 0.05]
    sup_h = [row["sup_h_distance"] for row in rows]
    transport = [row["sup_transport"] for row in rows]
    assert sup_h[0] > sup_h[1] > sup_h[2] > 0.0, sup_h
    assert transport[0] > transport[1] > transport[2] > 0.0, transport


# -- criterion 9 ------------------------------------------------------------

ORBIT_CONFIG = """\
[shape]
preset = disk
panels = 128

[body]
alpha = {alpha!r}
gamma = 6.283185307179586
ell0 = 1.0 0.0

[sweep]
eps = {eps!r}

[time]
t = {T!r}
dt = {dt!r}

[run]
seed = 0
"""


def _orbit_gap(tmp_path, eps, alpha):
    """One disk orbit through the config interface versus the reduced
    two-component ODE (lift gamma ell^perp against body plus added mass)
    integrated independently at tight tolerance."""
    M = eps ** alpha * 1.0 + eps ** 2 * np.pi
    period = TWO_PI * M / TWO_PI
    tag = f"orbit-{eps:g}-{alpha:g}"
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(ORBIT_CONFIG.format(alpha=alpha, eps=eps, T=period,
                                       dt=period / 400.0))
    records, _ = run(parse_config(cfg), out_dir=tmp_path / tag,
                     with_limit=False)
    rec = records[0]

    omega = TWO_PI / M

    def rhs(_, y):
        return [y[2], y[3], -omega * y[3], omega * y[2]]

    sol = solve_ivp(rhs, (0.0, rec.t[-1] * (1.0 + 1e-12)),
                    [0.0, 0.0, 1.0, 0.0], t_eval=rec.t,
                    rtol=1e-12, atol=1e-14)
    gap = float(np.abs(rec.h - sol.y[:2].T).max())
    return gap, M / TWO_PI


def test_criterion_9_disk_orbit_oracle(tmp_path):
    for eps, alpha in ((0.1, 2.0), (0.2, 1.5)):
        gap, radius = _orbit_gap(tmp_path, eps, alpha)
        assert gap <= 0.01 * radius, (eps, alpha, gap, radius)


# -- criterion 10 -----------------------------------------------------------

# two point-like blobs: their mutual distance and their distance to the
# body stay many cores wide, so the blob and point-vortex flows differ by
# about exp(-(0.3 / 0.05)^2)
DISK_BLOBS = BlobField(x=[[1.0, 0.0], [-0.8, 0.6]], gamma=[1.0, -0.7],
                       delta=0.05)


@pytest.fixture(scope="module")
def disk128():
    return build_potential_set(build_mesh(disk(), 128))


def _disk_vortex_gaps(disk128, alpha, dt, eps=0.2, T=0.5):
    """Max gaps of the body centre and of the blobs between the coupled
    integrator and the disk-vortex ODE at tight tolerance, and the
    distance the ODE's body travels."""
    st = init_coupled(ScaledPotentials(disk128, eps), m1=1.0, J1=1.0,
                      alpha=alpha, gamma=TWO_PI, ell0=(0.5, 0.0), r0=0.0,
                      field=DISK_BLOBS)
    t, h, blobs = [0.0], [st.h], [st.to_lab(st.field.x)]
    for _ in range(round(T / dt)):
        st = coupled_step(st, dt)
        t.append(st.t)
        h.append(st.h)
        blobs.append(st.to_lab(st.field.x))
    y0 = np.concatenate([[0.0, 0.0, 0.5, 0.0], DISK_BLOBS.x.ravel()])
    sol = solve_ivp(disk_vortex_rhs(eps, eps ** alpha, TWO_PI,
                                    DISK_BLOBS.gamma),
                    (0.0, t[-1]), y0, method="DOP853", t_eval=t,
                    rtol=1e-12, atol=1e-14)
    y = sol.y.T
    h_gap = np.linalg.norm(np.array(h) - y[:, :2], axis=1).max()
    blob_gap = np.linalg.norm(np.array(blobs) - y[:, 4:].reshape(-1, 2, 2),
                              axis=2).max()
    return float(h_gap), float(blob_gap), float(np.hypot(*y[-1, :2]))


def test_criterion_10_disk_with_point_vortices(disk128):
    h_gap, blob_gap, travel = _disk_vortex_gaps(disk128, 2.0, 1e-3)
    assert travel > 0.1, travel
    assert h_gap <= 1e-8 and blob_gap <= 1.5e-10, (h_gap, blob_gap)
    # RK4: halving dt divides the gap by about 16
    fine, _, _ = _disk_vortex_gaps(disk128, 2.0, 5e-4)
    assert 8.0 <= h_gap / fine <= 32.0, (h_gap, fine)
    h_gap, blob_gap, _ = _disk_vortex_gaps(disk128, 0.5, 1e-3)
    assert h_gap <= 1e-10 and blob_gap <= 5e-12, (h_gap, blob_gap)


# -- criterion 11 -----------------------------------------------------------

def _exact_sup_h(eps, alpha, gamma, T=0.5):
    """sup over 2001 samples of [0, T] of |h_eps - h| between the disk of
    radius eps and mass eps^alpha among criterion 10's point vortices and
    their vortex-wave limit, both ODEs by DOP853 at rtol 1e-10, and the
    distance the limit vortex travels."""
    t = np.linspace(0.0, T, 2001)
    x0 = DISK_BLOBS.x.ravel()

    def solve(rhs, y0):
        return solve_ivp(rhs, (0.0, T), y0, method="DOP853", t_eval=t,
                         rtol=1e-10, atol=1e-12).y.T

    body = solve(disk_vortex_rhs(eps, eps ** alpha, gamma, DISK_BLOBS.gamma),
                 np.concatenate([[0.0, 0.0, 0.5, 0.0], x0]))
    limit = solve(vortex_wave_rhs(gamma, DISK_BLOBS.gamma),
                  np.concatenate([[0.0, 0.0], x0]))
    gap = np.hypot(*(body[:, :2] - limit[:, :2]).T).max()
    return float(gap), float(np.hypot(*limit[-1, :2]))


def test_criterion_11_exact_rate_on_the_disk():
    # below the lab's smallest eps: at alpha 2 the body tends to the
    # moving limit vortex as eps^2; at alpha 1 the effective mass
    # eps m1 + pi eps^2 gives a slope that falls to 1 from above; without
    # circulation there is no convergence
    def sweep(alpha, gamma):
        (coarse, travel), (fine, _) = (_exact_sup_h(eps, alpha, gamma)
                                       for eps in (0.05, 0.02))
        return coarse, fine, np.log(coarse / fine) / np.log(0.05 / 0.02), travel

    coarse, fine, slope, travel = sweep(2.0, TWO_PI)
    assert travel > 0.1, travel
    assert coarse == pytest.approx(2.112e-3, rel=0.01), coarse
    assert fine == pytest.approx(3.381e-4, rel=0.01), fine
    assert 1.95 <= slope <= 2.05, slope
    _, _, slope, _ = sweep(1.0, TWO_PI)
    assert 1.0 < slope <= 1.2, slope
    coarse, fine, _, _ = sweep(2.0, 0.0)
    assert fine >= coarse > 0.3, (coarse, fine)
