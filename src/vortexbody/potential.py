"""Exterior potential theory on a body boundary: Kirchhoff potentials,
the unit-circulation harmonic field, added-mass data and Laurent tails.

Everything is built from one single-layer representation,

    u(x) = integral over the boundary of (1/2pi) ln|x - y| sigma(y) ds(y),

with two boundary operators on the periodic parameter grid:

* the fluid-side normal derivative  d_n u = -sigma/2 + K' sigma, a
  second-kind equation with a smooth (curvature-limited) kernel, solved
  by plain Nystrom-trapezoid; invertible, no bordering needed, and
  compatible data automatically produces a zero-total-density (hence
  decaying) potential;
* the on-curve values V sigma, whose kernel has the periodic log
  singularity.  V splits as (1/4pi) ln(4 sin^2((s-t)/2)) plus an analytic
  remainder; the log part is integrated exactly mode-by-mode (symbol
  -2pi/|k|), the remainder by trapezoid.  On the uniform grid the split
  factor and the log rule depend on i - j only, so both come from one
  column each (n sines per mesh, not n^2).  The first-kind Dirichlet system
  V sigma + c = f with the zero-mean side condition is bordered by one
  row/column.  How each system is solved, LU at build time and the
  refined inverse at run time, is :class:`BoundaryOperators`' to say.

All solves on scaled copies of a shape reduce to the unit-shape operators
because the Neumann kernel is scale-invariant; :class:`ScaledPotentials`
implements those scaling laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import IdentityRow, contour_integral, hat_field
from .geometry import (TWO_PI, BoundaryMesh, outer_difference, perp,
                       point_vortex, squared_distances)


# ---------------------------------------------------------------------------
# periodic spectral helpers


def circulant(column: np.ndarray) -> np.ndarray:
    """The (n, n) circulant with entry (i, j) = column[(i - j) mod n], as a
    read-only strided view of one 2n - 1 buffer: scipy.linalg.circulant's
    construction, without its copy."""
    n = len(column)
    doubled = np.concatenate((column[::-1], column[:0:-1]))
    step = doubled.strides[0]
    return np.lib.stride_tricks.as_strided(
        doubled[n - 1:], shape=(n, n), strides=(-step, step), writeable=False)


def log_quadrature_column(n: int) -> np.ndarray:
    """First column of the rule for f -> integral of ln(4 sin^2((s_i - t)/2))
    f(t) dt; entry (i, j) of the rule is column[(i - j) mod n].

    Exact for trigonometric polynomials of degree < n/2: the kernel acts
    diagonally in Fourier space with symbol -2pi/|k| (zero mean part).
    """
    lam = np.zeros(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    nz = k != 0
    lam[nz] = -TWO_PI / np.abs(k[nz])
    return np.fft.ifft(lam).real


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/ds of periodic samples on the uniform parameter grid."""
    n = len(values)
    k = np.fft.rfftfreq(n, d=1.0 / n)
    fk = np.fft.rfft(values)
    fk *= 1j * k
    if n % 2 == 0:
        fk[-1] = 0.0  # drop the unpaired Nyquist mode
    return np.fft.irfft(fk, n)


# ---------------------------------------------------------------------------
# free-space log-kernel sums (shared by evaluators)


def log_potential_sum(points, nodes, charges) -> np.ndarray:
    """sum_j charges_j (1/2pi) ln|p - y_j| at each point p."""
    r2 = squared_distances(points, nodes)
    return (0.25 / np.pi) * (np.log(r2, out=r2) @ charges)


def log_gradient_sum(points, nodes, charges) -> np.ndarray:
    """Gradient of log_potential_sum, rows aligned with points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d1 = outer_difference(pts[:, 0], nodes[:, 0])
    d2 = outer_difference(pts[:, 1], nodes[:, 1])
    r2 = d1 ** 2 + d2 ** 2
    d1 /= r2
    d2 /= r2
    coef = charges / TWO_PI
    return np.stack([d1 @ coef, d2 @ coef], axis=-1)


# ---------------------------------------------------------------------------
# boundary operators


def _refined(matrix: np.ndarray, inverse: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """x = inverse @ b plus one step of iterative refinement,
    x += inverse @ (b - matrix @ x), which brings the solve's backward
    error to that of an LU solve (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12)."""
    x = inverse @ b
    x += inverse @ (b - matrix @ x)
    return x


class BoundaryOperators:
    """Nystrom operators for one mesh: the Neumann matrix A and the
    bordered Dirichlet matrix B, whose leading (n, n) block is the single
    layer V.

    Two kinds of solve, chosen by use.  A potential-set build solves each
    system once, by LU (``np.linalg.solve``): an inverse costs 4-5 LU
    factorisations.  The runs solve them hundreds of times (a Neumann
    solve per RK stage, a Dirichlet solve per energy sample), and there
    ``neumann_density`` and ``dirichlet_density`` apply the inverse,
    formed on first use, with one refinement step: matrix-vector
    products in place of triangular solves.
    """

    def __init__(self, mesh: BoundaryMesh):
        self.mesh = mesh
        # the flux sum of a rigid datum scales as the body's size squared
        self._flux_floor = mesh.circumradius ** 2
        n = mesh.n
        x, nv, speed, w = mesh.x, mesh.normal, mesh.speed, mesh.w
        h = TWO_PI / n

        # the (n, n) arrays are built in place to spare temporaries; tests
        # compare them bit for bit with the whole-array formulas, so the
        # order of operations must stay that of the formulas.  The pair
        # offsets come from outer_difference, an exact product whose values
        # are the formulas' differences, and r2 is summed from them
        d1 = outer_difference(x[:, 0], x[:, 0])
        d2 = outer_difference(x[:, 1], x[:, 1])
        r2 = d1 ** 2 + d2 ** 2

        # fluid-side normal derivative: A = -I/2 + K', curvature diagonal
        d1 *= nv[:, None, 0]
        d2 *= nv[:, None, 1]
        d1 += d2
        del d2
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 /= r2
        diag = -(nv * mesh.xpp).sum(axis=1) / (2.0 * speed ** 2)
        np.fill_diagonal(d1, diag)
        d1 *= h / TWO_PI
        d1 *= speed[None, :]
        d1.flat[::n + 1] -= 0.5
        self.A = d1

        # on-curve single-layer values: spectral log split.  On the uniform
        # grid both split terms depend on i - j only, so each is the
        # circulant of its first column: n sines, not n^2
        sin2 = 4.0 * np.sin(0.5 * mesh.s) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 /= circulant(sin2)
            smooth = np.log(r2, out=r2)
        np.fill_diagonal(smooth, 2.0 * np.log(speed))
        smooth *= h
        smooth += circulant(log_quadrature_column(n))
        smooth /= 2.0 * TWO_PI
        smooth *= speed[None, :]

        # bordered first-kind Dirichlet system enforcing zero total density;
        # V is its leading block, built apart and copied in because the
        # passes above run slower on a strided block than one copy costs
        B = np.empty((n + 1, n + 1))
        B[:n, :n] = smooth
        self.V = B[:n, :n]
        B[:n, n] = 1.0
        B[n, :n] = w
        B[n, n] = 0.0
        self.B = B

    @cached_property
    def _A_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.A)

    @cached_property
    def _B_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.B)

    # -- solves ------------------------------------------------------------

    def check_compatible(self, g: np.ndarray, compat_tol: float = 1e-10):
        """Raise ValueError unless each Neumann datum (``g``, or each row of
        a (k, n) ``g``) satisfies the zero-total-flux compatibility
        condition, relative to its own size."""
        g = np.atleast_2d(g)
        w = self.mesh.w
        total = g @ w
        # relative to the data size, with an absolute floor of the body's
        # squared size so that data that is zero up to rounding (a
        # symmetric datum on a symmetric shape) passes at any body size
        scale = np.abs(g) @ w + self._flux_floor
        bad = np.flatnonzero(np.abs(total) > compat_tol * scale)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"incompatible Neumann data: net flux {total[i]:.3e} "
                f"(relative {abs(total[i]) / scale[i]:.3e})")

    def neumann_density(self, g: np.ndarray, compat_tol: float = 1e-10) -> np.ndarray:
        """Density sigma with fluid-side d_n(S sigma) = g on the boundary.

        g must satisfy the zero-total-flux compatibility condition; the
        residual total is checked relative to the data size.
        """
        g = np.asarray(g, dtype=float)
        self.check_compatible(g, compat_tol)
        return _refined(self.A, self._A_inverse, g)

    def dirichlet_density(self, f: np.ndarray):
        """(sigma, c) with S sigma + c = f on the boundary, sum sigma w = 0."""
        sol = _refined(self.B, self._B_inverse,
                       np.append(np.asarray(f, dtype=float), 0.0))
        return sol[:-1], float(sol[-1])

    # -- boundary traces ----------------------------------------------------

    def arc_derivative(self, boundary_values: np.ndarray) -> np.ndarray:
        """Tangential (arc-length) derivative of on-curve values."""
        return spectral_derivative(boundary_values) / self.mesh.speed


# ---------------------------------------------------------------------------
# solution objects


@dataclass(frozen=True)
class NeumannSolution:
    """Decaying exterior harmonic with prescribed fluid-side d_n data."""

    mesh: BoundaryMesh
    data: np.ndarray
    density: np.ndarray
    boundary_values: np.ndarray
    _ops: BoundaryOperators

    @property
    def charges(self) -> np.ndarray:
        return self.density * self.mesh.w

    @property
    def data_residual(self) -> float:
        """Max-norm residual of the discrete normal-derivative equation."""
        return float(np.abs(self._ops.A @ self.density - self.data).max())

    def gradient(self, points) -> np.ndarray:
        return log_gradient_sum(points, self.mesh.x, self.charges)

    def boundary_trace(self) -> np.ndarray:
        """Fluid-side gradient on the boundary: tangential part from the
        spectral derivative of the values, normal part from the data."""
        dt = self._ops.arc_derivative(self.boundary_values)
        return dt[:, None] * self.mesh.tau + self.data[:, None] * self.mesh.normal


def solve_exterior_neumann(ops: BoundaryOperators, data) -> tuple:
    """One NeumannSolution per row of ``data`` (k, n), from one LU solve;
    every row must pass the compatibility check."""
    g = np.atleast_2d(np.asarray(data, dtype=float))
    ops.check_compatible(g)
    density = np.linalg.solve(ops.A, g.T).T
    return tuple(NeumannSolution(mesh=ops.mesh, data=gi, density=sigma,
                                 boundary_values=ops.V @ sigma, _ops=ops)
                 for gi, sigma in zip(g, np.ascontiguousarray(density)))


@dataclass(frozen=True)
class HarmonicField:
    """The unit-circulation, zero-flux harmonic velocity field.

    Built as perp-grad of a stream function (1/2pi) ln|x - x0| + S sigma + c
    vanishing on the boundary: circulation one comes from the unit log
    coefficient, tangency from the boundary condition.
    """

    mesh: BoundaryMesh
    pole: np.ndarray          # interior point carrying the log
    density: np.ndarray
    constant: float
    _ops: BoundaryOperators

    @property
    def charges(self) -> np.ndarray:
        return self.density * self.mesh.w

    def velocity(self, points) -> np.ndarray:
        return (point_vortex(points, self.pole)
                + perp(log_gradient_sum(points, self.mesh.x, self.charges)))

    def normal_stream_derivative(self) -> np.ndarray:
        d = self.mesh.x - self.pole
        r2 = (d ** 2).sum(axis=1)
        base = (self.mesh.normal * d).sum(axis=1) / (TWO_PI * r2)
        return base + self._ops.A @ self.density

    def boundary_trace(self) -> np.ndarray:
        """On the boundary the stream vanishes, so the field is tangent:
        H = -(d_n stream) tau."""
        return -self.normal_stream_derivative()[:, None] * self.mesh.tau


def harmonic_field(ops: BoundaryOperators) -> HarmonicField:
    mesh = ops.mesh
    pole = mesh.interior_point
    d = mesh.x - pole
    f = -(0.25 / np.pi) * np.log((d ** 2).sum(axis=1))
    sol = np.linalg.solve(ops.B, np.append(f, 0.0))
    return HarmonicField(mesh=mesh, pole=pole, density=sol[:-1],
                         constant=float(sol[-1]), _ops=ops)


# ---------------------------------------------------------------------------
# Laurent tails


def laurent_coefficients(solution, k_max: int,
                         radius: float | None = None) -> np.ndarray:
    """Coefficients c_1..c_k_max of the decaying tail sum_k c_k / z^k.

    ``solution`` is a :class:`NeumannSolution` (tail of the hatted
    gradient) or a :class:`HarmonicField` (tail of the hatted velocity).
    The extraction contour is |z| = radius (default three body
    circumradii), sampled at 256 points and integrated by the periodic
    trapezoid, spectral for fields holomorphic outside the body.
    """
    mesh = solution.mesh
    if radius is None:
        radius = 3.0 * mesh.circumradius
    if radius <= mesh.circumradius:
        raise ValueError("extraction circle intersects the body")
    if isinstance(solution, HarmonicField):
        fhat = lambda p: hat_field(solution.velocity(p))
    else:
        fhat = lambda p: hat_field(solution.gradient(p))
    n = 256
    theta = np.arange(n) * (TWO_PI / n)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    vals = np.asarray(fhat(pts), dtype=complex)
    # c_k = (1/2pi) int fhat(R e^{i t}) R^k e^{i k t} dt
    ks = np.arange(1, k_max + 1)
    phases = np.exp(1j * np.outer(ks, theta))
    return (radius ** ks) * (phases @ vals) / n


# ---------------------------------------------------------------------------
# the bundled potential set


@dataclass(frozen=True)
class PotentialSet:
    """All unit-scale boundary solves for one shape, plus derived constants.

    ``mass`` is the 5x5 Gram matrix of the Kirchhoff potentials (indices
    1..5 mapped to 0..4), computed from the Green-identity boundary form;
    ``xi`` (the conformal center) and ``eta`` are the first two complex
    contour moments of the harmonic field as real 2-vectors (re, im).
    """

    mesh: BoundaryMesh
    ops: BoundaryOperators
    phi: tuple                      # five NeumannSolution objects
    H: HarmonicField
    mass: np.ndarray                # (5, 5)
    mass_defect: float              # max |m_ij - m_ji| before symmetrization
    xi: np.ndarray                  # (2,)
    eta: np.ndarray                 # (2,)


def build_potential_set(mesh: BoundaryMesh) -> PotentialSet:
    """Solve the five exterior Neumann problems and the harmonic field."""
    ops = BoundaryOperators(mesh)
    phi = solve_exterior_neumann(
        ops, np.stack([mesh.neumann_data(i) for i in range(1, 6)]))
    H = harmonic_field(ops)

    raw = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            raw[i, j] = np.sum(phi[i].boundary_values
                               * mesh.neumann_data(j + 1) * mesh.w)
    mass_defect = float(np.abs(raw - raw.T).max())
    mass = 0.5 * (raw + raw.T)

    h_hat = hat_field(H.boundary_trace())
    h_mom = np.array([contour_integral(mesh, h_hat, w) for w in ("z", "z2")])
    xi, eta = np.stack([h_mom.real, h_mom.imag], axis=-1)

    return PotentialSet(mesh=mesh, ops=ops, phi=phi, H=H, mass=mass,
                        mass_defect=mass_defect, xi=xi, eta=eta)


# ---------------------------------------------------------------------------
# complex moment quadratures and their closed forms


def moment_integrals(solution) -> dict:
    """Contour quadratures of z, zbar, |z|^2 and z^2 against the solution's
    hatted boundary field (gradient trace, or velocity trace for the
    harmonic field)."""
    fhat = hat_field(solution.boundary_trace())
    return {w: contour_integral(solution.mesh, fhat, w)
            for w in ("z", "zbar", "abs2", "z2")}


def moment_closed_forms(pset: PotentialSet, i: int) -> dict:
    """Divergence-theorem values of the same four quadratures.

    Every entry combines tangential integration by parts (producing mass
    entries m_ij) with the rigid-datum moment table (producing area and
    centroid terms); see the identity suite for the latter.
    """
    m = pset.mass
    mom = pset.mesh.moments
    area, (g1, g2) = mom.area, mom.centroid
    m_diff, m_cross, m_polar = mom.m_diff, mom.m_cross, mom.m_polar

    def mm(a, b):
        return m[a - 1, b - 1]

    if i in (1, 2):
        z = complex(-mm(i, 2) - (area if i == 2 else 0.0),
                    mm(i, 1) + (area if i == 1 else 0.0))
        zbar = complex(-mm(i, 2) + (area if i == 2 else 0.0),
                       -mm(i, 1) + (area if i == 1 else 0.0))
        abs2 = complex(-2 * mm(i, 3), 2 * area * (g1 if i == 1 else g2))
        if i == 1:
            z2 = complex(-2 * (mm(1, 5) + area * g2), 2 * (-mm(1, 4) + area * g1))
        else:
            z2 = complex(-2 * (mm(2, 5) + area * g1), -2 * (mm(2, 4) + area * g2))
    elif i == 3:
        z = complex(-(mm(3, 2) + area * g1), mm(3, 1) - area * g2)
        zbar = complex(-mm(3, 2) + area * g1, -(mm(3, 1) + area * g2))
        abs2 = complex(-2 * mm(3, 3), 0.0)
        z2 = complex(-2 * (mm(3, 5) + m_diff), -2 * (mm(3, 4) + m_cross))
    elif i == 4:
        z = complex(-(mm(4, 2) + area * g2), mm(4, 1) - area * g1)
        zbar = complex(-mm(4, 2) + area * g2, -(mm(4, 1) + area * g1))
        abs2 = complex(-2 * mm(4, 3), -2 * m_diff)
        z2 = complex(-2 * mm(4, 5), -2 * (mm(4, 4) + m_polar))
    elif i == 5:
        z = complex(-(mm(5, 2) + area * g1), mm(5, 1) + area * g2)
        zbar = complex(-mm(5, 2) + area * g1, -mm(5, 1) + area * g2)
        abs2 = complex(-2 * mm(5, 3), 2 * m_cross)
        z2 = complex(-2 * (mm(5, 5) + m_polar), -2 * mm(5, 4))
    else:
        raise ValueError("potential index must be 1..5")
    return {"z": z, "zbar": zbar, "abs2": abs2, "z2": z2}


def field_identity_rows(pset: PotentialSet) -> list:
    """Identity rows tying the solved fields to their closed forms: the
    four contour moments of each Kirchhoff gradient against the mass and
    geometric data, plus the conjugation/reality constraints on the
    harmonic-field moments.  Complements the pure-geometry suite."""
    rows = []
    for i in range(1, 6):
        quad = moment_integrals(pset.phi[i - 1])
        closed = moment_closed_forms(pset, i)
        # grad phi_i scales as size^0 (translation) or size^1, the
        # weight times dz as size^2 (z, zbar) or size^3 (|z|^2, z^2)
        for w, power in (("z", 2), ("zbar", 2), ("abs2", 3), ("z2", 3)):
            rows.append(IdentityRow(f"phi{i} moment {w}", quad[w], closed[w],
                                    power + (i >= 3)))
    h_hat = hat_field(pset.H.boundary_trace())  # scales as 1/size
    z_mom = contour_integral(pset.mesh, h_hat, "z")
    zbar_mom = contour_integral(pset.mesh, h_hat, "zbar")
    abs2_mom = contour_integral(pset.mesh, h_hat, "abs2")
    rows.append(IdentityRow("H conj(zbar mom) = z mom", np.conj(zbar_mom),
                            z_mom, 1))
    rows.append(IdentityRow("H Re(i |z|^2 mom) = 0", (1j * abs2_mom).real,
                            0.0, 2))
    # shape-independent residue of the squared harmonic field
    rows.append(IdentityRow("z (H hat)^2 moment",
                            contour_integral(pset.mesh, h_hat ** 2, "z"),
                            -0.5j / np.pi))
    return rows


# ---------------------------------------------------------------------------
# the inertia bundle


@dataclass(frozen=True)
class MassData:
    """Inertia bundle for one shape: boundary-derived mass coefficients,
    the genuine-mass inputs, and the scale/regime assembly rules.

    ``mass`` holds the unit-scale coefficients; entries pick up
    eps^(2 + [i>=3] + [j>=3]) at scale eps.  ``m1`` and ``J1`` are the
    unit-scale body mass and moment of inertia (inputs, not derived from
    the fluid), entering at eps^alpha and eps^(alpha+2).
    """

    mass: np.ndarray            # (5, 5) symmetric
    m1: float
    J1: float
    xi: np.ndarray              # (2,)
    eta: np.ndarray             # (2,)

    @property
    def added_3x3(self) -> np.ndarray:
        return self.mass[:3, :3]

    @property
    def added_2x2(self) -> np.ndarray:
        return self.mass[:2, :2]

    @property
    def genuine(self) -> np.ndarray:
        return np.diag([self.m1, self.m1, self.J1])

    @property
    def mu(self) -> np.ndarray:
        m = self.mass
        return np.array([m[0, 2], m[1, 2], 0.0])

    def total_mass(self, eps: float, alpha: float) -> np.ndarray:
        """eps^alpha I M_g I + eps^2 I M_a I with I = diag(1, 1, eps)."""
        I = np.diag([1.0, 1.0, eps])
        return (eps ** alpha * I @ self.genuine @ I
                + eps ** 2 * I @ self.added_3x3 @ I)


def build_mass_data(pset: PotentialSet, m1: float = 1.0,
                    J1: float = 1.0) -> MassData:
    return MassData(mass=pset.mass, m1=float(m1), J1=float(J1),
                    xi=pset.xi, eta=pset.eta)


# ---------------------------------------------------------------------------
# scaling laws


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScaledPotentials:
    """Exact eps-scalings of a unit-shape potential set.

    grad phi_i at scale eps is eps^0 (i = 1, 2) or eps^1 (i = 3, 4, 5)
    times the unit gradient at x/eps; H scales like 1/eps, its stream
    like eps^0; mass entries pick up eps^(2 + [i>=3] + [j>=3]).

    The boundary data every coupled stage reads (the traces and the rigid
    normal data) are computed once per scale and returned read-only.
    """

    base: PotentialSet
    eps: float

    @cached_property
    def rigid_normal_data(self) -> np.ndarray:
        """K: the normal data (3, n) of the three rigid motions on the
        scaled body, nodes aligned with the unit mesh."""
        mesh = self.base.mesh
        return _read_only(np.stack([mesh.neumann_data(1), mesh.neumann_data(2),
                                    self.eps * mesh.neumann_data(3)]))

    @cached_property
    def phi_traces(self) -> tuple[np.ndarray, ...]:
        """The five scaled potentials' boundary traces, indexed like base.phi."""
        return tuple(_read_only((self.eps if i >= 3 else 1.0)
                                * phi.boundary_trace())
                     for i, phi in enumerate(self.base.phi, start=1))

    @cached_property
    def h_trace(self) -> np.ndarray:
        """The boundary trace of the scaled harmonic field."""
        return _read_only(self.base.H.boundary_trace() / self.eps)

    @property
    def mass(self) -> np.ndarray:
        p = np.array([0, 0, 1, 1, 1])
        return (self.base.mass
                * self.eps ** (2 + p[:, None] + p[None, :]))

    @property
    def area(self) -> float:
        return self.base.mesh.moments.area * self.eps ** 2

    @property
    def centroid(self) -> np.ndarray:
        return self.base.mesh.moments.centroid * self.eps

    @property
    def m_diff(self) -> float:
        return self.base.mesh.moments.m_diff * self.eps ** 4

    @property
    def m_cross(self) -> float:
        return self.base.mesh.moments.m_cross * self.eps ** 4
