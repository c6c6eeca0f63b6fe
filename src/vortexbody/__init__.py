"""Numerical laboratory for a small rigid body in a 2D perfect fluid.

The package simulates the body-fluid system at finite body size eps in the
body frame, the limiting point-vortex system, and the bookkeeping needed to
compare the two: conservation laws, force expansions in eps, the normal form
of the body equations, and trajectory convergence as eps shrinks.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    BoundaryMesh,
    MomentSet,
    Placement,
    ShapeSpec,
    build_mesh,
    disk,
    ellipse,
    geometric_moments,
    perp,
    perturbed_disk,
    rotation,
)
from .contour import (  # noqa: F401
    IdentityRow,
    contour_integral,
    identity_suite,
)
from .potential import (  # noqa: F401
    HarmonicField,
    MassData,
    PotentialSet,
    ScaledPotentials,
    build_mass_data,
    build_potential_set,
    harmonic_field,
    laurent_coefficients,
    solve_exterior_neumann,
)
from .biotsavart import (  # noqa: F401
    BlobField,
    HydrodynamicField,
    velocity_free_space,
    velocity_gradient,
)
from .limit_system import (  # noqa: F401
    VortexCollisionError,
    VortexWaveState,
    vw_step,
)
from .coupled_system import (  # noqa: F401
    CoupledState,
    TimeStepError,
    VorticityPatch,
    accelerations,
    coupled_step,
    force_B,
    force_C,
    init_coupled,
    total_energy,
)
from .normal_form import (  # noqa: F401
    ModulationData,
    ModulationSeries,
    ResidualSeries,
    apply_lambda,
    boundary_approximation_defect,
    expansion_B,
    expansion_C,
    modulation,
    normal_form_residual,
    rotated_mass_identity_check,
    sample_modulation,
)
from .lab import (  # noqa: F401
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    check,
    compare,
    parse_config,
    run,
)
