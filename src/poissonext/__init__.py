"""Poisson-type extension operators on the unit ball, the weighted
isoperimetric functional, and a subcritical variational solver for the
associated boundary integral equation."""

from .params import ProblemParams
from .geometry import conformal_weight, mobius_f, mobius_f_inverse, stereographic
from .kernels import (
    ball_prefactor,
    kernel_ball,
    kernel_ball_sphere_mass,
    kernel_halfspace,
    normalization_constant,
)
from .quadrature import (
    BallQuadrature,
    SphereQuadrature,
    ball_volume,
    build_ball_quadrature,
    build_sphere_quadrature,
    integrate_ball,
    integrate_boundary,
    surface_area,
)
from .halfspace import HalfspaceGrid, build_halfspace_grid
from .operators import (
    BoundaryFunction,
    ExtensionOperator,
    build_extension_operator,
    conformal_pullback_check,
    extend_at_points,
    extend_halfspace,
    interpolate_boundary,
    weighted_harmonic_residual,
)
from .functionals import (
    WeightFunction,
    boundary_norm,
    bulk_norm,
    existence_condition,
    lambda_threshold,
    richardson_estimate,
    sharp_constant,
)
from .solver import (
    ContinuationReport,
    SolverState,
    SubcriticalProblem,
    continuation,
    default_schedule,
    el_residual,
    fixed_point_step,
    maximize_subcritical,
)
from .diagnostics import (
    BubbleParams,
    RescaleParams,
    blow_up_rescale,
    bubble,
    bubble_extension_halfspace,
    concentration_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
