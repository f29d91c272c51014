"""Robin-Poisson symmetrization laboratory.

Solves -Delta u = f with Robin boundary conditions on planar domains,
computes rearrangements, Lorentz norms, and Fraenkel asymmetry, and checks
the quantitative comparison inequalities between a solution and its
symmetrized counterpart on the equal-measure disc.
"""

from .domains import (
    Domain,
    GeometryError,
    build_domain,
    fraenkel_asymmetry,
    parse_domain_spec,
    unit_ball_measure,
)
from .meshing import Mesh, export_mesh_text, generate_mesh, import_mesh_text, refine_mesh
from .fem import (
    ScalarField,
    SourceSpec,
    assemble_robin_system,
    constant_source,
    integrate_field,
    principal_robin_eigenpair,
    solve_poisson,
    solve_robin_poisson,
)
from .rearrange import (
    DecreasingProfile,
    DistributionFunction,
    LorentzParams,
    decreasing_rearrangement,
    distribution_function,
    hardy_littlewood_gap,
    lorentz_norm,
    schwarz_value,
)
from .radial import (
    RadialSolution,
    ball_closed_forms,
    bessel_eigen_oracle,
    phi_distribution,
    symmetrized_solution,
)
from .levelset import (
    LevelGrid,
    OdeResidualReport,
    exterior_boundary_integral_inv_u,
    gronwall_bound,
    interior_level_perimeter,
    make_level_grid,
    ode_residuals,
    superlevel_measure_exact,
)
from .verify import (
    ConstantsBundle,
    Ladder,
    TheoremReport,
    check_bossel_daners,
    check_isoperimetric,
    check_lorentz_2k2,
    check_lorentz_k1,
    check_pointwise,
    check_propagation,
    check_saint_venant,
    compute_constants,
)
from .config import RunConfig, parse_config
from .runner import emit_reports, run_experiments

__version__ = "0.1.0"
