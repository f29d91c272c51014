"""Robin-Poisson symmetrization laboratory.

Solves -Delta u = f with Robin boundary conditions on planar domains,
computes rearrangements, Lorentz integrals, and Fraenkel asymmetry, and checks
the quantitative comparison inequalities between a solution and its
symmetrized counterpart on the equal-measure disc.
"""

from .domains import (
    Domain,
    GeometryError,
    build_domain,
    fraenkel_asymmetry,
    parse_domain_spec,
)
from .meshing import Mesh, export_mesh_text, generate_mesh, refine_mesh
from .fem import (
    ScalarField,
    SourceSpec,
    assemble_robin_system,
    constant_source,
    principal_robin_eigenpair,
    solve_poisson,
    solve_robin_poisson,
)
from .rearrange import (
    DecreasingProfile,
    decreasing_rearrangement,
    distribution_function,
)
from .radial import (
    RadialSolution,
    ball_closed_forms,
    bessel_eigen_oracle,
    symmetrized_solution,
)
from .levelset import DistributionFunction
from .verify import (
    ConstantsBundle,
    Ladder,
    TheoremReport,
    check_bossel_daners,
    check_lorentz_2k2,
    check_lorentz_k1,
    check_pointwise,
    check_saint_venant,
    compute_constants,
)
from .config import RunConfig, parse_config
from .runner import emit_reports, run_experiments

__version__ = "0.1.0"
