"""optdesign: optimal experimental designs for two-parameter regression models.

Designs are discrete probability measures on an interval; criteria are scalar
functions of the 2x2 information matrix (D, R, squared correlation, c, SA,
condition number, compound D/R).  The package provides closed-form optima for
simple linear regression, a locally optimal treatment of the Michaelis-Menten
model, a grid-plus-refinement numeric optimizer with equivalence-theorem
certificates, and Pareto/compound multi-objective tooling, all behind a CLI.
"""

from .designs import (
    Design,
    DesignSpace,
    InfoMatrix,
    Model,
    design_from_json,
    design_to_json,
    fim,
    make_design,
    slr_model,
)
from .criteria import (
    CriterionSpec,
    DerivativeReport,
    correlation,
    criterion_value,
    derivative_report,
    directional_derivative,
    efficiency,
    phi_c,
    phi_compound,
    phi_d,
    phi_em,
    phi_r,
    phi_r2,
    phi_sa,
)
from .errors import (
    DegenerateDesignError,
    OptDesignError,
    OptimizationError,
    SingularDesignError,
    ValidationError,
)
from .mm import MMParams, mm_d_optimal, mm_model, mm_regressor
from .optimize import (
    MMTables,
    OptimizeResult,
    c_optimal,
    mm_designs_csv,
    mm_efficiencies_csv,
    mm_tables,
    optimize_design,
    optimize_weights,
    sa_references,
)
from .pareto import (
    FrontPoint,
    compound_sweep,
    criterion_sweep,
    pareto_front,
    sample_two_point_designs,
    sampled_front,
)
from .slr import (
    SlrInterval,
    SlrSummary,
    d_optimal_slr,
    r2_optimal_slr,
    r_optimal_slr,
    summarize,
    table_slr,
    table_slr_csv,
)

__version__ = "0.1.0"
