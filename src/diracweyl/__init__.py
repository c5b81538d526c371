"""Weyl-Titchmarsh theory for matrix-valued Dirac-type operators
J d/dx - B(x): half-line and whole-line M-functions, Weyl disks, Riccati
flows, high-energy expansions, Green's matrices, trace formulas, Floquet
band structure, and gauge normal forms.
"""

from . import errors
from .asymptotics import (
    DerivativeSamples,
    ExpansionCoefficients,
    derivative_samples,
    expansion_coefficients,
    fit_expansion,
    fullline_first_coeff,
)
from .foundation import (
    ALG_TOL,
    BoundaryData,
    ConstantPiece,
    GridPiece,
    PotentialSpec,
    alpha_dirichlet,
    alpha_neumann,
    check_normal_form,
    herm_defect,
    jmat,
    load_potential,
    matnorm,
    normal_form_matrix,
    potential_from_dict,
    potential_to_dict,
    save_potential,
    sigma,
    truncate_potential,
    validate_boundary_data,
)
from .fullline import (
    FullLineM,
    GreensEvaluator,
    GreensMatrix,
    UpsilonSample,
    fullline_m,
    greens_matrix,
    principal_logm,
    upsilon,
)
from .gauge import GaugeFactors, gauge_factors, gauge_with_omega, normal_form
from .propagator import (
    FundamentalSystem,
    Propagator,
    WeylSolution,
    fundamental_system,
    symplectic_defect,
    system_matrix,
    weyl_solution_volterra,
)
from .riccati import (
    CayleyTrajectory,
    RiccatiTrajectory,
    cayley,
    cayley_inverse,
    integrate_cayley,
    integrate_riccati,
    riccati_rhs,
)
from .spectral import (
    BandStructure,
    BorgReport,
    DecayFit,
    Monodromy,
    ReflectionlessReport,
    TraceCheck,
    band_spectrum,
    borg_diagnostic,
    monodromy,
    reflectionless_check,
    trace_check,
    uniqueness_decay,
)
from .weyldisk import (
    HalfLineM,
    WeylPoint,
    disk_membership,
    e_c,
    halfline_m,
    lft_boundary_change,
    regular_m,
)

__version__ = "0.1.0"
