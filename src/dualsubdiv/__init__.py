"""Exact construction and analysis of dual interpolatory subdivision schemes
of arbitrary arity."""

from .analyze import (
    GridOverflow,
    NoContractivePoint,
    Polyline,
    RegularityReport,
    SeedInconsistent,
    contractivity_bound,
    contractivity_profile,
    contractivity_range,
    lattice_window,
    refine_values,
    reproduction_degree,
    subdivide_curve,
    subdivide_points,
)
from .charax import (
    ArityTwoUnsupported,
    IdentityResidual,
    ShiftLatticeMismatch,
    ShiftMismatch,
    verify_dual_interpolatory,
    verify_lemma_form,
    verify_refinability,
)
from .construct import (
    AssembledSystem,
    ConstructionProblem,
    InfeasibleProblem,
    InvalidWindow,
    SolutionFamily,
    assemble,
    derive,
    smoothing_coeffs,
)
from .exactalg import (
    InfeasibleSystem,
    LaurentPoly,
    LinearSolution,
    RatMatrix,
    rat,
    rref_solve,
)
from .samples import SampleSet, dd_samples, mix_samples, phi_poly, samples_from_shorthand
from .scheme import (
    Mask,
    NotDivisible,
    factor_smoothing,
    limit_support,
    shift_parameter,
    support_interval,
    symbol,
)

__version__ = "0.1.0"
