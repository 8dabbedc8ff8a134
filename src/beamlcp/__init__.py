"""beamlcp: solvers and certification tools for two-sided contact LCPs.

A beam (or any linearly elastic structure) held between two rigid walls by
stabilizers gives a linear complementarity problem with the block structure
M = [[K, -K], [-K, K]].  This package provides the general complementary
pivoting solver, a structure-exploiting exact active-set solver, a sequential
solver for coupled cascades of such problems, a brute-force enumeration
oracle for certification, a beam-specific model builder, and a CLI.
"""

from .beam import BeamConfig, PointLoad, Stabilizer, flexibility_matrix, influence, load_vector, to_contact_lcp
from .cascade import (
    CascadeBlock,
    CascadeProblem,
    CascadeStage,
    as_lcp_solution,
    assemble_full,
    cascade_stages,
    solve_cascade,
)
from .contact import (
    ContactLcp,
    ContactSolution,
    PgsOptions,
    assemble,
    feasible_point,
    force_complementarity,
    gaps,
    solve_structured,
    split_signed,
)
from .dense import CholeskyFactor, as_matrix, as_vector, matvec, spd_factor, spd_solve
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DuplicatePositions,
    InvariantViolation,
    LcpError,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalBreakdown,
    OutOfDomain,
    PivotLimitExceeded,
    RayTermination,
    SchemaError,
)
from .lcp import LcpProblem, LcpSolution, ValidationReport, assemble_w, validate
from .lemke import lemke_solve
from .oracle import (
    CertifyResult,
    EnumerationResult,
    SingularSupport,
    Verdict,
    certify_unique,
    enumerate_solutions,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dense
    "as_matrix", "as_vector", "CholeskyFactor", "spd_factor", "spd_solve", "matvec",
    # lcp
    "LcpProblem", "LcpSolution", "ValidationReport", "assemble_w", "validate",
    # lemke
    "lemke_solve",
    # contact
    "ContactLcp", "ContactSolution", "PgsOptions", "assemble", "feasible_point",
    "gaps", "split_signed", "solve_structured", "force_complementarity",
    # cascade
    "CascadeBlock", "CascadeProblem", "CascadeStage", "cascade_stages",
    "solve_cascade", "assemble_full", "as_lcp_solution",
    # oracle
    "EnumerationResult", "SingularSupport", "Verdict", "CertifyResult",
    "enumerate_solutions", "certify_unique",
    # beam
    "BeamConfig", "Stabilizer", "PointLoad", "influence", "flexibility_matrix",
    "load_vector", "to_contact_lcp",
    # errors
    "LcpError", "DimensionMismatch", "NotSymmetric", "NotPositiveDefinite",
    "RayTermination", "PivotLimitExceeded", "NumericalBreakdown",
    "MaxIterationsExceeded", "InvariantViolation", "DimensionTooLarge",
    "OutOfDomain", "DuplicatePositions", "SchemaError",
]
