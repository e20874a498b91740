"""Exact tools for Lefschetz properties of Artinian Gorenstein algebras.

Everything is exact over the rationals: Hilbert function
classification, apolarity and catalecticants, higher Hessians,
Lefschetz certificates, point configurations in projective space, and a
constructive route from any admissible Hilbert function to an algebra
with the strong Lefschetz property.  Ranks and determinants come from
one fraction-free integer elimination.  Stored scalars are ints when
integral, otherwise fractions.Fraction, and det returns a Fraction.
"""

from .errors import (BadSubsetSizeError, DegreeOutOfRangeError,
                     DuplicateParameterError, GorlefError,
                     HessianRankMismatchError, NonSquareError,
                     NoWitnessFoundError, NotHomogeneousError,
                     NotOSequenceError, NotPlaneConfigError, NotSIError,
                     PreconditionViolatedError, RealizationMismatchError,
                     RingMismatchError, ShapeMismatchError,
                     TheoremTensionError, WorkBudgetError,
                     ZeroGeneratorError)
from .hvector import (HVector, binomial_expand, hbar, is_O_sequence,
                      is_SI, is_differentiable, macaulay_bound)
from .apolar import LinearFormS, Poly, RING_R, RING_S, monomials_of_degree
from .linalg import Mat, det, nullspace, pivot_columns, rank
from .gorenstein import (GorensteinAlgebra, SlpCertificate, certify_at,
                         check_slp, check_wlp)
from .points import (OrderIdeal, PointSet, davis_hint, find_subset_on_curve,
                     gen_collinear, gen_distraction, gen_generic, gen_rnc,
                     gen_two_lines, has_collinear_triple, lex_order_ideal)
from .construct import (ConstructionResult, construct_slp_algebra,
                        hess_coefficient_criterion, hilbert_formula_check)
from .theorems import (BlockPair, ConicReport, FamilyReport, PropReport,
                       TailReport, block_det_identity, make_tail_config,
                       verify_conic_slp, verify_corollary_families,
                       verify_prop_s_minus, verify_rnc_slp,
                       verify_tail_nonvanishing)

__version__ = "0.1.0"

__all__ = [
    "BadSubsetSizeError", "BlockPair", "ConicReport", "ConstructionResult",
    "DegreeOutOfRangeError", "DuplicateParameterError", "FamilyReport",
    "GorensteinAlgebra", "GorlefError", "HVector",
    "HessianRankMismatchError", "LinearFormS", "Mat",
    "NonSquareError", "NoWitnessFoundError", "NotHomogeneousError",
    "NotOSequenceError", "NotPlaneConfigError", "NotSIError", "OrderIdeal",
    "PointSet", "Poly",
    "PreconditionViolatedError", "PropReport", "RING_R", "RING_S",
    "RealizationMismatchError", "RingMismatchError", "ShapeMismatchError",
    "SlpCertificate", "TailReport",
    "TheoremTensionError", "WorkBudgetError", "ZeroGeneratorError",
    "binomial_expand",
    "block_det_identity", "certify_at", "check_slp",
    "check_wlp", "construct_slp_algebra",
    "davis_hint", "det", "find_subset_on_curve", "gen_collinear",
    "gen_distraction", "gen_generic", "gen_rnc", "gen_two_lines",
    "has_collinear_triple", "hbar", "hess_coefficient_criterion",
    "hilbert_formula_check", "is_O_sequence", "is_SI",
    "is_differentiable", "lex_order_ideal", "macaulay_bound", "make_tail_config",
    "monomials_of_degree", "nullspace",
    "pivot_columns", "rank", "verify_conic_slp",
    "verify_corollary_families", "verify_prop_s_minus", "verify_rnc_slp",
    "verify_tail_nonvanishing",
]
