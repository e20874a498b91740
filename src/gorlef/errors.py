"""Exception types shared across the package."""


class GorlefError(Exception):
    """Base class for all package-specific errors.

    exit_code is the CLI's exit status for the error: 2 for malformed
    input (the default), 1 for an exhausted search or a failed check,
    3 for an internal bug.
    """

    exit_code = 2


class NonSquareError(GorlefError):
    """Determinant requested for a non-square matrix."""


class RingMismatchError(GorlefError):
    """Operands live in different polynomial rings (S vs R) or sizes."""


class DegreeOutOfRangeError(GorlefError):
    """A degree index falls outside the valid range for the operation."""


class ZeroGeneratorError(GorlefError):
    """The dual generator F is zero; no algebra is defined."""


class NotHomogeneousError(GorlefError):
    """The dual generator F is not a homogeneous form."""


class NotOSequenceError(GorlefError):
    """The given sequence violates a Macaulay growth bound."""


class NotSIError(GorlefError):
    """The given sequence is not an SI-sequence."""


class NoWitnessFoundError(GorlefError):
    """Randomized search exhausted its attempts without a witness.

    One-sided failure: absence of a witness is never proof that the
    property fails.  Carries diagnostics for reporting.
    """

    exit_code = 1

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RealizationMismatchError(GorlefError):
    """A constructed object fails its runtime verification."""

    exit_code = 1


class DuplicateParameterError(GorlefError):
    """Generator parameters must be pairwise distinct."""


class NotPlaneConfigError(GorlefError):
    """The operation requires points in the projective plane."""


class ShapeMismatchError(GorlefError):
    """An h-vector or first-difference does not match the required shape."""

    exit_code = 1


class WorkBudgetError(GorlefError):
    """A request needs a bigger monomial table or elimination than allowed."""


class PreconditionViolatedError(GorlefError):
    """A documented precondition of the operation does not hold."""


class BadSubsetSizeError(GorlefError):
    """An index subset has the wrong cardinality."""


class TheoremTensionError(GorlefError):
    """A computed identity or rank contradicts a theorem instance.

    Either the instance is outside the theorem's hypotheses or there is
    an implementation bug; never swallowed silently.  An exhausted
    witness search is NoWitnessFoundError instead.
    """

    exit_code = 1


class HessianRankMismatchError(GorlefError):
    """Cat^j(ell^(d-2j) o F)[B, B] differs from (d-2j)! Hess^j(F)(P_ell).

    The two routes' matrices are provably equal, so a mismatch always
    indicates an internal bug and is raised loudly, with exit code 3.
    """

    exit_code = 3
