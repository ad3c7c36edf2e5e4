"""Exception hierarchy for the hyperbc library."""


class HyperBCError(Exception):
    """Base class for all hyperbc errors."""


class PreconditionError(HyperBCError):
    """The request was refused: its inputs lie outside what the
    evaluation supports."""


class NumericalError(HyperBCError):
    """An admissible request failed in the numerics."""


class PoleError(PreconditionError):
    """Evaluation requested at (or too close to) a Gamma-function pole."""


class DomainError(PreconditionError):
    """Argument outside the supported evaluation domain."""


class NonConvergence(NumericalError):
    """Series did not meet its tail bound within the iteration cap."""


class DegenerateLambda(PreconditionError):
    """Spectral parameter hits an excluded integer or a coincidence
    that the requested evaluation path cannot handle."""


class ParameterError(PreconditionError):
    """Multiplicity parameters outside the admissible set."""


class ChamberError(PreconditionError):
    """Point not in the open positive chamber t_1 > ... > t_n > 0."""


class HalfPlaneError(PreconditionError):
    """Spectral parameter outside the half-plane Re lambda_i > 0."""


class ZeroDenominator(NumericalError):
    """Normalizing c-function value vanishes within tolerance."""


class SizeError(PreconditionError):
    """Rank n exceeds the supported combinatorial range."""


class SmallDenominator(NumericalError):
    """Genericity margin of the series recursion fails."""


class Overflow(NumericalError):
    """A value left the floating-point range."""


class TailTooLarge(NumericalError):
    """Truncated series tail estimate exceeds the requested tolerance."""


class SingularityTooClose(PreconditionError):
    """Finite-difference stencil would touch a singular hyperplane."""


class StencilBlowup(NumericalError):
    """Nested finite differencing lost too many significant digits."""
