"""Exception hierarchy shared by all pdm_dirac modules.

Parameter problems (rejected inputs) derive from :class:`ParameterError`,
which is also a ``ValueError`` so call sites can keep idiomatic handling.
Failures raised while evaluating an otherwise valid request derive from
:class:`EvaluationError`.
"""


class PdmDiracError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(PdmDiracError, ValueError):
    """Invalid input parameters; nothing was evaluated."""


class NonFinite(ParameterError):
    """A parameter is NaN or infinite."""


class NonPositiveMass(ParameterError):
    """Asymptotic mass scale M0 must be strictly positive."""


class EtaOutOfRange(ParameterError):
    """Step depth eta must satisfy |eta| <= 1."""


class NonPositiveAlpha(ParameterError):
    """Step steepness alpha must be strictly positive."""


class NegativeLambda(ParameterError):
    """Dimensionless steepness lambda must satisfy lambda >= 0."""


class ConfigKeyError(ParameterError):
    """JSON config document has unknown or inconsistent keys."""


class EvaluationError(PdmDiracError):
    """A valid request hit a mathematically degenerate or unsupported case."""


# --- closed-form spectrum -------------------------------------------------

class LambdaZero(EvaluationError):
    """Level shift diverges in the abrupt-step limit lambda -> 0."""


class EtaZeroDegenerate(EvaluationError):
    """eta = 0 is the constant-mass (Hermitian) limit; level formulas degenerate."""


class DegenerateMass(EvaluationError):
    """Mass profile underflowed to zero; vector potential is undefined there."""


# --- feasibility ----------------------------------------------------------

class EtaZeroSingular(EvaluationError):
    """Feasibility function is 0/0 at eta = 0 with lambda > 0."""


class BothZero(EvaluationError):
    """Feasibility function is undefined at eta = lambda = 0."""


class InvalidBox(EvaluationError):
    """Scan box is malformed or outside the admissible parameter region."""


class EmptyBox(EvaluationError):
    """Scan box contains no grid nodes."""


class BoxIncludesEtaZero(EvaluationError):
    """Every eta gridline of the scan box collapses onto the excluded eta = 0 line."""


class CertificateViolation(EvaluationError):
    """A float evaluation contradicts the certified sign or the two f routes disagree."""


# --- finite-difference solver ----------------------------------------------

class GridTooCoarse(EvaluationError):
    """Grid spacing cannot resolve the mass step (h * alpha too large)."""


class DomainTooSmall(EvaluationError):
    """Box half-width does not contain the step region (alpha * L too small)."""


__all__ = [name for name, value in globals().items()
           if isinstance(value, type) and issubclass(value, PdmDiracError)]
