"""Exception hierarchy for the package.

Errors fall into three groups, mirroring the exit codes of the command
line front end: invalid inputs (exit 1), numerical-accuracy failures
(exit 2), and witnesses that were required but not found (exit 3).
"""


class FisherflowError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(FisherflowError, ValueError):
    """Malformed, inconsistent, or out-of-domain user input."""


class DimensionMismatchError(InvalidInputError):
    """Operands have incompatible shapes or dimensions."""


class InvalidGeneratorError(InvalidInputError):
    """Matrix is not a valid generator (column sums must vanish)."""


class InvalidStochasticMatrixError(InvalidInputError):
    """Matrix is not column stochastic within tolerance."""


class InvalidStateError(InvalidInputError):
    """Vector is not a probability distribution."""


class InvalidTangentError(InvalidInputError):
    """Vector entries do not sum to zero."""


class SingularBaseError(InvalidInputError):
    """Base distribution touches the simplex boundary where the metric diverges."""


class DomainError(InvalidInputError):
    """Parameter outside the domain where the requested quantity exists."""


class ResourceLimitError(InvalidInputError):
    """Requested tensor dimension exceeds the configured limit."""


class UndefinedPosteriorError(InvalidInputError):
    """Reverse transition undefined because an output probability vanishes."""


class ChannelRepresentationError(InvalidInputError):
    """Operator-map representation violates a structural requirement."""


class ScenarioError(InvalidInputError):
    """Scenario file failed to parse or validate."""


class WitnessNotApplicableError(InvalidInputError):
    """Witness construction requested on an input with nothing to witness."""


class NumericalAccuracyError(FisherflowError):
    """A numerical result failed its internal accuracy check."""


class IntegrationAccuracyError(NumericalAccuracyError):
    """Step-size check failed; re-run with more integration steps."""


class NearSingularError(NumericalAccuracyError):
    """Matrix too ill-conditioned to invert reliably."""


class WitnessNotFoundError(FisherflowError):
    """The requested witness does not exist at floating-point resolution."""
