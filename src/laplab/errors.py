"""Exception types shared across modules.

Two families matter to callers: parameter problems (bad arguments, unusable
configuration) and numerical-consistency problems detected while inverting an
operator.  The CLI maps the first family to exit code 2 and the second to 3.
"""


class LapLabError(Exception):
    """Base class for everything raised deliberately by laplab."""


class InvalidParameterError(LapLabError, ValueError):
    """An argument is outside its documented domain."""


class InvalidDensityError(LapLabError, ValueError):
    """A density is not positive at every node of a rule, or its normalizer is not."""


class NumericalError(LapLabError):
    """Base class for consistency failures found in numerical data."""


class MalformedOperatorError(NumericalError):
    """Matrix fails the structural tests of a Laplace-type operator."""


class UnrecoverableMassError(NumericalError):
    """Kernel graph is disconnected; mass ratios do not propagate everywhere."""


class InsufficientMaskError(NumericalError):
    """A recovery stencil needs distance entries the edge mask does not cover."""


class InconsistencyError(NumericalError):
    """Recovered quantities violate a bound that must hold exactly in theory."""


class ConditioningError(NumericalError):
    """A recovered tensor is not positive definite."""


class NodeMismatchError(LapLabError, ValueError):
    """Two operators do not share nodes/bandwidth and cannot be compared."""
