"""Typed exceptions raised by the toolkit.

Numerical failures raise one of these instead of propagating NaNs, so
callers can distinguish bad inputs from genuine infeasibility.
"""


class GWealthError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(GWealthError, ValueError):
    """A configuration or model parameter violates its invariants."""


class ConfigError(GWealthError, ValueError):
    """A config file is malformed, has unknown keys, or fails validation."""


class ShapeError(GWealthError, ValueError):
    """Array arguments have inconsistent dimensions."""


class EstimationError(GWealthError, ValueError):
    """Not enough data to estimate the requested quantity."""


class InfeasibleError(GWealthError, RuntimeError):
    """A matrix that must be positive definite is not (names the step)."""


class UndefinedSharpeError(GWealthError, ValueError):
    """Sharpe ratio is undefined because the return variance is zero."""


class GradientError(GWealthError, RuntimeError):
    """The likelihood or its gradient came out non-finite."""
