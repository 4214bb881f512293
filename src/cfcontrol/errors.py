"""Exception types shared across the package."""


class CfcontrolError(Exception):
    """Base class for all package-specific failures."""


class DomainError(CfcontrolError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(CfcontrolError, ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class ConvergenceError(CfcontrolError):
    """An iterative procedure failed to converge.

    ``last_norm`` records the final update norm so callers can report how
    far from convergence the iteration stopped.
    """

    def __init__(self, message, last_norm):
        super().__init__(message)
        self.last_norm = last_norm


class ControllabilityError(CfcontrolError):
    """The discretized system is not exactly null controllable."""


class NullControlFailed(CfcontrolError):
    """A synthesized control missed the final-state tolerance.

    The offending :class:`~cfcontrol.control.NullControlResult` is attached
    as ``result`` so the numbers are never lost.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class InequalityFailed(CfcontrolError):
    """The null-controllability inequality constant fell below its bound."""


class ConfigError(CfcontrolError):
    """A scenario configuration file could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
