"""Exception hierarchy shared across the package.

The CLI maps each class to a distinct exit code, so keep the set small.
"""

__all__ = ["MambaRecError", "ShapeError", "ConfigError", "DataError", "NumericError", "ContractError"]


class MambaRecError(Exception):
    """Base class for everything this package raises deliberately."""


class ShapeError(MambaRecError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(MambaRecError, ValueError):
    """A configuration value is out of its legal range."""


class DataError(MambaRecError, ValueError):
    """Input data could not be parsed or violates the pipeline contract."""


class NumericError(MambaRecError, ArithmeticError):
    """A non-finite value appeared where the computation requires finite ones."""


class ContractError(MambaRecError, RuntimeError):
    """An API was called in a way its contract forbids."""
