"""Exception types shared across the package, and its one range check.

The CLI maps these onto exit codes by base class: a NumericError (a
numeric failure during training) exits with 3, and every other
OpenSetSSLError (configuration and data problems), like an OSError on a
file it reads or writes, with 2.
"""


class OpenSetSSLError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OpenSetSSLError):
    """Operand or input shapes are incompatible."""


class ConfigError(OpenSetSSLError):
    """A configuration value or validated input is out of contract."""


class ParseError(ConfigError):
    """A config or data file could not be parsed."""


class GenerationError(OpenSetSSLError):
    """Synthetic data generation could not satisfy its constraints."""


class NumericError(OpenSetSSLError):
    """A non-finite value appeared where a finite one is required."""


class MetricError(OpenSetSSLError):
    """A requested metric is undefined for the given inputs."""


def check_at_least(config, bounds) -> None:
    """ConfigError naming the first (name, low) of bounds whose field of
    config is below low. Written so that nan fails it."""
    for name, low in bounds:
        value = getattr(config, name)
        if not value >= low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
