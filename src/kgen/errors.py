"""Shared control-flow exceptions."""


class GuardExceeded(Exception):
    """A brute-force or enumeration guard was exceeded; carries the scale
    that would be required."""


class PeriodExhausted(Exception):
    """No further value or batch is available from this plan or generator."""


class ConfigError(ValueError):
    """Invalid configuration for a generator or command."""


class FieldError(ConfigError):
    """Invalid field construction or non-canonical operand."""
