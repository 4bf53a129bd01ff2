"""Shared exception types."""


class DimensionError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


class ConfigurationError(ValueError):
    """Raised when a configuration value is structurally invalid."""


class DataError(ValueError):
    """Raised on malformed samples, labels, or serialized artifacts."""


class GenerationError(RuntimeError):
    """Raised when synthetic scene generation cannot satisfy its constraints."""
