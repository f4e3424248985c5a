"""Shared exception types."""


class ContractViolation(ValueError):
    """A caller broke an operation's precondition (shape, range, emptiness)."""


class NumericError(ArithmeticError):
    """A NaN or degenerate value (zero norm, NaN gradient) was produced."""


class ConfigError(ValueError):
    """An invalid configuration value (unknown pooling kind, K < 1, ...)."""


class FormatError(ValueError):
    """A malformed on-disk container (bad magic, version, truncated payload)."""


class WorkerError(RuntimeError):
    """A worker process exited without delivering its result or an error."""
