"""Exception types shared across the package, each with the exit code `cli.main` gives it."""


class MonoPGCError(Exception):
    """Base class for all package errors: configuration, usage or input."""

    exit_code = 2


class DimensionError(MonoPGCError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DomainError(MonoPGCError, ValueError):
    """A numeric argument is outside its valid domain."""


class ConfigError(MonoPGCError, ValueError):
    """Invalid or inconsistent run configuration, or a missing or unreadable input."""


class CalibrationError(MonoPGCError, ValueError):
    """Camera calibration is singular or badly conditioned."""


class ParseError(MonoPGCError, ValueError):
    """Malformed text input: labels, calibration, or text that is not UTF-8."""


class FormatError(MonoPGCError, ValueError):
    """Malformed binary input (image codec, checkpoint container)."""


class GenerationError(MonoPGCError, RuntimeError):
    """Synthetic scene generation could not satisfy its constraints."""


class EvaluationError(MonoPGCError, RuntimeError):
    """A value an evaluation needs is unusable, or evaluation stems do not match."""

    exit_code = 1


class TrainingAborted(MonoPGCError, RuntimeError):
    """A non-finite loss stopped training; `diagnostics` describes the step."""

    exit_code = 3

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class HelperError(MonoPGCError, RuntimeError):
    """A forked training or inference helper ended without delivering its share's results."""

    exit_code = 4
