"""Exception types shared across the package."""


class MonoPGCError(Exception):
    """Base class for all package errors."""


class DimensionError(MonoPGCError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DomainError(MonoPGCError, ValueError):
    """A numeric argument is outside its valid domain."""


class ConfigError(MonoPGCError, ValueError):
    """Invalid or inconsistent run configuration."""


class CalibrationError(MonoPGCError, ValueError):
    """Camera calibration is singular or badly conditioned."""


class ParseError(MonoPGCError, ValueError):
    """Malformed label / calibration text input."""


class FormatError(MonoPGCError, ValueError):
    """Malformed binary input (image codec, checkpoint container)."""


class GenerationError(MonoPGCError, RuntimeError):
    """Synthetic scene generation could not satisfy its constraints."""


class EvaluationError(MonoPGCError, RuntimeError):
    """A value required by an evaluation is non-finite or unusable."""


class HelperError(MonoPGCError, RuntimeError):
    """A forked training or inference helper ended without delivering its share's results."""
