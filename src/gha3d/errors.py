"""Exception types shared across the package."""


class GhaError(Exception):
    """Base class for all gha3d errors."""


class InvalidInputError(GhaError, ValueError):
    """An argument violates a documented precondition."""


class InvalidCoarsenError(InvalidInputError):
    """A level cannot be coarsened further."""


class ConfigError(GhaError, ValueError):
    """A configuration combination is unsupported."""


class CapacityError(GhaError):
    """A request exceeds a size the package holds: an N x N analysis result
    above its token cap, or a sparse map of 2^31 or more entries or tokens."""


class InvariantViolation(GhaError):
    """A runtime check of a guaranteed property failed."""


class FormatError(GhaError):
    """A file does not conform to one of the supported on-disk formats."""


class UnsupportedVersionError(FormatError):
    """A parameter file declares a version this build cannot read."""
