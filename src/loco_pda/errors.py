"""Exception hierarchy. Each class maps to one CLI exit code (see cli._ERROR_CODES)."""


class LocoError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LocoError):
    """Operand shapes are inconsistent."""


class LabelError(LocoError):
    """A class label is outside the valid range or missing."""


class StateError(LocoError):
    """An operation was called before its prerequisite (e.g. backward before forward)."""


class NumericError(LocoError):
    """A non-finite value appeared where finite values are required."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss.

    Carries the last parameter snapshot that was still finite, one (weight,
    bias) pair per layer, so callers can recover it.
    """

    def __init__(self, message, checkpoint=None, epoch=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.epoch = epoch


class FormatError(LocoError):
    """A file does not conform to its binary format."""


class TruncationError(FormatError):
    """A file ends before its declared payload does."""


class UnsupportedVersionError(FormatError):
    """A file declares a format version this build does not read."""


class ChecksumError(FormatError):
    """An artifact does not match the checksum recorded in its run manifest."""


class ConfigError(LocoError):
    """A configuration file could not be parsed or validated."""


class MissingInputError(LocoError):
    """A required input artifact does not exist."""
