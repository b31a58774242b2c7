"""Exception types shared across the package."""


class CmtomoError(Exception):
    """Base class for all cmtomo errors."""


class ConfigError(CmtomoError):
    """Invalid experiment configuration (CLI exit code 2)."""


class NumericalError(CmtomoError):
    """A numerical procedure failed its accuracy contract (CLI exit code 3)."""


class ConvergenceError(NumericalError):
    """Iterative root finding or series truncation did not converge."""


class CalibrationError(NumericalError):
    """The tomogram-amplitude oracle failed its self-calibration checks."""


class GridSizeError(NumericalError):
    """A requested grid exceeds the configured maximum size or underflows."""
