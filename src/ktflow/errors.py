"""Exception taxonomy shared across the package.

Everything derives from KTError so callers can catch library failures
without swallowing programming errors.
"""


class KTError(Exception):
    """Base class for all library errors."""


class GridError(KTError):
    """Invalid grid resolution or mismatched grids in one computation."""


class DegreeError(KTError):
    """Form-degree bookkeeping violation (overflow, bad contraction, ...)."""


class NonFiniteFieldError(KTError):
    """A coefficient field contains NaN or Inf."""


class NonBasicFormError(KTError):
    """A vertical contraction of a supposedly basic form is not negligible."""


class PositivityError(KTError):
    """A metric state left the positive cone."""


class DegenerateTransverseError(KTError):
    """The transverse area coefficient fell below the degeneracy threshold."""


class ConfigError(KTError):
    """Malformed or out-of-range experiment configuration."""


class StepRejected(KTError):
    """A time step was rejected (positivity loss); carries margin and time."""

    def __init__(self, message, margin=None, t=None):
        super().__init__(message)
        self.margin = margin
        self.t = t


class NumericalAbort(KTError):
    """Non-finite values appeared during integration; the run is aborted."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
