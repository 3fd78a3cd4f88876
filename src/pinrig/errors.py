"""Exception and warning types shared across the package."""


class PinrigError(Exception):
    """Base class for all library errors."""


class GraphError(PinrigError):
    """Invalid graph construction or invalid operation parameters."""


class SizeLimitError(PinrigError):
    """Input exceeds the size bound of an exhaustive routine."""


class NotIsostaticError(PinrigError):
    """Operation is only defined for pinned isostatic graphs.

    `dof` and `witness` are those of the pinned game that refused the input
    (`pebble.pinned_game`), or None when no game was played.
    """

    def __init__(self, message, dof=None, witness=None):
        super().__init__(message)
        self.dof = dof
        self.witness = witness


class CertificateError(PinrigError):
    """Certificate is malformed or failed to replay."""


class PinrigWarning(UserWarning):
    """Recoverable input issues, e.g. dropped edges between pinned vertices."""


class ConditioningWarning(UserWarning):
    """Floating-point elimination met pivots close to the zero threshold."""
