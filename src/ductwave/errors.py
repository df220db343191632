"""Exception hierarchy for the ductwave package.

Invalid gas states raise InvalidStateError or a subclass, naming the node;
inside the time loop of `driver.run` any error also names step and t/T0,
and the Courant number of the last good level.
"""


class DuctwaveError(Exception):
    """Base class for all ductwave errors."""


class InvalidStateError(DuctwaveError):
    """A gas state violates positivity of density or internal energy.

    Carries optional node context so the failure can be located.
    """

    def __init__(self, message, node=None):
        if node is not None:
            message = f"{message} (node {node})"
        super().__init__(message)
        self.node = node


class InvalidCharacteristicsError(InvalidStateError):
    """Riemann invariants with r_plus <= r_minus (non-positive sound speed)."""


class BlowUpError(InvalidStateError):
    """A field with a non-positive density or pressure or a non-finite row;
    node is the first such node."""


class UnsupportedRegimeError(DuctwaveError):
    """Boundary state left the subsonic regime the characteristic update assumes."""


class ShockRegimeError(DuctwaveError):
    """Simple-wave oracle evaluated at or beyond the shock-formation distance."""


class OutOfValidityError(DuctwaveError):
    """Wide-tube dispersion correction outside its validity range."""


class MisalignedWindowError(DuctwaveError):
    """Signal window does not cover an integer number of periods."""


class UndefinedReferenceError(DuctwaveError):
    """Relative error requested against a zero-norm reference."""


class SignalRangeError(DuctwaveError):
    """Sampled inflow signal evaluated beyond its tabulated range."""


class ConfigError(DuctwaveError):
    """Configuration document could not be parsed or validated.

    line_no is 1-based when the error is attached to a specific line.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
