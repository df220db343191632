"""The two errors of the ductwave package.

A ConfigError is a configuration, flag or input file the package refuses
before any work (the CLI exits 2). Every other failure is a DuctwaveError
(exit 3) whose message names its physical cause: a state that lost
positivity, a boundary that left the subsonic regime, an oracle outside
its validity, a misaligned window. No caller tells the causes apart, so a
new cause gets a new message, not a new class. A failure at a node names
it, as the suffix "(node N)" and as `.node`; inside the time loop of
`driver.run` any error also names step and t/T0, and the Courant number
of the last good level.
"""


class DuctwaveError(Exception):
    """A failure of the package; node, when given, is the node it names."""

    def __init__(self, message, node=None):
        if node is not None:
            message = f"{message} (node {node})"
        super().__init__(message)
        self.node = node


class ConfigError(DuctwaveError):
    """Configuration document could not be parsed or validated.

    line_no is 1-based when the error is attached to a specific line.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
