"""Exception hierarchy shared by all sensbn modules.

Each class maps to one CLI exit code (see cli.EXIT_CODES); keeping them
distinct lets callers tell a malformed file from an impossible query.
"""


class SensBnError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SensBnError):
    """A network or tree file could not be read or parsed."""

    def __init__(self, message, path=None, line=None):
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)
        self.path = path
        self.line = line


class NetworkValidationError(SensBnError):
    """A belief network violates its structural invariants."""


class ConsistencyError(SensBnError):
    """The two directed factors stored on a tree edge disagree, or are no
    sensitivity: a conditional table they rebuild leaves [0, 1]."""


class UnknownLabelError(SensBnError):
    """A node label does not exist in the network or tree."""


class PrunedStateError(SensBnError):
    """An assignment maps to a state that was discarded at compile time."""


class ZeroMassError(SensBnError):
    """A restriction or instantiation leaves no probability mass."""


class ZeroEvidenceError(SensBnError):
    """The requested evidence set has probability zero."""


class SingularWeightError(SensBnError):
    """A diagonal weight inverse was requested with a zero entry."""


class DimensionMismatchError(SensBnError):
    """Matrix or vector shapes do not line up."""


class RangeError(SensBnError):
    """A reconstructed probability fell outside [0, 1] beyond tolerance."""


class SizeLimitError(SensBnError):
    """A brute-force enumeration would exceed the desk-scale guard."""


class ApproxPreconditionError(SensBnError):
    """A decay profile does not hold on the given tree."""
