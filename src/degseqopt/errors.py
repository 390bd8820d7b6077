"""Exception hierarchy shared by all modules."""

__all__ = [
    "DegSeqOptError",
    "InvalidSequence",
    "NotGraphic",
    "NotForestSequence",
    "PreconditionViolated",
    "TooLarge",
    "Infeasible",
    "NotConnected",
    "InvalidWitness",
]


class DegSeqOptError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSequence(DegSeqOptError):
    """Raw input cannot be turned into a degree sequence (empty, negative, ...)."""


class NotGraphic(DegSeqOptError):
    """The sequence admits no simple-graph realization."""


class NotForestSequence(DegSeqOptError):
    """The sequence admits no forest realization."""


class PreconditionViolated(DegSeqOptError):
    """An operation was called outside its stated domain."""


class TooLarge(DegSeqOptError):
    """Instance exceeds a configured solver or oracle limit."""


class Infeasible(DegSeqOptError):
    """No bipartite graph satisfies the requested degree bounds."""


class NotConnected(DegSeqOptError):
    """Operation requires a connected graph."""


class InvalidWitness(DegSeqOptError):
    """A constructed witness failed its own validation; indicates a bug."""
