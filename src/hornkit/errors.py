"""Exception hierarchy for hornkit."""


class HornkitError(Exception):
    """Base class for all domain errors raised by hornkit."""


class ParseError(HornkitError):
    """Malformed input text: bad header, unknown label, missing arrow."""


class UniverseMismatchError(HornkitError):
    """Two values built over different universes were combined."""


class BoundExceededError(HornkitError):
    """The stem search or quasiclosure refused a ground set larger than
    HORNKIT_MAX_EXHAUSTIVE elements (default 20)."""


class NotAcyclicError(HornkitError):
    """An operation that requires an acyclic operator was given a cyclic one."""


class NotDirectError(HornkitError):
    """A one-pass ordered closure did not reach the true closure."""


class InvariantError(HornkitError):
    """A value was built that breaks its type's structural invariant."""
