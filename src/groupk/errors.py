"""Exception types shared across the package."""


class GroupKError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(GroupKError):
    """A multiplication table fails one of the group axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TooLarge(GroupKError):
    """An input exceeds a configured size guard."""


class NotAPrimePower(GroupKError):
    """An integer is not of the form p^e with p prime."""


class NotSemisimple(GroupKError):
    """The group algebra is not semisimple (characteristic divides the order)."""


class NotAbelian(GroupKError):
    """An operation requiring an abelian group was given a nonabelian one."""


class NotAComplex(GroupKError):
    """Two boundary maps do not compose to zero."""


class InsufficientDegrees(GroupKError):
    """A homology sequence does not extend far enough for the request."""


class ParseError(GroupKError):
    """A textual spec could not be parsed."""

    def __init__(self, message, position=None, expected=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
        self.expected = expected or []
