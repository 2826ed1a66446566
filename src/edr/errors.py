"""Exception hierarchy. Every error carries a stable string code for the CLI."""


class EdrError(Exception):
    """Base class; `code` is the machine-readable identifier."""

    code = "EdrError"

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


class DescriptorMismatch(EdrError):
    code = "DescriptorMismatch"


class UnsupportedRing(EdrError):
    code = "UnsupportedRing"


class NotDivisible(EdrError):
    code = "NotDivisible"


class ZeroElement(EdrError):
    code = "ZeroElement"


class ZeroConstantTerm(EdrError):
    code = "ZeroConstantTerm"


class NotCoprime(EdrError):
    code = "NotCoprime"


class NotUnimodular(EdrError):
    code = "NotUnimodular"


class NotPrincipal(EdrError):
    code = "NotPrincipal"


class NotIdempotent(EdrError):
    code = "NotIdempotent"


class NotInIdeal(EdrError):
    code = "NotInIdeal"


class ScaleExceeded(EdrError):
    code = "ScaleExceeded"


class PreconditionFailed(EdrError):
    code = "PreconditionFailed"


class PostconditionFailed(EdrError):
    """A construction produced a result that fails its own exact re-check.

    Raised instead of `assert`, so the check also runs under `python -O`."""

    code = "PostconditionFailed"


class ParseError(EdrError):
    """Raised on malformed descriptors, element literals or matrix files.

    `position` is a character offset into the parsed text (or -1 when the
    error is not tied to a single offset, e.g. a bad line count).
    """

    code = "ParseError"

    def __init__(self, message, position=-1):
        super().__init__(f"{message} (at position {position})" if position >= 0 else message)
        self.position = position
