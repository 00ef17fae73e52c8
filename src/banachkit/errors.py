"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParseError and CapExceededError -> 3,
ExhaustionError -> 2, VerificationError (and subclasses) -> 1, and every
other BanachKitError -> 1. A raised error ends the run with no report.
"""


class BanachKitError(Exception):
    """Base class for all package errors."""


class ParseError(BanachKitError):
    """Malformed literal. Carries the offending text and position."""

    def __init__(self, text: str, pos: int, expected: str):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"parse error at position {pos} in {text!r}: expected {expected}")


class CapExceededError(BanachKitError, ValueError):
    """A level or precision request beyond a space's, sweep's or
    construction's cap: the arguments ask for more than the nets hold."""


class ExhaustionError(BanachKitError):
    """A fuel or depth bound was hit before the answer resolved."""

    def __init__(self, message: str, bound: int):
        self.bound = bound
        super().__init__(f"{message} (bound {bound})")


class VerificationError(BanachKitError):
    """A checked invariant or verification failed."""


class NotATreeError(VerificationError):
    """Downward-closure sampling found a violation in a claimed tree."""


class NoPathError(VerificationError):
    """The searched tree has no branch of the requested depth."""


class IllDefinedError(VerificationError):
    """A path bit demands an f1-witness that does not exist within its bound."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"path is ill-defined at index {index}: no bounded f1-witness")


class RefutationFailedError(VerificationError):
    """The probed translator answered differently on the two probes."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(
            f"refutation failed: translator returned {first} then {second} at index 0 "
            "(it behaved discontinuously)"
        )


class RangeInconsistencyError(VerificationError):
    """exact_range contradicts a definite net-test rejection (buggy function)."""


class ConstructionStalledError(BanachKitError):
    """Pre-image construction found no admissible net point at some level."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"pre-image construction stalled at level {level}; enlarge m_max")


class NotTotalError(BanachKitError):
    """A function code is too sparse to evaluate at the requested precision."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"code has no matching entry at precision level {level}")


class NoValidModulusError(BanachKitError):
    """No candidate level below the cap works as a modulus value."""

    def __init__(self, m: int, cap: int):
        self.m = m
        self.cap = cap
        super().__init__(f"no modulus value up to {cap} works at target precision {m}")
