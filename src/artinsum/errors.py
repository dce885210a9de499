"""Exception hierarchy shared by all modules."""


class ArtinsumError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ArtinsumError):
    """Syntax or semantic error in a presentation source, with location."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


class NonPrimeModulusError(ArtinsumError):
    """GF(p) requested with a composite or invalid modulus."""


class RingMismatchError(ArtinsumError):
    """Operands live in different ambient rings."""


class NotZeroDimensionalError(ArtinsumError):
    """The ideal does not cut out a finite-dimensional quotient."""


class NotLocalError(ArtinsumError):
    """Zero-dimensional but not supported at the origin (some variable is a unit or idempotent)."""


class UnitIdealError(ArtinsumError):
    """1 lies in the ideal; the quotient is the zero ring."""


class NotGorensteinError(ArtinsumError):
    """Operation requires a one-dimensional socle."""


class NotAnIdealError(ArtinsumError):
    """A subspace argument is not closed under multiplication."""


class BadSocleError(ArtinsumError):
    """A supplied socle expression does not generate the socle."""


class CharacteristicError(ArtinsumError):
    """Field characteristic too small for the requested dual-polynomial degree."""


class PreconditionError(ArtinsumError):
    """An operation's stated precondition failed."""


class ResourceGuardError(ArtinsumError):
    """A degree or dimension guard tripped.

    `guard` names the guard (`max_degree`, `max_dim`, `max_echelon_dim`),
    `limit` is the value of its one setting and `value` is what exceeded
    it; `what` says what was measured.
    """

    def __init__(self, guard, limit, value, what):
        super().__init__(f"{what} {value} exceeds the {guard} guard of {limit}")
        self.guard = guard
        self.limit = limit
        self.value = value
        self.what = what

    def __reduce__(self):
        return type(self), (self.guard, self.limit, self.value, self.what)
