"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values (``Fraction`` over QQ, canonical ``int`` in
[0, p) over GF(p)); all arithmetic routes through the field object so the
two lanes share every algorithm above this module.  Polynomial coefficients
are such scalars.  Over QQ, the dict rows that hold elements, and the
structure tables, also hold a Python ``int`` wherever an entry is
integral: `quotient._canonical` writes every row so, the products
(`quotient._times`, whose walks call it over QQ only, as they reduce mod p
while they accumulate over GF(p)), the ideals they span in one pass
(`ideal_span`) and the residues of the one quotient constructor
(`quotient_algebra`) included.  The field operations accept ints, and
``coerce`` turns them back into Fractions where polynomials are built.
"""

from fractions import Fraction

from .errors import NonPrimeModulusError

# The supported moduli are below 2**20.  Products run on Python ints, so no
# int64 bound needs it any more; raising it is a change of its own, with
# goldens and guard tests at the new edge.
MAX_PRIME = 1 << 20


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field QQ with arbitrary-precision reduced fractions."""

    char = 0
    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return a / self.coerce(b) if b else self.inv(0)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with canonical representatives in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeModulusError(f"modulus {p!r} is not prime")
        if p >= MAX_PRIME:
            raise NonPrimeModulusError(f"modulus {p} exceeds supported bound {MAX_PRIME}")
        self.p = p
        self.char = p
        self.name = f"GF({p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def coerce(self, value):
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

_gf_cache = {}


def GF(p):
    """Return the (cached) prime field with p elements."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
