"""Truncated formal power series with exact rational coefficients."""

from fractions import Fraction


def _exact(c):
    """A rational coefficient as an int where it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class SeriesTrunc:
    """A power series modulo t^(N+1); arithmetic is exact, on ints where integral."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, truncation=None):
        coeffs = [_exact(c) for c in coeffs]
        if truncation is not None:
            coeffs = coeffs[: truncation + 1]
            coeffs += [0] * (truncation + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    @classmethod
    def from_terms(cls, truncation, terms):
        """Series from a {power: coefficient} mapping."""
        coeffs = [0] * (truncation + 1)
        for k, c in terms.items():
            if k <= truncation:
                coeffs[k] = c
        return cls(coeffs)

    @classmethod
    def one(cls, truncation):
        return cls.from_terms(truncation, {0: 1})

    def _match(self, other):
        if not isinstance(other, SeriesTrunc):
            other = SeriesTrunc.from_terms(self.truncation, {0: other})
        if other.truncation != self.truncation:
            raise ValueError("series with different truncations")
        return other

    def __add__(self, other):
        other = self._match(other)
        return SeriesTrunc([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return SeriesTrunc([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return self._match(other) - self

    def __mul__(self, other):
        other = self._match(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return SeriesTrunc(out)

    def reciprocal(self):
        """Inverse modulo t^(N+1); the constant term must be a unit (on ints if it is ±1)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term")
        n = self.truncation
        inv0 = a0 if a0 in (1, -1) else 1 / Fraction(a0)
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return SeriesTrunc(out)

    def __eq__(self, other):
        return isinstance(other, SeriesTrunc) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        text = ""
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            body = str(abs(c)) if not mag else (mag if abs(c) == 1 else f"{abs(c)}*{mag}")
            if not text:
                text = ("-" if c < 0 else "") + body
            else:
                text += (" - " if c < 0 else " + ") + body
        if not text:
            text = "0"
        return f"{text} + O(t^{self.truncation + 1})"
