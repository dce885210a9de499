"""Monomials, the Grevlex order, and sparse multivariate polynomials with exact coefficients.

A monomial is a tuple of non-negative exponents, one slot per ambient
variable; a polynomial is a dict mapping monomials to nonzero scalars of
the ambient field.  Everything is immutable after construction.
"""

from itertools import combinations_with_replacement

from .errors import RingMismatchError


# ---------------------------------------------------------------------------
# monomials

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent-wise quotient a/b, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the term order

class Grevlex:
    """Graded reverse lexicographic order, variables in declaration sequence.

    The one term order of the library: every reduced basis, standard basis
    and leading term is taken under it.
    """

    def key(self, mono):
        return (sum(mono), tuple(-e for e in reversed(mono)))

    def max_term(self, monos):
        return max(monos, key=self.key)


# ---------------------------------------------------------------------------
# rings and polynomials

class PolyRing:
    """Ambient polynomial ring: a coefficient field plus ordered variable names."""

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.field = field
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.order = Grevlex()

    @property
    def nvars(self):
        return len(self.names)

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def var(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1):
        coeff = self.field.coerce(coeff)
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        return Polynomial(self, {exps: coeff} if coeff != self.field.zero else {})

    def constant(self, value):
        return self.monomial((0,) * self.nvars, value)

    def poly(self, terms):
        """Build a polynomial from a {monomial: coeff} mapping, dropping zeros."""
        clean = {}
        zero = self.field.zero
        for mono, c in terms.items():
            c = self.field.coerce(c)
            if c != zero:
                clean[tuple(mono)] = c
        return Polynomial(self, clean)

    def monomials_of_degree(self, d):
        """All monomials of total degree d, in a fixed deterministic sequence."""
        if self.nvars == 0:
            return [()] if d == 0 else []
        out = []
        for combo in combinations_with_replacement(range(self.nvars), d):
            exps = [0] * self.nvars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
        return out

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (other.field, other.names) == (self.field, self.names)

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


class Polynomial:
    """Sparse polynomial; `terms` maps exponent tuples to nonzero scalars."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((mono_deg(m) for m in self.terms), default=-1)

    def leading(self):
        """(monomial, coefficient) of the largest term; None for the zero polynomial."""
        if not self.terms:
            return None
        m = self.ring.order.max_term(self.terms)
        return m, self.terms[m]

    def sorted_terms(self):
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.ring.field.zero)

    def constant_term(self):
        return self.coefficient((0,) * self.ring.nvars)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"operands in {self.ring} and {other.ring}")

    def __add__(self, other):
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, fld.zero), c)
            if s == fld.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fld = self.ring.field
        out = {}
        zero = fld.zero
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = fld.add(out.get(m, zero), fld.mul(c1, c2))
                if s == zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def scale(self, c):
        fld = self.ring.field
        c = fld.coerce(c)
        if c == fld.zero:
            return self.ring.zero
        return Polynomial(self.ring, {m: fld.mul(c, v) for m, v in self.terms.items()})

    def mul_term(self, mono, coeff):
        fld = self.ring.field
        coeff = fld.coerce(coeff)
        if coeff == fld.zero:
            return self.ring.zero
        return Polynomial(self.ring, {mono_mul(m, mono): fld.mul(coeff, c)
                                      for m, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        for _ in range(n):
            result = result * self
        return result

    def monic(self):
        lead = self.leading()
        if lead is None:
            return self
        return self.scale(self.ring.field.inv(lead[1]))

    def derivative(self, i):
        """Exact partial derivative with respect to variable i."""
        fld = self.ring.field
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            d = fld.mul(c, fld.coerce(m[i]))
            if d == fld.zero:
                continue
            exps = list(m)
            exps[i] -= 1
            out[tuple(exps)] = d
        return Polynomial(self.ring, out)

    def compose(self, target, images):
        """Ring map sending variable i to images[i] (a polynomial of `target`)."""
        if len(images) != self.ring.nvars:
            raise ValueError("one image per variable required")
        result = target.zero
        for m, c in self.terms.items():
            term = target.constant(c)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    def rename_into(self, target, index_map=None):
        """Move to `target`, variable i of self going to index_map[i] (default: by name)."""
        if index_map is None:
            index_map = [target.index[n] for n in self.ring.names]
        out = {}
        for m, c in self.terms.items():
            exps = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    exps[index_map[i]] = e
            out[tuple(exps)] = target.field.coerce(c)
        return Polynomial(target, out)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return format_polynomial(self)


def format_polynomial(p):
    """Canonical text form: terms decreasing under Grevlex."""
    if not p.terms:
        return "0"
    names = p.ring.names
    fld = p.ring.field
    pieces = []
    for m, c in p.sorted_terms():
        text = fld.format(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        if factors:
            body = "*".join(factors)
            text = body if text == "1" else f"{text}*{body}"
        pieces.append(("-" if negative else "+", text))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out
