"""Reduced Grevlex Groebner bases (Buchberger) of generator lists, and normal forms.

Buchberger and normal forms serve only ideals given by generator lists, as
the parser gives them (`quotient.build_algebra`): such text carries no
degree that bounds the ideal.  `IdealPresentation` holds such a list and
caches its reduced basis, from which the algebra's standard monomials and
class table are taken.  Every other algebra is assembled from classes:
every derived ideal contains a power of the maximal ideal and is the
kernel of the map sending each monomial to its class, and the left kernel
of those classes, with the monomials in increasing order, is the reduced
echelon basis of its truncation (`quotient.kernel_algebra`); fibre products
and connected sums are given by their factors' classes (`sums`).  Every algebra
reads its reduced basis off its own classes (`quotient.ArtinAlgebra.gb`).
No Buchberger elimination runs.

Every basis, leading term and normal form is taken under the ring's one
term order, Grevlex.  The pair strategy is the normal one (smallest lcm
degree first, ties broken by Grevlex and then pair indices) with the
coprime-lcm and chain criteria.  Bases are fully reduced and monic, so they
are unique and ideal equality is basis equality.

Basis elements never change once they enter the basis, so `buchberger`
takes each element's leading term once, and the key of a pair,
(lcm degree, Grevlex key of the lcm, pair indices), is fixed when the pair
is made.  Pairs wait in a heap under that key, so each step pops the
smallest pending pair without rescanning the others; a set of the pending
pairs answers the chain criterion's membership test.  `normal_form` accepts
the leading terms precomputed, and `IdealPresentation` keeps them beside
its cached basis.  The degree guard is the module constant `MAX_DEGREE`,
read where it trips, so a program that imports the library may set it.
"""

import heapq
from functools import cached_property

from .errors import ResourceGuardError, RingMismatchError
from .poly import Polynomial, mono_coprime, mono_deg, mono_div, mono_lcm, mono_mul

# the total-degree cap for intermediate polynomials
MAX_DEGREE = 64


def _check_degree(poly):
    degree = poly.total_degree()
    if degree > MAX_DEGREE:
        raise ResourceGuardError("max_degree", MAX_DEGREE, degree,
                                 "intermediate polynomial degree")


def normal_form(f, basis, leads=None):
    """Unique remainder of f under full reduction by `basis`.

    Zero iff f lies in the ideal when `basis` is a Groebner basis; every
    term of the remainder is then a standard monomial.  `leads` may carry
    the (monomial, coefficient) leading terms of `basis`; they are computed
    here otherwise.
    """
    ring = f.ring
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("normal form arguments in different rings")
    if leads is None:
        leads = [g.leading() for g in basis]
    fld = ring.field
    max_term = ring.order.max_term
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max_term(work)
        c = work[m]
        for g, (lm, lc) in zip(basis, leads):
            q = mono_div(m, lm)
            if q is not None:
                factor = fld.div(c, lc)
                del work[m]
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    key = mono_mul(q, gm)
                    if mono_deg(key) > MAX_DEGREE:
                        raise ResourceGuardError("max_degree", MAX_DEGREE, mono_deg(key),
                                                 "reduction term degree")
                    s = fld.sub(work.get(key, fld.zero), fld.mul(factor, gc))
                    if s == fld.zero:
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            remainder[m] = c
            del work[m]
    return Polynomial(ring, remainder)


def s_polynomial(f, g):
    lm_f, lc_f = f.leading()
    lm_g, lc_g = g.leading()
    lcm = mono_lcm(lm_f, lm_g)
    fld = f.ring.field
    a = f.mul_term(mono_div(lcm, lm_f), fld.inv(lc_f))
    b = g.mul_term(mono_div(lcm, lm_g), fld.inv(lc_g))
    return a - b


def _minimalize(basis, leads):
    """Elements whose leading monomial no smaller kept one divides, with their leads."""
    key = basis[0].ring.order.key
    kept, kept_leads = [], []
    for f, lead in sorted(zip(basis, leads), key=lambda p: key(p[1][0])):
        if all(mono_div(lead[0], lm) is None for lm, _ in kept_leads):
            kept.append(f)
            kept_leads.append(lead)
    return kept, kept_leads


def _interreduce(basis, leads):
    out = []
    for i, f in enumerate(basis):
        r = normal_form(f, basis[:i] + basis[i + 1:], leads=leads[:i] + leads[i + 1:])
        if not r.is_zero():
            out.append(r.monic())
    key = basis[0].ring.order.key
    return sorted(out, key=lambda h: key(h.leading()[0]))


def buchberger(generators):
    """The unique reduced Groebner basis of the given generators."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    key = gens[0].ring.order.key
    basis, leads = [], []
    pairs, queue = set(), []

    def add(g):
        """Append a monic element and queue its pairs with every earlier one."""
        new = len(basis)
        lead = g.leading()
        for k, (lm, _) in enumerate(leads):
            lcm = mono_lcm(lm, lead[0])
            heapq.heappush(queue, (mono_deg(lcm), key(lcm), (k, new), lcm))
            pairs.add((k, new))
        basis.append(g)
        leads.append(lead)

    for g in gens:
        _check_degree(g)
        add(g.monic())
    while queue:
        _, _, (i, j), lcm = heapq.heappop(queue)
        pairs.discard((i, j))
        if mono_coprime(leads[i][0], leads[j][0]):
            continue
        # chain criterion: an element whose lead divides the lcm, with both
        # companion pairs already handled, makes this pair redundant
        if any(k != i and k != j and mono_div(lcm, lm) is not None
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lm, _) in enumerate(leads)):
            continue
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, basis, leads=leads)
        if not r.is_zero():
            _check_degree(r)
            add(r.monic())
    return _interreduce(*_minimalize(basis, leads))


class IdealPresentation:
    """An ideal of a polynomial ring, with its reduced Groebner basis cached."""

    def __init__(self, ring, generators):
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ambient ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._gb = None

    def groebner_basis(self):
        if self._gb is None:
            self._gb = tuple(buchberger(list(self.generators)))
        return self._gb

    @cached_property
    def _leads(self):
        """The reduced basis's leading terms, each taken once."""
        return [g.leading() for g in self.groebner_basis()]

    def normal_form(self, f):
        return normal_form(f, self.groebner_basis(), leads=self._leads)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].total_degree() == 0

    def leading_monomials(self):
        return [lm for lm, _ in self._leads]

    def is_zero_dimensional(self):
        """True iff every variable has a pure power among the leading terms, 1 = x^0 included.

        The unit ideal, whose one leading term is 1, has no standard monomial.
        """
        leads = self.leading_monomials()
        return all(any(not any(m[:i] + m[i + 1:]) for m in leads) for i in range(self.ring.nvars))

    def standard_monomials(self):
        """The monomials outside the leading-term ideal, ascending; None if not zero-dimensional.

        They form an order ideal, so the walk goes up from 1 one degree at a
        time: each degree's are the variable multiples of the previous
        degree's that no leading monomial divides.  A monomial is reached
        once, from the one with its last variable lowered, so each carries
        the index of the variable last raised and only that and later ones
        are raised.  Grevlex is graded, so sorting each degree sorts the list.
        """
        if not self.is_zero_dimensional():
            return None
        leads = self.leading_monomials()
        n = self.ring.nvars
        out, layer = [], [((0,) * n, 0)]
        while layer:
            layer = [(m, s) for m, s in layer if all(mono_div(m, lm) is None for lm in leads)]
            out += sorted((m for m, _ in layer), key=self.ring.order.key)
            layer = [(m[:i] + (m[i] + 1,) + m[i + 1:], i) for m, s in layer for i in range(s, n)]
        return out

    def __eq__(self, other):
        """Ideal equality: same ring and identical reduced bases."""
        if not isinstance(other, IdealPresentation):
            return NotImplemented
        return self.ring == other.ring and self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"<ideal ({gens}) of {self.ring}>"
