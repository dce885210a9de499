"""Reduced Groebner bases (Buchberger) of generator lists, and normal forms.

Buchberger and normal forms serve only ideals given by generator lists, as
the parser gives them (`quotient.build_algebra`): such text carries no
degree that bounds the ideal.  `IdealPresentation` holds such a list and
caches its reduced bases; an algebra keeps only the reduced basis
(`quotient.ArtinAlgebra.gb`).  Every derived ideal contains a power of the
maximal ideal and is the kernel of the map sending each monomial to its
class; the left kernel of those classes, with the monomials in increasing
order, is the reduced echelon basis of its truncation and gives its reduced
basis and classes, and linear forms are eliminated by one more echelon
(`quotient.kernel_algebra`).  Fibre products and connected sums get theirs
from their factors' bases (`sums`).  No Buchberger elimination runs.

The pair strategy is the normal one (smallest lcm degree first, ties broken
by the term order and then pair indices) with the coprime-lcm and chain
criteria.  Bases are fully reduced and monic, so they are unique per order
and ideal equality is basis equality.

Basis elements never change once they enter the basis, so `buchberger`
takes each element's leading term once, and the key of a pair,
(lcm degree, order key of the lcm, pair indices), is fixed when the pair is
made.  Pairs wait in a heap under that key, so each step pops the smallest
pending pair without rescanning the others; a set of the pending pairs
answers the chain criterion's membership test.  `normal_form` accepts the
leading terms precomputed, and `IdealPresentation` keeps them per order
beside its cached bases.
"""

import heapq
import os

from .errors import ResourceGuardError, RingMismatchError
from .poly import Polynomial, mono_coprime, mono_deg, mono_div, mono_lcm, mono_mul

DEFAULT_MAX_DEGREE = 64


def degree_guard():
    """Total-degree cap for intermediate polynomials; env-overridable."""
    value = os.environ.get("ARTINSUM_MAX_DEGREE")
    return int(value) if value else DEFAULT_MAX_DEGREE


def _check_degree(poly, cap):
    degree = poly.total_degree()
    if degree > cap:
        raise ResourceGuardError("max_degree", cap, degree, "intermediate polynomial degree")


def normal_form(f, basis, order=None, max_degree=None, leads=None):
    """Unique remainder of f under full reduction by `basis`.

    Zero iff f lies in the ideal when `basis` is a Groebner basis; every
    term of the remainder is then a standard monomial.  `leads` may carry
    the (monomial, coefficient) leading terms of `basis` under `order`;
    they are computed here otherwise.
    """
    ring = f.ring
    order = order or ring.order
    cap = max_degree if max_degree is not None else degree_guard()
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("normal form arguments in different rings")
    if leads is None:
        leads = [g.leading(order) for g in basis]
    fld = ring.field
    remainder = {}
    work = dict(f.terms)
    while work:
        m = order.max_term(work)
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
                    if mono_deg(key) > cap:
                        raise ResourceGuardError("max_degree", cap, mono_deg(key),
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


def s_polynomial(f, g, order):
    lm_f, lc_f = f.leading(order)
    lm_g, lc_g = g.leading(order)
    lcm = mono_lcm(lm_f, lm_g)
    fld = f.ring.field
    a = f.mul_term(mono_div(lcm, lm_f), fld.inv(lc_f))
    b = g.mul_term(mono_div(lcm, lm_g), fld.inv(lc_g))
    return a - b


def _minimalize(basis, leads, order):
    """Elements whose leading monomial no smaller kept one divides, with their leads."""
    kept, kept_leads = [], []
    for f, lead in sorted(zip(basis, leads), key=lambda p: order.key(p[1][0])):
        if all(mono_div(lead[0], lm) is None for lm, _ in kept_leads):
            kept.append(f)
            kept_leads.append(lead)
    return kept, kept_leads


def _interreduce(basis, leads, order, cap):
    out = []
    for i, f in enumerate(basis):
        r = normal_form(f, basis[:i] + basis[i + 1:], order, cap,
                        leads=leads[:i] + leads[i + 1:])
        if not r.is_zero():
            out.append(r.monic(order))
    return sorted(out, key=lambda h: order.key(h.leading(order)[0]))


def buchberger(generators, order, max_degree=None):
    """The unique reduced Groebner basis of the given generators."""
    cap = max_degree if max_degree is not None else degree_guard()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    basis, leads = [], []
    pairs, queue = set(), []

    def add(g):
        """Append a monic element and queue its pairs with every earlier one."""
        new = len(basis)
        lead = g.leading(order)
        for k, (lm, _) in enumerate(leads):
            lcm = mono_lcm(lm, lead[0])
            heapq.heappush(queue, (mono_deg(lcm), order.key(lcm), (k, new), lcm))
            pairs.add((k, new))
        basis.append(g)
        leads.append(lead)

    for g in gens:
        _check_degree(g, cap)
        add(g.monic(order))
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
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order, cap, leads=leads)
        if not r.is_zero():
            _check_degree(r, cap)
            add(r.monic(order))
    return _interreduce(*_minimalize(basis, leads, order), order, cap)


class IdealPresentation:
    """An ideal of a polynomial ring, with cached reduced Groebner bases."""

    def __init__(self, ring, generators):
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ambient ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._gb_cache = {}
        self._leads_cache = {}

    def groebner_basis(self, order=None, max_degree=None):
        order = order or self.ring.order
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = tuple(buchberger(list(self.generators), order, max_degree))
            self._gb_cache[order] = cached
        return cached

    def _basis_and_leads(self, order):
        """The reduced basis under `order` and its leading terms, each taken once."""
        basis = self.groebner_basis(order)
        leads = self._leads_cache.get(order)
        if leads is None:
            leads = self._leads_cache[order] = [g.leading(order) for g in basis]
        return basis, leads

    def normal_form(self, f, order=None):
        order = order or self.ring.order
        basis, leads = self._basis_and_leads(order)
        return normal_form(f, basis, order, leads=leads)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].total_degree() == 0

    def leading_monomials(self, order=None):
        order = order or self.ring.order
        return [lm for lm, _ in self._basis_and_leads(order)[1]]

    def is_zero_dimensional(self):
        """True iff every variable has a pure power among the leading terms."""
        if self.ring.nvars == 0:
            return True
        leads = self.leading_monomials()
        for i in range(self.ring.nvars):
            if not any(m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i)
                       for m in leads):
                return False
        return True

    def standard_monomials(self, order=None):
        """All monomials outside the leading-term ideal, sorted ascending."""
        order = order or self.ring.order
        if not self.is_zero_dimensional():
            return None
        if self.is_unit_ideal():
            return []
        leads = self.leading_monomials(order)
        n = self.ring.nvars
        if n == 0:
            return [()]
        bounds = []
        for i in range(n):
            powers = [m[i] for m in leads
                      if m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i)]
            bounds.append(min(powers))
        out = []

        def rec(prefix):
            if len(prefix) == n:
                m = tuple(prefix)
                if all(mono_div(m, lm) is None for lm in leads):
                    out.append(m)
                return
            for e in range(bounds[len(prefix)]):
                rec(prefix + [e])

        rec([])
        out.sort(key=order.key)
        return out

    def __eq__(self, other):
        """Ideal equality: same ring and identical reduced default-order bases."""
        if not isinstance(other, IdealPresentation):
            return NotImplemented
        return self.ring == other.ring and self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"<ideal ({gens}) of {self.ring}>"
