"""Independent oracles used to pin derived expected values.

These deliberately avoid the code paths they check: ideal membership is
certified by finding explicit cofactors with bounded-degree linear algebra,
and subalgebras are cross-checked by ranking normal-form images of subring
monomials.  The `*_reference` functions keep the earlier, slower forms of
routines that were made fast, for differential tests: Gauss-Jordan on
Fractions, the dense numpy pivot loop mod p and the dense fraction-free
Gauss-Jordan on integers that ran before the sparse kernel, residues and
the Zassenhaus intersection on dense echelon forms, the per-vector
complement loop, the
pair-rescanning Buchberger, the substitution loop that made presentations
minimal, the resolution loop that took Betti numbers by row reduction
against m times the kernel, the block-order elimination that contracted
an ideal to the ring on a subset of its variables, the fibre products
and connected sums built by Buchberger and normal forms from their
generator lists, classes of polynomials by normal forms, quotients and the
linear-socle split built by Buchberger on generator lists, the ideal
spanned by elements grown by m*W until it stops growing, the m-adic
filtration as m*W repeated from the whole algebra, and the
cross-product test of a coordinate split by ideal membership, the two
ranks that counted the minimal generators of an ideal and the count from
`Polynomial` products of the reduced basis, and the graded socle taken as
one kernel per degree.  The library has one term order,
Grevlex; the `Lex` and `Block` orders live here, with the reduction,
S-polynomial and leading term under any order that the pair-rescanning
Buchberger runs on (`normal_form_reference`, ...), for the order tests and
the block-order elimination reference.  So do the helpers that only tests call:
row-space membership, preimages of a row space, substituting and listing
the variables of a polynomial, the residue field as an algebra, and the
dense writers that turn the library's dict rows, classes and subspaces
into the arrays the references compare (`dense`, `vector`, `space_rows`,
...).
The per-variable product that formed m*W one variable at a time, apolar
classes with every derivative taken from F, and the right kernel and the
resolution on dense echelons (numpy mod p, Bareiss over QQ) are
references too.  So is the dense product layer that the library ran before
its products moved onto dict rows: `mat_mul` (int64 products mod p,
integer rows and columns over QQ, a right factor converted once by
`prepared`), the multiplication matrices of elements and variables, classes
of monomials as chains of dense products, annihilators as left kernels of
stacked multiplication matrices, and subalgebras from those classes.
The dense structure tensor that every algebra kept beside its sparse
table is a reference too: `dense_struct` writes an algebra's table out as
one, for the dense products, and `struct_readout` reads a tensor's
nonzeros back into a table, the form in which the normal-form tensor is
compared with the table an algebra builds.  So is `kernel_algebra` as it
was when it sorted its monomials by their Grevlex keys and looked the
products of basis elements up by `mono_mul`.  The references that build
an algebra (`build_algebra_reference`, `kernel_algebra_reference`) set
its reduced basis to the one Buchberger or the echelon rows give, in
place of the one the library reads off the algebra's classes.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

from artinsum import _kernels, linalg
from artinsum.errors import (ArtinsumError, NotLocalError, NotZeroDimensionalError,
                             UnitIdealError)
from artinsum.errors import PreconditionError, ResourceGuardError
from artinsum.graded import GlsSplit, _linear_form, is_gls
from artinsum.grobner import IdealPresentation, _check_degree, degree_guard
from artinsum.graded import _homogeneous
from artinsum.poly import (Polynomial, PolyRing, mono_coprime, mono_deg, mono_div, mono_lcm,
                           mono_mul)
from artinsum.quotient import (ArtinAlgebra, _canonical, _monomial_table, _times, build_algebra,
                               kernel_algebra, square_zero_algebra)
from artinsum.sums import _combined_ring, _embed, _validate_socle, socle_generator


# ---------------------------------------------------------------------------
# dense writers: the library's elements and subspaces are dict rows, and the
# dense references compare arrays

def zeros(field, shape):
    return np.zeros(shape, dtype=np.int64 if linalg.is_prime_field(field) else object)


def matrix(field, rows, width=None):
    """Stack an iterable of scalar rows into a matrix (possibly 0 x width)."""
    rows = [np.asarray(r, dtype=np.int64) if linalg.is_prime_field(field)
            else np.asarray(list(r), dtype=object) for r in rows]
    if not rows:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return zeros(field, (0, width))
    return np.vstack(rows)


def dense(field, rows, width):
    """Dict rows as a matrix of `width` columns, an int wherever a QQ entry is integral."""
    rows = list(rows)
    return _kernels.fill(zeros(field, (len(rows), width)), rows, field.char)


def sparse_rows(field, a):
    """The rows of a matrix as dict rows, reduced mod p over GF(p)."""
    a = np.asarray(a)
    if linalg.is_prime_field(field):
        return _kernels.sparse_rows(np.asarray(a, dtype=np.int64) % field.p)
    return _kernels.sparse_rows(np.asarray(a, dtype=object))


def sparse_row(field, vec):
    """A vector as a dict row, reduced mod p over GF(p)."""
    return sparse_rows(field, np.reshape(vec, (1, -1)))[0]


def space_rows(sub):
    """The echelon basis of a subspace as a dense matrix, in pivot order."""
    return dense(sub.algebra.field, sub.basis.values(), sub.algebra.length)


def vector(A, poly):
    """The class of `poly` in A as a dense vector."""
    return dense(A.field, [A.element_row(poly)], A.length)[0]


def monomial_vector(A, mono):
    """The class of a monomial of A's presentation ring as a dense vector."""
    return dense(A.field, [A.monomial_row(mono)], A.length)[0]


def one_vector(A):
    vec = zeros(A.field, A.length)
    vec[A.basis_index[(0,) * A.ring.nvars]] = A.field.one
    return vec


def left_kernel_reference(field, a):
    """Rows spanning {v : v @ a = 0}: `right_kernel_reference` of the transpose."""
    return right_kernel_reference(field, np.asarray(a).T)


def in_row_space(field, vec, rows, pivots):
    res = reduce_row_reference(field, vec, rows, pivots)
    return not np.any(res != field.zero)


def preimage_rows(field, m, sub_rows):
    """Rows spanning {v : v @ m lies in the row space of sub_rows}.

    Found as the v-components of the left kernel of [m ; sub_rows] stacked.
    """
    m = np.asarray(m)
    ker = left_kernel_reference(field, np.vstack([m, np.asarray(sub_rows)]))
    return echelon_reference(field, ker[:, : m.shape[0]])[0]


def support_vars(poly):
    """Indices of the variables that appear in `poly`."""
    return {i for m in poly.terms for i, e in enumerate(m) if e}


def substitute(poly, replacements):
    """Replace selected variables by polynomials of the same ring."""
    ring = poly.ring
    return poly.compose(ring, [replacements.get(i, ring.var(i)) for i in range(ring.nvars)])


def residue_field_algebra(field):
    """The base field as a zero-variable algebra."""
    return square_zero_algebra(PolyRing(field, []))


class Lex:
    """Lexicographic order with earlier-declared variables larger."""

    def key(self, mono):
        return mono


class Block:
    """Elimination order: grevlex on the front block, ties broken by grevlex behind.

    Any monomial involving a front variable exceeds every monomial in back
    variables alone, so front variables are eliminated from a Groebner basis.
    """

    def __init__(self, front, back):
        self.front = tuple(front)
        self.back = tuple(back)
        if sorted(self.front + self.back) != list(range(len(self.front) + len(self.back))):
            raise ValueError("front/back must partition the variable indices")

    def key(self, mono):
        f = tuple(mono[i] for i in self.front)
        b = tuple(mono[i] for i in self.back)
        return (sum(f), tuple(-e for e in reversed(f)), sum(b), tuple(-e for e in reversed(b)))


def ideal_member(f, gens, max_degree=12):
    """Certify f in <gens> by exhibiting cofactors of bounded degree.

    Sound in both directions only up to the bound: returns True with an
    explicit certificate, or False when no cofactor combination of total
    degree <= max_degree exists.
    """
    ring = f.ring
    field = ring.field
    if f.is_zero():
        return True
    for cap in range(f.total_degree(), max_degree + 1):
        products = []
        for g in gens:
            top = cap - min(sum(m) for m in g.terms)
            for d in range(0, max(top, -1) + 1):
                for mono in ring.monomials_of_degree(d):
                    products.append(g.mul_term(mono, field.one))
        monos = sorted({m for p in products for m in p.terms} | set(f.terms))
        col = {m: j for j, m in enumerate(monos)}
        mat = zeros(field, (len(products), len(monos)))
        for i, p in enumerate(products):
            for m, c in p.terms.items():
                mat[i, col[m]] = c
        target = zeros(field, len(monos))
        for m, c in f.terms.items():
            target[col[m]] = c
        rows, pivots = echelon_reference(field, mat)
        if in_row_space(field, target, rows, pivots):
            return True
    return False


def same_ideal(ideal_a, ideal_b, max_degree=12):
    """Mutual membership of generators, certified independently of Buchberger."""
    gens_a = list(ideal_a.generators)
    gens_b = list(ideal_b.generators)
    return (all(ideal_member(g, gens_a, max_degree) for g in gens_b)
            and all(ideal_member(g, gens_b, max_degree) for g in gens_a))


def subring_quotient_dimension(algebra, keep_names):
    """dim of the subalgebra generated by the kept variables, degree by degree.

    Equals the length of k[kept]/(I intersect k[kept]); stabilization of the
    normal-form image span certifies completeness without any elimination
    order.
    """
    ring = algebra.ring
    keep_idx = [ring.index[n] for n in keep_names]
    span_rows = matrix(algebra.field, [one_vector(algebra)], width=algebra.length)
    span, pivots = echelon_reference(algebra.field, span_rows)
    frontier = [one_vector(algebra)]
    while True:
        new_frontier = []
        for v in frontier:
            for i in keep_idx:
                w = vec_mult_matrix_row(algebra, v, i)
                if not in_row_space(algebra.field, w, span, pivots):
                    span, pivots = echelon_reference(
                        algebra.field, np.vstack([span, w.reshape(1, -1)]))
                    new_frontier.append(w)
        if not new_frontier:
            return span.shape[0]
        frontier = new_frontier


def rref_fraction_reference(a):
    """Gauss-Jordan on Fractions, in place; returns (rank, pivot column array).

    `linalg.rref` over QQ must give the same matrix and pivots.
    """
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = Fraction(1) / a[r, c]
        if inv != 1:
            a[r, c:] = a[r, c:] * inv
        for i in range(m):
            f = a[i, c]
            if i != r and f != 0:
                a[i, c:] = a[i, c:] - f * a[r, c:]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(pivots, dtype=np.int64)


def rref_mod_reference(a, p):
    """The dense numpy pivot loop mod p, in place on an int64 matrix with entries in [0, p).

    Returns (rank, pivot column array); `_kernels.rref_mod` must give the
    same matrix and pivots.
    """
    if a.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        pr = r + int(rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(pivots, dtype=np.int64)


def rref_bareiss_reference(a):
    """Dense fraction-free Gauss-Jordan (Bareiss 1968) of a 2-D QQ array: (R, pivots).

    A row with entry f in the pivot column becomes (p/g)*row - (f/g)*pivot_row,
    with p the pivot and g = gcd(p, f), and is then divided by its content;
    at the end each pivot row is divided by its pivot.  `linalg.rref` over QQ
    must give the same matrix, pivots and entry types.
    """
    m, n = a.shape
    rows, _ = _integer_rows(a)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                s, t = p // g, f // g
                row = [s * x - t * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = np.zeros((m, n), dtype=object)
    for i, c in enumerate(pivots):
        p = rows[i][c]
        out[i] = rows[i] if p == 1 else _quotients(rows[i], [p] * n)
    return out, np.asarray(pivots, dtype=np.int64)


def echelon_reference(field, a):
    """The reduced echelon basis of the row space, zero rows dropped, by the dense loops.

    Returns (R, pivot column array): numpy mod p, Gauss-Jordan on Fractions over QQ.
    """
    if linalg.is_prime_field(field):
        a = np.asarray(a, dtype=np.int64) % field.p
        rank, pivots = rref_mod_reference(a, field.p)
    else:
        a = np.array(a, dtype=object)
        rank, pivots = rref_fraction_reference(a)
    return a[:rank], pivots


def reduce_row_reference(field, vec, rows, pivots):
    """The residue v - v[pivots] @ R of a vector, or of each row of a matrix.

    R is a reduced echelon basis with pivot columns `pivots`, so the residue
    is zero at every pivot.  `Subspace.reduce` must give the same residues.
    """
    if linalg.is_prime_field(field):
        v = np.asarray(vec, dtype=np.int64) % field.p
        return (v - v[..., pivots].dot(rows)) % field.p
    v = np.asarray(vec, dtype=object)
    return v - v[..., pivots].dot(np.asarray(rows, dtype=object))


def intersect_reference(field, a, b):
    """rowspace(a) ∩ rowspace(b) by the dense Zassenhaus layout: (R, pivot column array).

    The rows of the reduced echelon form of [a a; b 0] whose pivot lies in
    the second half are zero in the first, and their second halves are the
    reduced echelon basis of the intersection.  `Subspace.intersect` must
    give the same basis.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[1]
    top = np.hstack([a, a])
    bottom = np.hstack([b, zeros(field, b.shape)])
    r, pivots = echelon_reference(field, np.vstack([top, bottom]))
    inside = pivots >= n
    return r[inside, n:], pivots[inside] - n


def rank_reference(field, a):
    """The rank of a matrix by the dense references: Bareiss over QQ, numpy mod p."""
    a = np.asarray(a)
    if linalg.is_prime_field(field):
        return rref_mod_reference(np.asarray(a, dtype=np.int64) % field.p, field.p)[0]
    return rref_bareiss_reference(np.asarray(a, dtype=object))[1].size


def right_kernel_reference(field, a):
    """Rows spanning {v : a @ v = 0}, read off the dense reduced echelon form of `a`.

    Row k is one at the k-th free column f and minus column f of each pivot
    row at that row's pivot; the echelon is numpy mod p or Bareiss over QQ.
    """
    a = np.asarray(a)
    r, pivots = _echelon_dense(field, a)
    free = np.setdiff1d(np.arange(a.shape[1]), pivots)
    basis = zeros(field, (free.size, a.shape[1]))
    basis[np.arange(free.size), free] = 1
    tails = -r[:, free].T
    basis[:, pivots] = tails % field.p if linalg.is_prime_field(field) else tails
    return basis


def _echelon_dense(field, a):
    """The reduced echelon basis and pivots by the dense loops: numpy mod p, Bareiss over QQ."""
    if linalg.is_prime_field(field):
        return echelon_reference(field, a)
    r, pivots = rref_bareiss_reference(np.asarray(a, dtype=object))
    return r[:pivots.size], pivots


def complement_rows_reference(field, rows, base_rows, base_pivots):
    """Monic residues of `rows` extending the base: the per-vector loop on dense echelon forms.

    Reduces each row against the span accumulated so far and re-echelons
    the whole span after every kept row.  For a base spanning U inside W,
    `W.complement(U)` must give the rows this loop keeps from W's reduced
    basis taken by decreasing pivot, in reverse order, and the reduced
    echelon form of the rows it keeps by increasing pivot.
    """
    out = []
    acc_rows, acc_piv = base_rows, base_pivots
    for w in rows:
        res = reduce_row_reference(field, w, acc_rows, acc_piv)
        if np.any(res != field.zero):
            lead = next(i for i, c in enumerate(res) if c != field.zero)
            inv = field.inv(field.coerce(res[lead]))
            res = np.asarray([field.mul(inv, c) for c in res], dtype=res.dtype)
            out.append(res)
            acc_rows, acc_piv = echelon_reference(field, np.vstack([acc_rows, res.reshape(1, -1)]))
    return out


# ---------------------------------------------------------------------------
# Buchberger under any term order: the library's runs under Grevlex only

def leading_reference(f, order):
    """(monomial, coefficient) of the largest term of f under `order`."""
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def monic_reference(f, order):
    return f.scale(f.ring.field.inv(leading_reference(f, order)[1]))


def normal_form_reference(f, basis, order):
    """The remainder of f under full reduction by `basis`, leading terms taken under `order`.

    Under an order that is not graded a reduction can raise the degree, so
    every new term is held to the degree guard, as `grobner.normal_form` does.
    """
    cap = degree_guard()
    fld = f.ring.field
    leads = [leading_reference(g, order) for g in basis]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for g, (lm, lc) in zip(basis, leads):
            q = mono_div(m, lm)
            if q is not None:
                factor = fld.div(c, lc)
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
    return Polynomial(f.ring, remainder)


def s_polynomial_reference(f, g, order):
    lm_f, lc_f = leading_reference(f, order)
    lm_g, lc_g = leading_reference(g, order)
    lcm = mono_lcm(lm_f, lm_g)
    fld = f.ring.field
    return (f.mul_term(mono_div(lcm, lm_f), fld.inv(lc_f))
            - g.mul_term(mono_div(lcm, lm_g), fld.inv(lc_g)))


def _lead_key(order):
    return lambda h: order.key(leading_reference(h, order)[0])


def _minimalize_reference(basis, order):
    kept = []
    for f in sorted(basis, key=_lead_key(order)):
        lm = leading_reference(f, order)[0]
        if all(mono_div(lm, leading_reference(g, order)[0]) is None for g in kept):
            kept.append(f)
    return kept


def _interreduce_reference(basis, order):
    out = []
    for i, f in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form_reference(f, others, order)
        if not r.is_zero():
            out.append(monic_reference(r, order))
    return sorted(out, key=_lead_key(order))


def buchberger_reference(generators, order):
    """The reduced Groebner basis under `order`, rescanning every pending pair at each step.

    Recomputes leading terms wherever it needs them and picks the next pair
    with `min` over the pending set; under Grevlex `grobner.buchberger` must
    return the same basis, and under `Block` it is the elimination that
    `contract_reference` runs.  The degree guard is `grobner.degree_guard`.
    """
    cap = degree_guard()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    basis = []
    for g in gens:
        _check_degree(g, cap)
        basis.append(monic_reference(g, order))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lead(k):
        return leading_reference(basis[k], order)[0]

    def pair_key(p):
        lcm = mono_lcm(lead(p[0]), lead(p[1]))
        return (mono_deg(lcm), order.key(lcm), p)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lm_i, lm_j = lead(i), lead(j)
        if mono_coprime(lm_i, lm_j):
            continue
        lcm = mono_lcm(lm_i, lm_j)
        # chain criterion: an element whose lead divides the lcm, with both
        # companion pairs already handled, makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_div(lcm, lead(k)) is not None:
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial_reference(basis[i], basis[j], order)
        r = normal_form_reference(s, basis, order)
        if not r.is_zero():
            _check_degree(r, cap)
            basis.append(monic_reference(r, order))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return _interreduce_reference(_minimalize_reference(basis, order), order)


def algebra_ideal(A):
    """The defining ideal of A as an `IdealPresentation` on its reduced basis."""
    return IdealPresentation(A.ring, list(A.gb))


def contract_reference(pres, keep):
    """Generators of the contraction to the subring on the kept variables.

    `keep` is a list of variable names or indices; the elimination runs
    under a block order with the dropped variables in front.
    `quotient.subalgebra` must give the same reduced basis.
    """
    ring = pres.ring
    keep_idx = []
    for v in keep:
        keep_idx.append(ring.index[v] if isinstance(v, str) else int(v))
    keep_idx = sorted(set(keep_idx))
    drop_idx = [i for i in range(ring.nvars) if i not in set(keep_idx)]
    sub = PolyRing(ring.field, [ring.names[i] for i in keep_idx])
    if not keep_idx:
        gens = [sub.one] if pres.is_unit_ideal() else []
        return IdealPresentation(sub, gens)
    gb = (buchberger_reference(list(pres.generators), Block(drop_idx, keep_idx)) if drop_idx
          else pres.groebner_basis())
    drop = set(drop_idx)
    index_map = {old: new for new, old in enumerate(keep_idx)}
    kept = []
    for g in gb:
        if support_vars(g) & drop:
            continue
        kept.append(g.rename_into(sub, [index_map.get(i, 0) for i in range(ring.nvars)]))
    result = IdealPresentation(sub, kept)
    # on monomials in the kept variables the block order is the subring's
    # grevlex, so by the elimination theorem the kept elements already
    # are its reduced basis, monic and in ascending order
    result._gb = tuple(kept)
    return result


def degreewise_generators_reference(A, targets):
    """The degree-d forms whose image in A lies in targets[d], for d = 1..s+1.

    Each degree is one preimage of a row space, taken separately, as gr(A)
    and Q0 were built before their residues became one map
    (`quotient.quotient_algebra`).
    """
    ring = A.ring
    gens = []
    for d in range(1, A.loewy_length + 2):
        monos = ring.monomials_of_degree(d)
        images = matrix(A.field, [vector_reference(A, ring.monomial(m)) for m in monos],
                               width=A.length)
        rows = preimage_rows(A.field, images, space_rows(targets[d]))
        gens.extend(Polynomial(ring, {m: c for m, c in zip(monos, r.tolist())
                                      if c != A.field.zero}) for r in rows)
    return gens


def initial_form_generators(A):
    """Homogeneous generators of the ideal of gr(A), degree by degree up to s + 1.

    Degree d contributes the forms whose image in A lies in m^(d+1); the
    reduced basis of these by `buchberger` must be the presentation of
    `graded.associated_graded`.
    """
    return degreewise_generators_reference(
        A, [A.power(d + 1) for d in range(A.loewy_length + 2)])


# ---------------------------------------------------------------------------
# minimal presentations by substitution

def _linear_coefficients(poly):
    out = {}
    for m, c in poly.terms.items():
        if mono_deg(m) == 1:
            out[m.index(1)] = c
    return out


def _truncate(poly, cap):
    return Polynomial(poly.ring, {m: c for m, c in poly.terms.items() if mono_deg(m) < cap})


def _nilpotency_bound(pres, length):
    """Smallest per-variable nilpotency exponents; fails when not local."""
    ring = pres.ring
    bounds = []
    for i in range(ring.nvars):
        power = ring.var(i)
        t = None
        for k in range(1, length + 2):
            if k > 1:
                power = pres.normal_form(power * ring.var(i))
            else:
                power = pres.normal_form(power)
            if power.is_zero():
                t = k
                break
        if t is None:
            raise NotLocalError(
                f"variable {ring.names[i]} is not nilpotent; the quotient is not local")
        bounds.append(t)
    return bounds


def _eliminate_variable(pres, gb, idx, coeff, bound_n):
    """Substitute away variable idx using a basis element with linear part."""
    ring = pres.ring
    fld = ring.field
    g = next(h for h in gb if _linear_coefficients(h).get(idx) == coeff)
    x = ring.var(idx)
    h = g - x.scale(coeff)
    neg_inv = fld.neg(fld.inv(coeff))
    phi = ring.zero
    for _ in range(bound_n + 2):
        nxt = _truncate(substitute(h, {idx: phi}).scale(neg_inv), bound_n)
        if nxt == phi:
            break
        phi = nxt
    else:
        raise ArtinsumError("linear elimination did not stabilize")
    if idx in support_vars(phi):
        raise ArtinsumError("linear elimination left the variable in its own image")
    if not pres.contains(x - phi):
        raise ArtinsumError("linear elimination produced an inconsistent substitution")
    sub = PolyRing(fld, [n for i, n in enumerate(ring.names) if i != idx])
    images = []
    pos = 0
    for i in range(ring.nvars):
        if i == idx:
            images.append(sub.zero)  # placeholder, patched below
        else:
            images.append(sub.var(pos))
            pos += 1
    # phi never mentions the eliminated variable, so the placeholder is inert
    images[idx] = phi.compose(sub, images)
    new_gens = [f.compose(sub, images) for f in gb]
    return IdealPresentation(sub, new_gens), images


def minimalize_presentation(pres, bounds=None):
    """Eliminate linear relations until the ideal sits inside the square of m.

    Returns (minimal presentation, steps); each step is (target ring, images)
    mapping the previous ring onto the next one.  `bounds` may carry the
    `_nilpotency_bound` of `pres` when the caller has it already.
    """
    steps = []
    while True:
        gb = pres.groebner_basis()
        std = pres.standard_monomials()
        target = None
        for g in gb:
            lin = _linear_coefficients(g)
            if lin:
                idx = min(lin)
                target = (idx, lin[idx])
                break
        if target is None:
            return pres, steps
        if bounds is None:
            bounds = _nilpotency_bound(pres, len(std))
        bound_n = sum(t - 1 for t in bounds) + 1
        new_pres, images = _eliminate_variable(pres, gb, target[0], target[1], bound_n)
        new_std = new_pres.standard_monomials()
        if new_std is None or len(new_std) != len(std):
            raise ArtinsumError("linear elimination changed the quotient dimension")
        steps.append((new_pres.ring, images))
        pres, bounds = new_pres, None


def build_algebra_reference(pres):
    """The algebra of `pres`, made minimal by one substitution fixed point per variable.

    `quotient.build_algebra` must give the same ring, reduced basis,
    standard basis, structure table and classes, or the same error class.
    The table is read off the normal-form tensor (`struct_readout`), and
    the successive eliminations are composed into one substitution.
    """
    if pres.is_unit_ideal():
        raise UnitIdealError("1 lies in the ideal")
    if not pres.is_zero_dimensional():
        raise NotZeroDimensionalError("quotient is infinite-dimensional")
    bounds = _nilpotency_bound(pres, len(pres.standard_monomials()))
    minimal, steps = minimalize_presentation(pres, bounds)
    basis = minimal.standard_monomials()
    A = ArtinAlgebra(minimal.ring, basis,
                     struct_readout(normal_form_structure_reference(minimal, basis)))
    # Buchberger's basis in place of the one read off the classes
    A.gb = minimal.groebner_basis()
    A.original_ring = pres.ring
    if steps:
        ring, images = steps[0]
        for ring, step in steps[1:]:
            images = [f.compose(ring, step) for f in images]
        A.reduction = (ring, images)
    return A


def var_tables_reference(A):
    """Per variable v, entry l lists the pairs (j, c) with e_l * x_v = sum of c*e_j."""
    return [[list(r.items()) for r in _kernels.sparse_rows(mx)] for mx in var_matrices(A)]


def times_reference(row, table, lam, p, order):
    """The row times one variable, whose products `table` lists, column c renamed order[c].

    Each length-lam block of the row is multiplied on its own, and the
    product may be empty.  `quotient._times` must yield the nonzero ones of
    these products, over all the variables.
    """
    out = {}
    for col, c in row.items():
        base = col - col % lam
        for j, s in table[col % lam]:
            k = order[base + j]
            out[k] = out.get(k, 0) + c * s
    return _canonical(out, p)


def is_canonical_row(row, p):
    """Whether a dict row holds nonzero entries only, each canonical.

    Over GF(p) an entry is an int in [0, p); over QQ it is an int exactly
    where it is integral, and a Fraction elsewhere.
    """
    if p:
        return all(type(x) is int and 0 < x < p for x in row.values())
    return all(x and (type(x) is int if x.denominator == 1 else type(x) is Fraction)
               for x in row.values())


def _module_times_element(field, rows, mat):
    """Right-multiply every length-lambda block of each row by `mat`."""
    if rows.shape[0] == 0:
        return rows
    lam = mat.shape[0]
    blocks = rows.shape[1] // lam
    flat = rows.reshape(rows.shape[0] * blocks, lam)
    out = mat_mul(field, flat, mat)
    return out.reshape(rows.shape[0], rows.shape[1])


def _unit_entry(A, rows):
    """True when some block of some row has a nonzero coefficient on 1."""
    one_slot = A.basis_index[(0,) * A.ring.nvars]
    return bool(np.any(rows[:, one_slot::A.length] != A.field.zero))


def differential_matrix_reference(A, gens, prev_rank):
    """The k-linear matrix of d: free module on `gens` -> A^prev_rank, one product per generator."""
    lam = A.length
    struct = dense_struct(A).reshape(lam, lam * lam)
    out = zeros(A.field, (len(gens) * lam, prev_rank * lam))
    for r, g in enumerate(gens):
        cube = mat_mul(A.field, g.reshape(prev_rank, lam), struct)
        cube = cube.reshape(prev_rank, lam, lam)
        # cube[t, k, j] = coefficient of e_j in (block t of g) * e_k
        out[r * lam: (r + 1) * lam, :] = cube.transpose(1, 0, 2).reshape(lam, prev_rank * lam)
    return out


def betti_numbers_reference(A, truncation):
    """beta_0..beta_truncation by complements against m times the kernel, on dense echelons.

    Every echelon is a dense reference loop (`_echelon_dense`): numpy mod
    p, fraction-free Bareiss over QQ, so no step runs the sparse kernel it
    checks.  The generators are the kernel rows that extend m*K,
    the pivots past m*K of the echelon of (m*K ; K) transposed.  Reads and
    writes no cache; `resolution.betti_numbers` must give the same tuple.
    """
    betti = [1]
    kernel_rows = space_rows(A.power(1))
    prev_rank = 1
    for step in range(1, truncation + 1):
        stacked = np.vstack([zeros(A.field, (0, kernel_rows.shape[1])),
                             *(_module_times_element(A.field, kernel_rows, mx)
                               for mx in var_matrices(A))])
        mk = _echelon_dense(A.field, stacked)[0]
        extend = _echelon_dense(A.field, np.vstack([mk, kernel_rows]).T)[1]
        gens = [kernel_rows[i - len(mk)] for i in extend.tolist() if i >= len(mk)]
        betti.append(len(gens))
        if step == truncation:
            break
        if not gens:
            betti.extend([0] * (truncation - step))
            break
        if _unit_entry(A, np.vstack(gens)):
            raise ArtinsumError("differential has a unit entry; resolution not minimal")
        diff = differential_matrix_reference(A, gens, prev_rank)
        kernel = right_kernel_reference(A.field, diff.T)
        if diff.shape[0] - kernel.shape[0] != kernel_rows.shape[0]:
            raise ArtinsumError("resolution is not exact at the previous step")
        kernel_rows = kernel
        prev_rank = len(gens)
    return tuple(betti)


def _fibre_generators(R, S, big):
    """Both factors' reduced bases in `big`, joined by every cross product of their variables."""
    m = R.ring.nvars
    gens = [_embed(g, big, 0) for g in R.gb] + [_embed(g, big, m) for g in S.gb]
    gens += [big.var(i) * big.var(m + j) for i in range(m) for j in range(S.ring.nvars)]
    return gens


def fibre_product_reference(R, S):
    """R x_k S by `build_algebra_reference` on the factors' generators and the cross products."""
    big = _combined_ring(R, S)
    return build_algebra_reference(IdealPresentation(big, _fibre_generators(R, S, big)))


def connected_sum_ideal(R, S, unit=1, socle_left=None, socle_right=None):
    """The ideal of R # S on the fibre product's generators and the socle difference.

    Its generators are in general not a Groebner basis.
    """
    big = _combined_ring(R, S)
    delta_r = socle_generator(R) if socle_left is None else _validate_socle(R, socle_left, "left")
    delta_s = socle_generator(S) if socle_right is None else _validate_socle(S, socle_right, "right")
    h = _embed(delta_r, big, 0) - _embed(delta_s, big, R.ring.nvars).scale(unit)
    return IdealPresentation(big, _fibre_generators(R, S, big) + [h])


def connected_sum_reference(R, S, unit=1, socle_left=None, socle_right=None):
    """R # S by `build_algebra_reference` on the fibre product's generators and socle difference."""
    return build_algebra_reference(connected_sum_ideal(R, S, unit, socle_left, socle_right))


# ---------------------------------------------------------------------------
# classes, quotients and the linear-socle split by normal forms and Buchberger

def normal_form_structure_reference(pres, basis):
    """struct[i, j] = the class of basis[i] * basis[j], one normal form per product.

    An integral QQ coefficient is written as an int.  The structure table
    of every algebra, whether read off an echelon, built from normal forms
    of a parsed presentation or assembled from factors, must equal this
    tensor's `struct_readout`, scalar types included.
    """
    ring, fld = pres.ring, pres.ring.field
    lam = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    struct = zeros(fld, (lam, lam, lam))
    for i in range(lam):
        for j in range(i, lam):
            vec = zeros(fld, lam)
            product = ring.monomial(mono_mul(basis[i], basis[j]))
            for m, c in pres.normal_form(product).terms.items():
                vec[index[m]] = c.numerator if c.denominator == 1 else c
            struct[i, j] = vec
            struct[j, i] = vec
    return struct


def vector_reference(A, poly):
    """The class of `poly` in A as the normal form of its image in the presentation ring.

    `ArtinAlgebra.element_row` must give the same class.
    """
    if poly.ring == A.original_ring:
        poly = A.reduce_to_presentation_ring(poly)
    vec = zeros(A.field, A.length)
    for m, c in algebra_ideal(A).normal_form(poly).terms.items():
        vec[A.basis_index[m]] = c
    return vec


def quotient_algebra_reference(algebra, extra_polys):
    """A quotient by `build_algebra` on the algebra's generators joined by the extras.

    `quotient.quotient_algebra` must give the same algebra.
    """
    gens = list(algebra.gb) + [p for p in extra_polys if not p.is_zero()]
    return build_algebra(algebra.ring, gens)


def ideal_span_reference(A, rows):
    """The ideal the elements generate, grown by m*W until its dimension stops growing.

    `ArtinAlgebra.ideal_span`, one pass of products by the basis, must give
    the same subspace.
    """
    current = A.subspace(rows)
    while True:
        nxt = current.add(A.m_times(current))
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def filtration_reference(A):
    """The powers m^0, m^1, ... of A's maximal ideal, each m times the one before, until zero.

    `ArtinAlgebra.filtration`, which reads the unit rows of m^i off the
    degrees of the standard monomials, must give the same reduced echelon
    bases, and raise the same `NotLocalError` when m^i stops shrinking.
    """
    whole = A.subspace([{i: 1} for i in range(A.length)])
    levels = [whole, A.m_times(whole)]
    while levels[-1].dim:
        nxt = A.m_times(levels[-1])
        if nxt.dim >= levels[-1].dim:
            raise NotLocalError(
                f"the quotient is not local: m^{len(levels) - 1} stopped shrinking "
                f"at dimension {levels[-1].dim}")
        levels.append(nxt)
    return levels


def modulo_socle_reference(A):
    """A / soc(A) by `quotient_algebra_reference`; `sums.modulo_socle` must agree."""
    return quotient_algebra_reference(A, A.socle().lifts())


def graded_from_homogeneous(ring, generators):
    """The graded algebra of homogeneous generators, by `build_algebra`."""
    A = build_algebra(ring, generators)
    assert all(g.is_homogeneous() for g in A.gb)
    return A


def gls_split_reference(G):
    """The linear-socle split by substituting the witnesses and running Buchberger.

    `graded.gls_split` must give the same parts, forms and substitution.
    """
    flag, rows = is_gls(G)
    if not flag:
        raise PreconditionError("algebra is not Gorenstein up to linear socle")
    ring = G.ring
    fld = ring.field
    forms = [_linear_form(ring, row) for row in rows]
    witness = dense(fld, rows, ring.nvars)
    pivots = [next(i for i, c in enumerate(row) if c != fld.zero) for row in witness]
    keep = [i for i in range(ring.nvars) if i not in set(pivots)]
    sub = PolyRing(fld, [ring.names[i] for i in keep])
    substitution = {}
    images = [None] * ring.nvars
    for new, old in enumerate(keep):
        images[old] = sub.var(new)
    for row, piv in zip(witness, pivots):
        expr = sub.zero
        for new, old in enumerate(keep):
            c = row[old]
            if c != fld.zero:
                expr = expr - sub.var(new).scale(c)
        images[piv] = expr
        substitution[ring.names[piv]] = expr
    a_gens = [g.compose(sub, images) for g in G.gb]
    a_part = graded_from_homogeneous(sub, a_gens)
    b_ring = PolyRing(fld, [ring.names[i] for i in pivots])
    b_gens = [b_ring.var(i) * b_ring.var(j)
              for i in range(len(pivots)) for j in range(i, len(pivots))]
    b_part = graded_from_homogeneous(b_ring, b_gens)
    return GlsSplit(a_part, b_part, forms, tuple(ring.names[i] for i in pivots), substitution)


def cross_products_outside_reference(Q, left_names, right_names):
    """The cross products y*z outside the ideal of Q, by ideal membership.

    `decompose.check_split` must list the same products.
    """
    var = {n: Q.ring.var(i) for i, n in enumerate(Q.ring.names)}
    ideal = algebra_ideal(Q)
    return [f"{yn}*{zn}" for yn in left_names for zn in right_names
            if not ideal.contains(var[yn] * var[zn])]


def mu_rank_reference(A):
    """mu of the defining ideal I as rank(I) - rank(m*I) modulo m^(s+3), s the Loewy length.

    `resolution.mu_direct` must give the same count.
    """
    ring = A.ring
    gens = A.gb
    if not gens:
        return 0
    bound = A.loewy_length + 2
    monos = []
    for d in range(bound + 1):
        monos.extend(ring.monomials_of_degree(d))
    col = {m: j for j, m in enumerate(monos)}

    def truncated_rows(min_mult_degree):
        rows = []
        for g in gens:
            order = min(sum(t) for t in g.terms)
            for d in range(min_mult_degree, bound - order + 1):
                for m in ring.monomials_of_degree(d):
                    prod = g.mul_term(m, ring.field.one)
                    row = zeros(ring.field, len(monos))
                    for t, c in prod.terms.items():
                        if sum(t) <= bound:
                            row[col[t]] = c
                    rows.append(row)
        return matrix(ring.field, rows, width=len(monos))

    full = rank_reference(ring.field, truncated_rows(0))
    inside = rank_reference(ring.field, truncated_rows(1))
    return full - inside


def mu_direct_reference(A):
    """mu of the defining ideal I as len(monos) - length - rank(m*I) modulo m^(s+2).

    The rows are the reduced basis times each monomial as `Polynomial`
    products (`mul_term`), truncated above degree s+1, s the Loewy length;
    `resolution.mu_direct` must give the same count from its rows built on
    exponent tuples.
    """
    ring = A.ring
    if not A.gb:
        return 0
    bound = A.loewy_length + 1
    monos = _monomial_table(ring.nvars, bound).monos
    col = {m: j for j, m in enumerate(monos)}
    rows = []
    for g in A.gb:
        for d in range(1, bound - min(sum(t) for t in g.terms) + 1):
            for m in ring.monomials_of_degree(d):
                terms = g.mul_term(m, ring.field.one).terms.items()
                rows.append({col[t]: c for t, c in terms if sum(t) <= bound})
    return len(monos) - A.length - len(_kernels.echelon(rows, ring.field.char))


def socle_by_degree_reference(G):
    """The degree-d socles of a graded G, one left kernel per degree piece.

    `graded.socle_by_degree` must give the same echelon rows.
    """
    _homogeneous(G)
    pieces = {}
    for i, m in enumerate(G.basis):
        pieces.setdefault(mono_deg(m), []).append(i)
    out = {}
    for d, idx in sorted(pieces.items()):
        if G.ring.nvars == 0:
            block = identity(G.field, G.length)[idx]
        else:
            stacked = np.hstack(var_matrices(G))[idx, :]
            small = left_kernel_reference(G.field, stacked)
            block = zeros(G.field, (small.shape[0], G.length))
            block[:, idx] = small
        rows, _ = echelon_reference(G.field, block)
        if rows.shape[0]:
            out[d] = rows
    return out


# ---------------------------------------------------------------------------
# apolar classes with every derivative taken from F

def _apply_operator(exps, F):
    out = F
    for i, e in enumerate(exps):
        for _ in range(e):
            out = out.derivative(i)
            if out.is_zero():
                return out
    return out


def apolar_classes_reference(F, ops):
    """The monomials of `ops` up to degree deg F + 1, and rows of their derivatives of F.

    The monomials ascend under Grevlex.  Each monomial differentiates F from
    scratch, one partial derivative per unit of its degree;
    `sums._apolar_classes` must give the rows of this matrix.
    """
    monos = sorted((m for d in range(F.total_degree() + 2) for m in ops.monomials_of_degree(d)),
                   key=ops.order.key)
    derived = [_apply_operator(m, F) for m in monos]
    col = {}
    for p in derived:
        for t in p.terms:
            col.setdefault(t, len(col))
    mat = zeros(ops.field, (len(monos), max(len(col), 1)))
    for i, p in enumerate(derived):
        for t, c in p.terms.items():
            mat[i, col[t]] = c
    return monos, mat


def classes_matrix(field, rows):
    """Dict rows of classes as a matrix, as wide as their largest column."""
    return dense(field, rows, 1 + max((max(row) for row in rows if row), default=0))


# ---------------------------------------------------------------------------
# the dense product layer: mat_mul, multiplication matrices, dense classes

def _integer_rows(a):
    """The rows of a 2-D QQ array, each scaled by the lcm of its denominators.

    Returns the scaled rows as lists of Python ints, and the row denominators.
    Entries may be Fractions or Python ints; rows of ints are returned as they are.
    """
    rows = a.tolist()
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, [1] * len(rows)
    dens = []
    for i, row in enumerate(rows):
        d = lcm(*[x.denominator for x in row])
        if d == 1:
            rows[i] = [x.numerator for x in row]
        else:
            rows[i] = [x.numerator * (d // x.denominator) for x in row]
        dens.append(d)
    return rows, dens


def _quotients(nums, dens):
    """The entries x / d, each an int where it is integral and a Fraction otherwise."""
    return [x // d if x % d == 0 else Fraction(x, d) for x, d in zip(nums, dens)]


class _Columns:
    """A QQ right factor as integer columns and their denominators, converted once."""

    __slots__ = ("shape", "ints", "dens", "integral")

    def __init__(self, b):
        cols, self.dens = _integer_rows(b.T)
        self.shape = b.shape
        self.ints = np.array(cols, dtype=object).reshape(b.shape[1], b.shape[0]).T
        self.integral = set(self.dens) <= {1}


def prepared(field, b):
    """A matrix `b` in the form `mat_mul` takes it fastest as a right factor.

    Over QQ it is converted to integer columns once, for products by the
    same matrix over and over; over GF(p) it is `b` itself.
    """
    return b if linalg.is_prime_field(field) else _Columns(np.asarray(b))


def mat_mul(field, a, b):
    """Exact product of a matrix or vector `a` with a matrix `b`, or with `prepared(b)`.

    Over GF(p) one int64 product of entries in [0, p): each term is below
    p**2 < 2**40 for p < MAX_PRIME = 2**20, so a sum of up to 2**23 terms
    cannot overflow.  Over QQ each row of `a` and each column of `b` is
    scaled by the lcm of its denominators and the product runs on Python
    integers; the result is canonical, an int wherever it is integral.

    Reduced mod p on the prime-field lane; on the QQ lane `a` may also hold
    plain ints.
    """
    if linalg.is_prime_field(field):
        return np.asarray(a, dtype=np.int64).dot(b) % field.p
    a = np.asarray(a)
    if a.ndim == 1:
        return _mat_mul_rational(a.reshape(1, -1), b)[0]
    return _mat_mul_rational(a, b)


def _mat_mul_rational(a, b):
    """The QQ product of a 2-D `a` and `b` on integer rows of `a` and columns of `b`."""
    rows, row_dens = _integer_rows(a)
    left = np.array(rows, dtype=object).reshape(a.shape)
    keep = np.flatnonzero(left.any(axis=0))
    if isinstance(b, _Columns):
        right = b.ints[keep]
    else:
        b = _Columns(b[keep])
        right = b.ints
    out = left[:, keep].dot(right)
    if b.integral and set(row_dens) <= {1}:
        return out
    for i, (row, d) in enumerate(zip(out.tolist(), row_dens)):
        out[i] = _quotients(row, [d * e for e in b.dens])
    return out


def identity(field, n):
    a = zeros(field, (n, n))
    np.fill_diagonal(a, 1)
    return a


def normal_form_table_reference(A):
    """The `struct_readout` of the normal-form tensor of A's own reduced basis and basis.

    `A.struct_table` must equal it, scalar types included (`typed_table`).
    """
    return struct_readout(normal_form_structure_reference(algebra_ideal(A), A.basis))


def struct_readout(struct):
    """A dense structure tensor's nonzeros as a structure table, in `np.nonzero` order.

    Entry l lists the triples (k, j, struct[l, k, j]); this is how an
    algebra read its table off the tensor it kept before it kept the
    table only.
    """
    table = [[] for _ in range(struct.shape[0])]
    at = np.nonzero(struct)
    for l, k, j, c in zip(*(a.tolist() for a in at), struct[at].tolist()):
        table[l].append((k, j, c))
    return table


def dense_struct(A):
    """A's structure table written out: struct[l, k, j] is the coefficient of e_j in e_l*e_k."""
    lam = A.length
    struct = zeros(A.field, (lam, lam, lam))
    for l, entry in enumerate(A.struct_table):
        for k, j, c in entry:
            struct[l, k, j] = c
    return struct


def typed_table(table):
    """A structure table with each scalar's type beside it: equal ones hold equal types."""
    return [[(k, j, c, type(c)) for k, j, c in entry] for entry in table]


def mult_matrix(A, vec):
    """The matrix of multiplication by the element `vec`, acting on row vectors."""
    lam = A.length
    flat = prepared(A.field, dense_struct(A).reshape(lam, lam * lam))
    return mat_mul(A.field, vec, flat).reshape(lam, lam)


def multiply(A, u, v):
    """The product of two elements of A, as one dense product."""
    return mat_mul(A.field, np.asarray(u).reshape(1, -1), mult_matrix(A, v))[0]


def var_matrices(A):
    """The multiplication matrix of each variable of A's ring, a basis element."""
    n = A.ring.nvars
    struct = dense_struct(A)
    return [struct[A.basis_index[tuple(int(i == v) for i in range(n))]] for v in range(n)]


def vec_mult_matrix_row(A, vec, var_index):
    """The element `vec` times one variable, as one dense product."""
    return mat_mul(A.field, vec, var_matrices(A)[var_index])


def _dense_class(memo, mono, matrices, field):
    """The class of `mono`, memoised: its first exponent lowered, times that variable's matrix."""
    vec = memo.get(mono)
    if vec is None:
        i = next(k for k, e in enumerate(mono) if e)
        vec = _dense_class(memo, mono[:i] + (mono[i] - 1,) + mono[i + 1:], matrices, field)
        vec = memo[mono] = mat_mul(field, vec, matrices[i])
    return vec


def _class_row(memo, mono, tables, lam, p):
    """The class of `mono` as a dict row, memoised: its predecessor's times one variable.

    The predecessor is `mono` with its first nonzero exponent lowered, and
    `tables[i]` lists the products by the image of variable i, one entry
    per basis element.
    """
    row = memo.get(mono)
    if row is None:
        i = next(k for k, e in enumerate(mono) if e)
        row = _class_row(memo, mono[:i] + (mono[i] - 1,) + mono[i + 1:], tables, lam, p)
        row = memo[mono] = next(_times([row], tables[i], lam, p, range(lam)), {})
    return row


def monomial_rows_reference(A, monos):
    """The classes of monomials by the memoised recursion on their predecessors.

    `ArtinAlgebra.monomial_row`, filled by one forward pass, must give the
    same rows.
    """
    memo = {(0,) * A.ring.nvars: {0: 1}}
    return [_class_row(memo, m, A._variable_tables, A.length, A.field.char) for m in monos]


def subalgebra_classes_reference(Q, new_ring, images):
    """The classes that `quotient.subalgebra` hands `kernel_algebra`, by the recursion."""
    tables = [Q.product_table([Q.element_row(f)]) for f in images]
    memo = {(0,) * new_ring.nvars: {0: 1}}
    monos = _monomial_table(new_ring.nvars, Q.loewy_length + 1).monos
    return [_class_row(memo, m, tables, Q.length, Q.field.char) for m in monos]


def monomial_vector_reference(A, mono):
    """The class of a monomial as a chain of dense products by the variables' matrices.

    `ArtinAlgebra.monomial_row` must give the same class.
    """
    matrices = [prepared(A.field, mx) for mx in var_matrices(A)]
    return _dense_class({(0,) * A.ring.nvars: one_vector(A)}, mono, matrices, A.field)


def vector_by_products_reference(A, poly):
    """The class of a polynomial as one dense product of its coefficients and monomial classes.

    `ArtinAlgebra.element_row` must give the same class.
    """
    if poly.ring == A.original_ring:
        poly = A.reduce_to_presentation_ring(poly)
    coeffs = matrix(A.field, [list(poly.terms.values())], width=len(poly.terms))[0]
    classes = [monomial_vector_reference(A, m) for m in poly.terms]
    return mat_mul(A.field, coeffs, matrix(A.field, classes, width=A.length))


def annihilator_reference(A, vectors):
    """(0 : the elements) as the left kernel of their stacked multiplication matrices.

    Returns the reduced echelon basis and its pivots; `ArtinAlgebra.annihilator`
    must give the same rows.
    """
    stacked = np.hstack([zeros(A.field, (A.length, 0)),
                         *(mult_matrix(A, np.asarray(v)) for v in vectors)])
    return echelon_reference(A.field, left_kernel_reference(A.field, stacked))


def subalgebra_reference(Q, new_ring, images):
    """The subalgebra that `images` generate, from classes made as chains of dense products.

    The classes enter `kernel_algebra` as they are, so `quotient.subalgebra`
    must give the same algebra.
    """
    matrices = [prepared(Q.field, mult_matrix(Q, vector(Q, f))) for f in images]
    degree = Q.loewy_length + 1
    monos = _monomial_table(new_ring.nvars, degree).monos
    memo = {monos[0]: one_vector(Q)}
    classes = matrix(Q.field, [_dense_class(memo, m, matrices, Q.field) for m in monos],
                            width=Q.length)
    return kernel_algebra(new_ring, degree, sparse_rows(Q.field, classes))


# ---------------------------------------------------------------------------
# kernel algebras from monomials in any order, sorted by Grevlex keys

def _table_algebra_reference(ring, gb, basis, classes):
    """The algebra whose basis products have the classes, looked up by `mono_mul`.

    `gb`, the echelon rows read as the reduced basis, stands in for the one
    read off the classes.
    """
    rows = {mono: sorted(row.items()) for mono, row in classes.items()}
    table = [[(k, j, c) for k, b in enumerate(basis) for j, c in rows.get(mono_mul(a, b), ())]
             for a in basis]
    A = ArtinAlgebra(ring, basis, table)
    A.gb = tuple(gb)
    return A


def _read_echelon_reference(ring, monos, rows):
    """`quotient._read_echelon` on columns in any order, sorted by their Grevlex keys.

    It also reads the reduced basis off the rows, as the library did before
    the basis was read off the classes: the rows whose lead has no one-step
    divisor among the leads, in ascending order.
    """
    p = ring.field.char
    leads = {monos[c] for c in rows}
    top = max(map(mono_deg, monos.values()))
    missing = [m for m in monos.values() if mono_deg(m) == top and m not in leads]
    if missing and ring.nvars:
        raise ArtinsumError(f"kernel presentation needs m^{top} inside the ideal, but "
                            f"{ring.monomial(missing[0])} of degree {top} is not in its span")
    ascending = sorted(monos, key=lambda c: ring.order.key(monos[c]))
    gb = [ring.poly({monos[k]: x for k, x in rows[c].items()}) for c in ascending
          if c in rows and not any(e and monos[c][:i] + (e - 1,) + monos[c][i + 1:] in leads
                                   for i, e in enumerate(monos[c]))]
    standard = [c for c in ascending if c not in rows]
    index = {c: i for i, c in enumerate(standard)}
    classes = {monos[c]: {i: 1} for i, c in enumerate(standard)}
    for c, row in rows.items():
        classes[monos[c]] = {index[k]: (-x) % p if p else -x for k, x in row.items() if k != c}
    return gb, [monos[c] for c in standard], classes


def kernel_algebra_reference(ring, monos, classes):
    """The kernel of monos[j] -> classes[j] for the monomials up to a degree in any order.

    The monomials are sorted by their Grevlex keys, and the elimination
    ranks its columns by (degree in the eliminated variables, Grevlex key);
    `quotient.kernel_algebra`, which takes them already ascending, must give
    the same algebra.
    """
    fld, p = ring.field, ring.field.char
    order = sorted(range(len(monos)), key=lambda j: ring.order.key(monos[j]))
    ordered = [monos[j] for j in order]
    rows = _kernels.left_kernel([classes[j] for j in order], p)
    linear = [part for row in rows.values()
              if (part := {ordered[k].index(1): x for k, x in row.items()
                           if mono_deg(ordered[k]) == 1})]
    if not linear:
        return _table_algebra_reference(
            ring, *_read_echelon_reference(ring, dict(enumerate(ordered)), rows))
    elim = sorted(_kernels.echelon(linear, p))
    keep = [v for v in range(ring.nvars) if v not in elim]
    cols = sorted(range(len(monos)), reverse=True,
                  key=lambda j: (sum(ordered[j][v] for v in elim), ring.order.key(ordered[j])))
    rank = {j: r for r, j in enumerate(cols)}
    lead_rows = _kernels.basis([{rank[k]: x for k, x in row.items()} for row in rows.values()], p)
    first = next(r for r, j in enumerate(cols) if not any(ordered[j][v] for v in elim))
    sub = PolyRing(fld, [ring.names[v] for v in keep])
    kept = {r: tuple(ordered[j][v] for v in keep) for r, j in enumerate(cols[first:], first)}
    A = _table_algebra_reference(sub, *_read_echelon_reference(
        sub, kept, {c: row for c, row in lead_rows.items() if c >= first}))
    tails = {ordered[cols[c]].index(1): {kept[k]: x for k, x in row.items() if k >= first}
             for c, row in lead_rows.items() if mono_deg(ordered[cols[c]]) == 1}
    A.original_ring = ring
    A.reduction = (sub, [-sub.poly(tails[v]) if v in tails else sub.var(keep.index(v))
                         for v in range(ring.nvars)])
    return A
