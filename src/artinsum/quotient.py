"""Artinian local algebras as finite-dimensional vector spaces with multiplication.

`ArtinAlgebra` is the one object that carries an algebra k[x]/I: the
reduced Grevlex basis of I (`gb`), its standard monomials and the
structure tensor.  Its ideal lies inside the square of the maximal ideal,
so the variable count equals the embedding dimension, and the powers of m
failing to shrink to zero show that the quotient is not local.

Elements are coefficient vectors over the standard-monomial basis
(ascending default order); the structure tensor holds the products of the
basis elements and is scattered from a table of monomial classes; m*W is
one product of a subspace's dict rows (`_times`, shared with the
resolution).  Only parsed generator lists, an `IdealPresentation`, take
that table from Buchberger and normal forms (`build_algebra`); text that
is not minimal is then taken as the subalgebra its variables generate.
Every derived algebra, a subalgebra or a quotient, has an ideal containing
a power of m: it is given by the classes of the monomials up to that
degree, and the left kernel of those classes, taken with the monomials in
increasing order, is the reduced echelon basis of its truncation
(`kernel_algebra`): dict rows keyed by their lead column, from which
`_read_echelon` reads the reduced basis and the class of every monomial.
When the ideal holds linear forms, the pivots of their echelon form are
eliminated: the rows are echeloned once more, with the columns ranked
first by their degree in the eliminated variables, and give the reduced
basis and classes on the kept variables and the image of each eliminated
one.
"""

from functools import cached_property

import numpy as np

from . import _kernels, linalg
from .errors import (ArtinsumError, NotAnIdealError, NotLocalError,
                     NotZeroDimensionalError, RingMismatchError, UnitIdealError)
from .grobner import IdealPresentation
from .poly import PolyRing, mono_deg, mono_mul


class Subspace:
    """A subspace of an algebra, held as its unique reduced echelon basis.

    `basis` maps each pivot column, in increasing order, to its monic dict
    row (`_kernels.basis`); the dense `rows` are made on first use.
    """

    def __init__(self, algebra, basis):
        self.algebra = algebra
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def rows(self):
        """The basis rows as a dense matrix, in pivot order."""
        return linalg.dense(self.algebra.field, self.basis.values(), self.algebra.length)

    def _residues(self, vec):
        A = self.algebra
        rows = linalg.sparse_rows(A.field, np.reshape(vec, (-1, A.length)))
        return [_kernels.reduce(row, self.basis, A.field.char) for row in rows]

    def reduce(self, vec):
        """The residue of a vector, or of each row of a matrix: zero at every pivot."""
        A = self.algebra
        return linalg.dense(A.field, self._residues(vec), A.length).reshape(np.shape(vec))

    def contains(self, vec):
        """Whether a vector, or every row of a matrix, lies in the subspace."""
        return not any(self._residues(vec))

    def contains_space(self, other):
        p = self.algebra.field.char
        return not any(_kernels.reduce(dict(row), self.basis, p) for row in other.basis.values())

    def add(self, other):
        rows = [dict(row) for row in (*self.basis.values(), *other.basis.values())]
        return Subspace(self.algebra, _kernels.basis(rows, self.algebra.field.char))

    def intersect(self, other):
        """U ∩ W: rows led in the right half of an echelon of (u | u), (w | 0) (Zassenhaus)."""
        n, p = self.algebra.length, self.algebra.field.char
        rows = [{**row, **{n + k: x for k, x in row.items()}} for row in self.basis.values()]
        rows += [dict(row) for row in other.basis.values()]
        meet = [{k - n: x for k, x in row.items()}
                for c, row in _kernels.echelon(rows, p).items() if c >= n]
        return Subspace(self.algebra, _kernels.basis(meet, p))

    def lifts(self):
        """The echelon basis as explicit polynomials over the standard monomials."""
        return [self.algebra.lift(r) for r in self.rows]

    def is_ideal(self):
        return self.contains_space(self.algebra.m_times(self))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.algebra is self.algebra
                and self.basis == other.basis)

    def __hash__(self):
        return hash((id(self.algebra), self.dim))

    def __repr__(self):
        return f"<subspace dim {self.dim} of algebra dim {self.algebra.length}>"


class ArtinAlgebra:
    """Zero-dimensional local quotient with basis, multiplication, and filtration.

    `gb` is the reduced Groebner basis of the ideal in the default order,
    ascending, `basis` its standard monomials and `struct[i, j]` the class
    of basis[i] * basis[j].  The tensor and the variables' multiplication
    matrices enter dense products in `linalg.prepared` form, and the
    matrices' nonzeros (`var_tables`) the products m*W, each made once.
    """

    def __init__(self, ring, gb, basis, struct):
        self.ring = ring
        self.gb = tuple(gb)
        self.field = ring.field
        self.original_ring = ring
        self.reduction_steps = ()
        self.basis = tuple(basis)
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self.struct = struct
        self._build_var_matrices()
        self._classes = {(0,) * self.ring.nvars: self.one_vector()}
        self._build_filtration()
        self._socle = None
        self._betti_cache = None
        self._graded = None

    # -- construction --------------------------------------------------------

    def _build_var_matrices(self):
        # a variable outside the basis (a presentation that is not minimal)
        # leads a linear element of the reduced basis and is minus its tail
        self.var_matrices = []
        for v in range(self.ring.nvars):
            mono = tuple(int(i == v) for i in range(self.ring.nvars))
            idx = self.basis_index.get(mono)
            if idx is None:
                g = next(g for g in self.gb if g.leading()[0] == mono)
                tail = _coordinates(self.ring.monomial(mono) - g, self.basis_index)
                self.var_matrices.append(self.mult_matrix(tail))
            else:
                self.var_matrices.append(self.struct[idx])
        self._var_operands = [linalg.prepared(self.field, mx) for mx in self.var_matrices]

    @cached_property
    def var_tables(self):
        """var_tables[v][l] lists the pairs (j, c) with e_l * x_v = sum of c*e_j."""
        return [[list(r.items()) for r in _kernels.sparse_rows(mx)] for mx in self.var_matrices]

    @cached_property
    def _struct_operand(self):
        lam = self.length
        return linalg.prepared(self.field, self.struct.reshape(lam, lam * lam))

    def _build_filtration(self):
        whole = Subspace(self, {i: {i: 1} for i in range(self.length)})
        levels = [whole, self.m_times(whole)]
        while levels[-1].dim:
            nxt = self.m_times(levels[-1])
            if nxt.dim >= levels[-1].dim:
                raise NotLocalError(
                    f"the quotient is not local: m^{len(levels) - 1} stopped shrinking "
                    f"at dimension {levels[-1].dim}")
            levels.append(nxt)
        self.filtration = levels

    def _span(self, a):
        """The span of the rows of a matrix."""
        return Subspace(self, linalg.pivot_basis(self.field, a))

    # -- invariants ----------------------------------------------------------

    @property
    def length(self):
        return len(self.basis)

    @property
    def loewy_length(self):
        return len(self.filtration) - 2

    @property
    def edim(self):
        return self.ring.nvars

    def power(self, i):
        """The subspace m^i (the zero subspace beyond the Loewy length)."""
        if i < 0:
            raise ValueError("negative power")
        if i >= len(self.filtration):
            return self.filtration[-1]
        return self.filtration[i]

    def hilbert_function(self):
        dims = [lvl.dim for lvl in self.filtration]
        return tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1))

    def socle(self):
        if self._socle is None:
            self._socle = self._annihilator(self.var_matrices)
        return self._socle

    @property
    def type(self):
        return self.socle().dim

    def is_gorenstein(self):
        return self.type == 1

    # -- elements ------------------------------------------------------------

    def reduce_to_presentation_ring(self, poly):
        """Carry a polynomial of the original ring through recorded eliminations."""
        for target, images in self.reduction_steps:
            poly = poly.compose(target, images)
        return poly

    def monomial_vector(self, mono):
        """Coefficient vector of the class of a monomial of the presentation ring."""
        return _product_class(self._classes, mono, self._var_operands, self.field)

    def vector(self, poly):
        """Coefficient vector of the class of `poly` over the standard basis."""
        if poly.ring == self.original_ring and self.reduction_steps:
            poly = self.reduce_to_presentation_ring(poly)
        if poly.ring != self.ring:
            raise RingMismatchError(f"a polynomial of {poly.ring} has no class in {self.ring}")
        coeffs = linalg.matrix(self.field, [list(poly.terms.values())])[0]
        classes = [self.monomial_vector(m) for m in poly.terms]
        return linalg.mat_mul(self.field, coeffs, linalg.matrix(self.field, classes,
                                                                width=self.length))

    def lift(self, vec):
        """The canonical polynomial representative with standard-monomial support."""
        return self.ring.poly({m: c for m, c in zip(self.basis, vec) if c})

    def one_vector(self):
        vec = linalg.zeros(self.field, self.length)
        vec[self.basis_index[(0,) * self.ring.nvars]] = self.field.one
        return vec

    def mult_matrix(self, vec):
        """Matrix of multiplication by the element `vec` (acting on row vectors)."""
        lam = self.length
        return linalg.mat_mul(self.field, vec, self._struct_operand).reshape(lam, lam)

    def multiply(self, u, v):
        return linalg.mat_mul(self.field, u.reshape(1, -1), self.mult_matrix(v))[0]

    def vec_mult_matrix_row(self, vec, var_index):
        return linalg.mat_mul(self.field, vec, self._var_operands[var_index])

    def subspace(self, rows):
        return self._span(linalg.matrix(self.field, rows, width=self.length))

    # -- ideals and annihilators ----------------------------------------------

    def annihilator(self, vectors):
        """(0 : given elements) as a subspace."""
        return self._annihilator([self.mult_matrix(np.asarray(v)) for v in vectors])

    def _annihilator(self, mats):
        """The elements that all the multiplication matrices `mats` send to zero."""
        stacked = np.hstack([linalg.zeros(self.field, (self.length, 0)), *mats])
        return self._span(linalg.left_kernel(self.field, stacked))

    def ideal_span(self, vectors):
        """Smallest ideal containing the given elements."""
        current = self.subspace(list(vectors))
        while True:
            nxt = current.add(self.m_times(current))
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def m_times(self, sub):
        """The subspace m * W for a subspace W: the span of its rows times the variables."""
        lam, p = self.length, self.field.char
        return Subspace(self, _kernels.basis([_times(row, table, lam, p, range(lam))
                                              for table in self.var_tables
                                              for row in sub.basis.values()], p))

    def minimal_generators(self, sub):
        """mu(W) and echelon-lift representatives for an ideal W."""
        mw = self.m_times(sub)
        if not sub.contains_space(mw):
            raise NotAnIdealError("minimal generators requested for a non-ideal subspace")
        reps = linalg.complement_rows(self.field, sub.rows, mw.basis)
        return len(reps), reps

    def same_presentation(self, other):
        """Whether `other` is presented on the same ring by the same reduced basis."""
        return (self.ring, self.gb) == (other.ring, other.gb)

    def __repr__(self):
        return f"<algebra {self.ring} / {len(self.gb)} gens, dim {self.length}>"


def _product_class(memo, mono, matrices, field):
    """The class of `mono`, memoised: its first exponent lowered, times that variable."""
    vec = memo.get(mono)
    if vec is None:
        i = next(k for k, e in enumerate(mono) if e)
        vec = _product_class(memo, mono[:i] + (mono[i] - 1,) + mono[i + 1:], matrices, field)
        vec = memo[mono] = linalg.mat_mul(field, vec, matrices[i])
    return vec


def _canonical(row, p):
    """The nonzero entries of a row, reduced mod p over GF(p) (p = 0 over QQ)."""
    if p:
        return {k: y for k, x in row.items() if (y := x % p)}
    return {k: x for k, x in row.items() if x}


def _times(row, table, lam, p, order):
    """The row times the element whose products `table` lists, column c renamed order[c].

    Each length-lam block of the row is multiplied by the element on its own.
    """
    out = {}
    for col, c in row.items():
        base = col - col % lam
        for j, s in table[col % lam]:
            k = order[base + j]
            out[k] = out.get(k, 0) + c * s
    return _canonical(out, p)


def _coordinates(poly, index):
    vec = linalg.zeros(poly.ring.field, len(index))
    for m, c in poly.terms.items():
        vec[index[m]] = c
    return vec


def build_algebra(pres_or_ring, generators=None):
    """Construct the Artinian local algebra of a generator list.

    Accepts an IdealPresentation or (ring, generators).  Raises UnitIdealError,
    NotZeroDimensionalError, or NotLocalError when the input is unsuitable.
    Parsed generators bound no degree of the ideal, so only this runs
    Buchberger and normal forms.  When dim m/m^2 falls short of the variable
    count, the returned algebra is the subalgebra that all the variables
    generate, which `kernel_algebra` presents on the variables that
    minimally generate m; it still takes classes of polynomials in the
    given ring.
    """
    if generators is not None:
        pres = IdealPresentation(pres_or_ring, generators)
    else:
        pres = pres_or_ring
    if pres.is_unit_ideal():
        raise UnitIdealError("1 lies in the ideal")
    if not pres.is_zero_dimensional():
        raise NotZeroDimensionalError(
            "no pure variable power among the leading terms; quotient is infinite-dimensional")
    basis = pres.standard_monomials()
    index = {m: i for i, m in enumerate(basis)}
    products = dict.fromkeys(mono_mul(a, b) for a in basis for b in basis)
    A = _table_algebra(pres.ring, pres.groebner_basis(), basis, {
        mono: _coordinates(pres.normal_form(pres.ring.monomial(mono)), index)
        for mono in products})
    if A.power(1).dim - A.power(2).dim == A.ring.nvars:
        return A
    return subalgebra(A, A.ring, A.ring.gens())


def _table_algebra(ring, gb, basis, classes):
    """The algebra whose basis products have the classes in the table, or else are zero."""
    zero = linalg.zeros(ring.field, len(basis))
    struct = np.array([[classes.get(mono_mul(a, b), zero) for b in basis] for a in basis])
    return ArtinAlgebra(ring, gb, basis, struct.reshape((len(basis),) * 3))


def _read_echelon(ring, monos, rows):
    """The reduced basis, standard monomials and classes of the ideal I that `rows` span.

    `monos` maps columns to the monomials of `ring` up to a degree D, m^D
    lies in I, and `rows`, dict rows over those columns keyed by lead
    column, are the reduced echelon basis of I ∩ span(monos): each row is
    one at its lead, which is its largest monomial, and zero at the other
    leads, so the leads are the leading monomials of I up to degree D.  The
    rows whose lead has no one-step divisor among the leads, in ascending
    order, are the reduced Groebner basis; the columns that lead no row are
    the standard monomials, and the class of a lead is minus its row's tail.
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
    tails = [{index[k]: (-x) % p if p else -x for k, x in row.items() if k != c}
             for c, row in rows.items()]
    vectors = linalg.dense(ring.field, [{i: 1} for i in range(len(standard))] + tails,
                           len(standard))
    classes = dict(zip([monos[c] for c in (*standard, *rows)], vectors))
    return gb, [monos[c] for c in standard], classes


def kernel_algebra(ring, monos, classes):
    """The algebra k[ring]/I, on the variables that minimally generate m.

    I is the kernel of the map sending `monos[j]` to row j of `classes`,
    `monos` holds every monomial of `ring` up to a degree D, and m^D lies
    in I.  The left kernel of the classes, taken with the monomials in
    increasing default order (`_kernels.kernel`), is the reduced echelon
    basis of I ∩ span(monos), the linear dependencies from which FGLM reads
    a reduced basis: its dict rows are keyed by free column, and each is
    one at its free column, which is its largest monomial, and zero at the
    other free columns.  The pivots of the linear parts' echelon form, in
    declaration order, are eliminated; there are none when I lies inside
    m^2.  Only then are the rows echeloned again, with each column renamed
    to its rank in decreasing order of (degree in the eliminated variables,
    default order).  The rows led by a kept monomial are then the reduced
    echelon basis of I ∩ k[kept], the minimal ideal, because the default
    order restricts to the kept variables; and the row led by an eliminated
    variable is that variable minus the standard-monomial lift of its
    class.  One reduction step carries the given ring to the kept one.
    """
    fld, p = ring.field, ring.field.char
    order = sorted(range(len(monos)), key=lambda j: ring.order.key(monos[j]))
    ordered = [monos[j] for j in order]
    image = linalg.sparse_rows(fld, np.asarray(classes)[order].T)
    rows = _kernels.kernel(_kernels.echelon(image, p, reduced=True), len(monos), p)
    linear = [part for row in rows.values()
              if (part := {ordered[k].index(1): x for k, x in row.items()
                           if mono_deg(ordered[k]) == 1})]
    if not linear:
        return _table_algebra(ring, *_read_echelon(ring, dict(enumerate(ordered)), rows))
    elim = sorted(_kernels.echelon(linear, p))
    keep = [v for v in range(ring.nvars) if v not in elim]
    cols = sorted(range(len(monos)), reverse=True,
                  key=lambda j: (sum(ordered[j][v] for v in elim), ring.order.key(ordered[j])))
    rank = {j: r for r, j in enumerate(cols)}
    lead_rows = _kernels.basis([{rank[k]: x for k, x in row.items()} for row in rows.values()], p)
    first = next(r for r, j in enumerate(cols) if not any(ordered[j][v] for v in elim))
    sub = PolyRing(fld, [ring.names[v] for v in keep])
    kept = {r: tuple(ordered[j][v] for v in keep) for r, j in enumerate(cols[first:], first)}
    A = _table_algebra(sub, *_read_echelon(sub, kept, {c: row for c, row in lead_rows.items()
                                                       if c >= first}))
    # the rows led by a variable are those of the eliminated ones
    tails = {ordered[cols[c]].index(1): {kept[k]: x for k, x in row.items() if k >= first}
             for c, row in lead_rows.items() if mono_deg(ordered[cols[c]]) == 1}
    images = [-sub.poly(tails[v]) if v in tails else sub.var(keep.index(v))
              for v in range(ring.nvars)]
    A.original_ring = ring
    A.reduction_steps = ((sub, images),)
    return A


def _monomials_up_to(ring, degree):
    return [m for d in range(degree + 1) for m in ring.monomials_of_degree(d)]


def subalgebra(Q, new_ring, images):
    """The subalgebra of Q that `images` generate, presented on `new_ring`.

    `images` are polynomials of Q's ring in its maximal ideal, one per
    variable of `new_ring`.  Monomials above the Loewy length map to zero,
    so the kernel of the map up to one degree beyond it is the truncated
    ideal.
    """
    matrices = [linalg.prepared(Q.field, Q.mult_matrix(Q.vector(p))) for p in images]
    monos = _monomials_up_to(new_ring, Q.loewy_length + 1)
    memo = {monos[0]: Q.one_vector()}
    mat = linalg.matrix(Q.field, [_product_class(memo, m, matrices, Q.field) for m in monos],
                        width=Q.length)
    return kernel_algebra(new_ring, monos, mat)


def presentation_in_coordinates(Q, new_ring, images):
    """Q presented on a new minimal generating set of m, lifted by `images`."""
    rebuilt = subalgebra(Q, new_ring, images)
    if rebuilt.length != Q.length or rebuilt.hilbert_function() != Q.hilbert_function():
        raise ArtinsumError("coordinate change did not preserve the algebra")
    return rebuilt


def algebra_from_text(text):
    from .parse import parse_presentation
    ring, gens = parse_presentation(text)
    return build_algebra(ring, gens)


def quotient_algebra(algebra, extra_polys):
    """The algebra modulo the ideal J of extra presentation polys, on residues modulo J."""
    A = algebra
    J = A.ideal_span([A.vector(p) for p in extra_polys])
    if J.dim == A.length:
        raise UnitIdealError("1 lies in the ideal")
    monos = _monomials_up_to(A.ring, A.loewy_length + 1)
    images = linalg.matrix(A.field, [A.monomial_vector(m) for m in monos], width=A.length)
    return kernel_algebra(A.ring, monos, J.reduce(images))


def square_zero_algebra(ring):
    """k[ring]/m^2: 1 and the variables are independent, and every quadric is zero."""
    monos = _monomials_up_to(ring, 2)
    return kernel_algebra(ring, monos, linalg.identity(ring.field, len(monos))[:, :ring.nvars + 1])
