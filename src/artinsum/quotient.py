"""Artinian local algebras as finite-dimensional vector spaces with multiplication.

`ArtinAlgebra` is the one object that carries an algebra k[x]/I: the
reduced Grevlex basis of I (`gb`), its standard monomials and the
sparse structure table.  Its ideal lies inside the square of the maximal ideal,
so the variable count equals the embedding dimension, and the powers of m
failing to shrink to zero show that the quotient is not local.

Elements are coefficient vectors over the standard-monomial basis
(ascending default order), held as dict rows from column to nonzero
scalar, at every entry point too: rows a caller passes in go through one
check of their columns and scalars (`_checked_rows`).  The structure
table lists the products of the basis elements and is gathered from a
table of monomial classes.  Every product is one pass over dict rows
against a sparse product table (`_times`): the algebra's
`times_table`, the products by the variables, for m*W, for the classes of
monomials and for the resolution, or the table of any elements
(`product_table`, gathered from the structure table, `struct_table`) for
products by elements and annihilators.  Only parsed generator lists, an
`IdealPresentation`, take the class table from Buchberger and normal forms
(`build_algebra`); text that is not minimal is then taken as the
subalgebra its variables generate.  Every derived algebra, a subalgebra or
a quotient, has an ideal containing a power of m: it is given by the
classes of the monomials up to that degree, as dict rows, and the left
kernel of those classes, taken with the monomials in increasing order, is
the reduced echelon basis of its truncation (`kernel_algebra`): dict rows
keyed by their lead column, from which `_read_echelon` reads the reduced
basis and the class of every monomial.
When the ideal holds linear forms, the pivots of their echelon form are
eliminated: the rows are echeloned once more, with the columns ranked
first by their degree in the eliminated variables, and give the reduced
basis and classes on the kept variables and the image of each eliminated
one.
"""

from functools import cached_property

from . import _kernels, linalg
from .errors import (ArtinsumError, NotAnIdealError, NotLocalError, NotZeroDimensionalError,
                     ResourceGuardError, RingMismatchError, UnitIdealError)
from .grobner import IdealPresentation
from .poly import PolyRing, mono_deg, mono_mul


class Subspace:
    """A subspace of an algebra, held as its unique reduced echelon basis.

    `basis` maps each pivot column, in increasing order, to its monic dict
    row (`_kernels.basis`).
    """

    def __init__(self, algebra, basis):
        self.algebra = algebra
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, row):
        """Whether an element, a dict row, lies in the subspace."""
        (row,) = _checked_rows(self.algebra, [row])
        return not _kernels.reduce(row, self.basis, self.algebra.field.char)

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
        return [self.algebra.lift(row) for row in self.basis.values()]

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
    ascending, and `basis` its standard monomials, 1 first.  Entry l of
    `struct_table`, the one multiplication data, lists the triples (k, j, c)
    with e_l * e_k = sum of c*e_j, sorted by (k, j); c is an int in [0, p)
    over GF(p), and over QQ an int exactly where it is integral.  It is
    symmetric, so entry k also lists the products of e_k by each e_l.  The
    products by the variables are gathered from it into `times_table`.
    Elements are dict rows over the basis: the class of each monomial is
    one, its predecessor's times one variable, memoised (`monomial_row`),
    and `element_row` gives the class of a polynomial.  An algebra
    presented on fewer variables than `original_ring` keeps the
    substitution onto its ring as `reduction`, (ring, images).
    """

    def __init__(self, ring, gb, basis, table):
        self.ring = ring
        self.gb = tuple(gb)
        self.field = ring.field
        self.original_ring = ring
        self.reduction = None
        self.basis = tuple(basis)
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self.struct_table = table
        self._classes = {(0,) * self.ring.nvars: {self.basis_index[(0,) * self.ring.nvars]: 1}}
        self._build_filtration()
        self._socle = None
        self._betti_cache = None
        self._graded = None

    # -- construction --------------------------------------------------------

    def product_table(self, elements):
        """Entry l lists the triples (v, j, c) with e_l * elements[v] = sum of c*e_j, by v.

        `elements` are dict rows; each is multiplied through the entries of
        `struct_table` at its nonzeros, so only its nonzero products are made.
        """
        p = self.field.char
        table = [[] for _ in range(self.length)]
        for v, element in enumerate(elements):
            rows = {}
            for k, x in element.items():
                for l, j, c in self.struct_table[k]:
                    row = rows.get(l)
                    if row is None:
                        row = rows[l] = {}
                    row[j] = row.get(j, 0) + x * c
            for l, row in rows.items():
                table[l] += [(v, j, c) for j, c in _canonical(row, p).items()]
        return table

    @cached_property
    def times_table(self):
        """Entry l lists the triples (v, j, c) with e_l * x_v = sum of c*e_j, by v.

        The filtration builds it, so it is made once per algebra.  A variable
        outside the basis (a presentation that is not minimal) leads a linear
        element of the reduced basis, and its class is minus that element's
        tail.
        """
        variables = []
        for v in range(self.ring.nvars):
            mono = tuple(int(i == v) for i in range(self.ring.nvars))
            idx = self.basis_index.get(mono)
            if idx is None:
                g = next(g for g in self.gb if g.leading()[0] == mono)
                tail = self.ring.monomial(mono) - g
                variables.append({self.basis_index[m]: c for m, c in tail.terms.items()})
            else:
                variables.append({idx: 1})
        return self.product_table(variables)

    @cached_property
    def _variable_tables(self):
        """Per variable v, the entries of `times_table` that multiply by x_v."""
        return [[[t for t in entry if t[0] == v] for entry in self.times_table]
                for v in range(self.ring.nvars)]

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
            self._socle = self._annihilator(self.times_table)
        return self._socle

    @property
    def type(self):
        return self.socle().dim

    def is_gorenstein(self):
        return self.type == 1

    # -- elements ------------------------------------------------------------

    def reduce_to_presentation_ring(self, poly):
        """Carry a polynomial of the original ring through the recorded elimination."""
        return poly if self.reduction is None else poly.compose(*self.reduction)

    def monomial_row(self, mono):
        """The class of a monomial of the presentation ring as a dict row.

        The row is memoised and shared: callers copy it before changing it.
        """
        lam = self.length
        return _class_row(self._classes, mono, self._variable_tables, lam, self.field.char)

    def element_row(self, poly):
        """The class of `poly` as a dict row over the standard basis."""
        if poly.ring == self.original_ring:
            poly = self.reduce_to_presentation_ring(poly)
        if poly.ring != self.ring:
            raise RingMismatchError(f"a polynomial of {poly.ring} has no class in {self.ring}")
        out = {}
        for m, c in poly.terms.items():
            for k, x in self.monomial_row(m).items():
                out[k] = out.get(k, 0) + c * x
        return _canonical(out, self.field.char)

    def lift(self, row):
        """The canonical polynomial representative with standard-monomial support."""
        (row,) = _checked_rows(self, [row])
        return self.ring.poly({self.basis[k]: c for k, c in row.items()})

    def subspace(self, rows):
        """The span of elements, dict rows."""
        return Subspace(self, _kernels.basis(_checked_rows(self, rows), self.field.char))

    # -- ideals and annihilators ----------------------------------------------

    def annihilator(self, rows):
        """(0 : given elements, dict rows) as a subspace."""
        return self._annihilator(self.product_table(_checked_rows(self, rows)))

    def _annihilator(self, table):
        """The elements w with w*e = 0 for every product table entry: the table's left kernel.

        Row l holds the coefficient of e_j in e_l * element v at column
        v*lambda + j.
        """
        lam, p = self.length, self.field.char
        rows = [{v * lam + j: c for v, j, c in entry} for entry in table]
        return Subspace(self, _kernels.basis(_kernels.left_kernel(rows, p).values(), p))

    def ideal_span(self, rows):
        """Smallest ideal containing the given elements, dict rows."""
        current = self.subspace(rows)
        while True:
            nxt = current.add(self.m_times(current))
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def m_times(self, sub):
        """The subspace m * W for a subspace W: the span of its rows times the variables."""
        return self.span_times(sub, self.times_table)

    def span_times(self, sub, table):
        """The span of the rows of W times the elements whose products `table` lists."""
        lam, p = self.length, self.field.char
        return Subspace(self, _kernels.basis(
            _times(sub.basis.values(), table, lam, p, range(lam)), p))

    def minimal_generators(self, sub):
        """mu(W) and representatives for an ideal W: monic dict rows extending m*W."""
        mw = self.m_times(sub)
        if not sub.contains_space(mw):
            raise NotAnIdealError("minimal generators requested for a non-ideal subspace")
        reps = _kernels.complement(sub.basis.values(), mw.basis, self.field.char)
        return len(reps), reps

    def same_presentation(self, other):
        """Whether `other` is presented on the same ring by the same reduced basis."""
        return (self.ring, self.gb) == (other.ring, other.gb)

    def __repr__(self):
        return f"<algebra {self.ring} / {len(self.gb)} gens, dim {self.length}>"


def _checked_rows(A, rows):
    """Elements of A given by a caller as canonical dict rows, new dicts.

    A column must lie in [0, length); a scalar is reduced mod p over GF(p),
    and a zero entry is dropped.
    """
    lam, p = A.length, A.field.char
    out = []
    for row in rows:
        for k in row:
            if not (isinstance(k, int) and 0 <= k < lam):
                raise ValueError(f"column {k!r} outside the basis of length {lam}")
        out.append(_canonical(row, p))
    return out


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


def _canonical(row, p):
    """The nonzero entries of a row, reduced mod p over GF(p) (p = 0 over QQ)."""
    if p:
        return {k: y for k, x in row.items() if (y := x % p)}
    return {k: x for k, x in row.items() if x}


def _times(rows, table, lam, p, order):
    """Each row times each element of a product table, the nonzero products only.

    `table` is an algebra's `times_table`, for the variables, or a
    `product_table` of elements; each length-lam block of a row is
    multiplied on its own, and column c of a product is renamed order[c].  One walk over a row's entries opens a product
    row for element v only when some entry has a nonzero product by it.
    """
    for row in rows:
        out = {}
        for col, c in row.items():
            base = col - col % lam
            for v, j, s in table[col % lam]:
                prod = out.get(v)
                if prod is None:
                    prod = out[v] = {}
                k = order[base + j]
                prod[k] = prod.get(k, 0) + c * s
        for prod in out.values():
            if prod := _canonical(prod, p):
                yield prod


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
    # an integral coefficient is held as an int, on both lanes
    A = _table_algebra(pres.ring, pres.groebner_basis(), basis, {
        mono: {index[m]: c.numerator if c.denominator == 1 else c
               for m, c in pres.normal_form(pres.ring.monomial(mono)).terms.items()}
        for mono in products})
    if A.power(1).dim - A.power(2).dim == A.ring.nvars:
        return A
    return subalgebra(A, A.ring, A.ring.gens())


def _table_algebra(ring, gb, basis, classes):
    """The algebra whose basis products have the classes, canonical dict rows, or else are 0."""
    rows = {mono: sorted(row.items()) for mono, row in classes.items()}
    table = [[(k, j, c) for k, b in enumerate(basis) for j, c in rows.get(mono_mul(a, b), ())]
             for a in basis]
    return ArtinAlgebra(ring, gb, basis, table)


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
    classes = {monos[c]: {i: 1} for i, c in enumerate(standard)}
    for c, row in rows.items():
        classes[monos[c]] = {index[k]: (-x) % p if p else -x for k, x in row.items() if k != c}
    return gb, [monos[c] for c in standard], classes


def kernel_algebra(ring, monos, classes):
    """The algebra k[ring]/I, on the variables that minimally generate m.

    I is the kernel of the map sending `monos[j]` to the dict row
    `classes[j]` (canonical scalars), `monos` holds every monomial of `ring`
    up to a degree D, and m^D lies in I.  The left kernel of the classes,
    taken with the monomials in increasing default order
    (`_kernels.left_kernel`), is the reduced echelon basis of
    I ∩ span(monos), the linear dependencies from which FGLM reads a
    reduced basis: its dict rows are keyed by free column, and each is
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
    if len(monos) > linalg.MAX_ECHELON_DIM:
        raise ResourceGuardError("max_echelon_dim", linalg.MAX_ECHELON_DIM, len(monos),
                                 "matrix dimension")
    fld, p = ring.field, ring.field.char
    order = sorted(range(len(monos)), key=lambda j: ring.order.key(monos[j]))
    ordered = [monos[j] for j in order]
    rows = _kernels.left_kernel([classes[j] for j in order], p)
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
    A.reduction = (sub, images)
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
    lam, p = Q.length, Q.field.char
    tables = [Q.product_table([Q.element_row(f)]) for f in images]
    monos = _monomials_up_to(new_ring, Q.loewy_length + 1)
    memo = {monos[0]: Q.monomial_row((0,) * Q.ring.nvars)}
    return kernel_algebra(new_ring, monos, [_class_row(memo, m, tables, lam, p) for m in monos])


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
    J = A.ideal_span([A.element_row(p) for p in extra_polys])
    if J.dim == A.length:
        raise UnitIdealError("1 lies in the ideal")
    monos = _monomials_up_to(A.ring, A.loewy_length + 1)
    p = A.field.char
    return kernel_algebra(A.ring, monos,
                          [_kernels.reduce(dict(A.monomial_row(m)), J.basis, p) for m in monos])


def square_zero_algebra(ring):
    """k[ring]/m^2: 1 and the variables are independent, and every quadric is zero."""
    monos = _monomials_up_to(ring, 2)
    return kernel_algebra(ring, monos, [{j: 1} if j <= ring.nvars else {}
                                        for j in range(len(monos))])
