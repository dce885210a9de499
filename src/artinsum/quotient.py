"""Artinian local algebras as finite-dimensional vector spaces with multiplication.

`ArtinAlgebra` is the one object that carries an algebra k[x]/I: its
standard monomials under Grevlex and the classes of monomials, from which
its sparse tables are read.  Its ideal lies inside the square of the maximal
ideal, so every variable is a basis element and the variable count equals
the embedding dimension, and the powers of m failing to shrink to zero show
that the quotient is not local (but for the algebra that `build_algebra`
hands to a quotient).  The reduced Grevlex basis of I (`gb`) is read off the
classes on its first read, by the one rule every algebra shares: each
minimal monomial outside the basis minus the lift of its class.

Elements are coefficient vectors over the standard-monomial basis (ascending
Grevlex order), held as dict rows from column to nonzero scalar, at every
entry point too: rows a caller passes in go through one check of their
columns and scalars (`_checked_rows`).  The structure table lists the
products of the basis elements.  Every product is one pass over dict rows
against a sparse product table (`_times`): the algebra's `times_table`, the
products by the variables, for m*W, for the classes of monomials and for the
resolution, or the table of any elements (`product_table`, gathered from the
structure table) for products by elements and annihilators.  Over GF(p) every
such walk reduces each entry mod p as it accumulates, so its rows are
canonical when they are made.  The powers of m are read off the degrees of
the standard monomials: the unit rows of those of degree >= i lie in m^i, so
a graded algebra's powers are those suffixes, and otherwise only the
products of m^(i-1) by the variables that fall below degree i are
echeloned.  Only parsed generator lists take the classes from Buchberger and
normal forms (`build_algebra`), on the parsed ring; text that is not minimal
is then taken modulo zero, so that `kernel_algebra`, the one rule that drops
variables, presents it.  Every derived algebra, a subalgebra or a quotient,
has an ideal containing a power of m: it is given by the classes of the
monomials up to that degree, as dict rows.  The monomials come from one
shared table per variable count and degree, in ascending Grevlex order with
each monomial's predecessor (`_monomial_table`), so nothing is sorted.  A
class is made by one rule, its predecessor's class times one variable: a
single read forms only what is missing on its predecessor chain
(`_monomial_class`), and the bulk reads of a quotient or a subalgebra take a
whole table in its order, one forward pass (`_table_classes`); the left
kernel of the classes is the reduced echelon basis of the truncated ideal
(`kernel_algebra`): dict rows keyed by their lead column, from which
`_read_echelon` reads the standard monomials and the class of every
monomial, walking the columns in order.  The algebra keeps those classes: its
`times_table` is looked up in them, and its structure table is gathered from
them only when it is first read.  Every algebra is given so: parsed
presentations by the classes of the products of their basis elements and of
their basis elements by the variables, fibre products and connected sums by
their factors' classes (`sums`), and k[x]/m^2 by the classes of 1 and the
variables.  A quotient, gr(A) and Q0 included, takes the classes modulo one
subspace per degree (`quotient_algebra`).  When the ideal holds linear forms,
the pivots of their echelon form are eliminated by the same rule: the
algebra is the kernel of the classes of the monomials in the kept variables,
and each eliminated variable's image is read off one left kernel of the
standard monomials' classes followed by its own.
"""

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from operator import add
from typing import NamedTuple

from . import _kernels
from .errors import (ArtinsumError, NotAnIdealError, NotLocalError, NotZeroDimensionalError,
                     ResourceGuardError, RingMismatchError, UnitIdealError)
from .grobner import IdealPresentation
from .parse import parse_presentation
from .poly import PolyRing, mono_deg

# how many monomial tables `_monomial_table` keeps
MONOMIAL_TABLES = 64
# the largest dimension of one echelon: the monomial count here, either side in `linalg.rref`
MAX_ECHELON_DIM = 1 << 22


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

    def complement(self, sub):
        """The rows of this basis at the pivots that `sub`, a subspace inside it, lacks.

        The pivots of `sub` are among these, and the other rows are the reduced
        basis of the elements vanishing at them: a complement of `sub`.
        """
        return [row for c, row in self.basis.items() if c not in sub.basis]

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

    `basis` holds the standard monomials under Grevlex, ascending, 1 first,
    and every variable among them (see the module).  Entry l of `struct_table`
    lists the triples (k, j, c) with e_l * e_k = sum of c*e_j, sorted by
    (k, j); c is an int in [0, p) over GF(p), and over QQ an int exactly where
    it is integral.  It is symmetric, so entry k also lists the products of
    e_k by each e_l.  Entry l of `times_table` lists the triples (v, j, c) with
    e_l * x_v = sum of c*e_j, grouped by v in increasing order, as
    `product_table` lists its elements' products; the filtration walks it with
    the product terms at high columns skipped (`_times_below`).

    An algebra is given by its classes, dict rows by monomial of its ring,
    each listing its columns in increasing order.  A kernel gives the class of
    every monomial up to a degree D with m^D in its ideal, `build_algebra`
    that of every product of two basis elements and of every basis element by
    a variable, and a fibre product or connected sum those of its factors,
    rewritten; a product of basis elements absent from them, of degree D or
    more in a kernel or mixed in a sum, has class 0.  They are kept as the
    algebra's classes, `times_table` is looked up in them, and `struct_table`
    is gathered from them on its first read.  Elements are dict rows over the
    basis: the class of a monomial not held yet is made when it is first read,
    its predecessor's times one variable, along with the classes missing on
    its predecessor chain (`monomial_row`), and `element_row` gives the class
    of a polynomial.  `gb`, the reduced Groebner basis of the ideal under
    Grevlex, ascending, is read off those classes on its first read; the
    tables, the filtration and the constructors' identity checks are made
    without it.  `homogeneous` tells whether that basis is made of forms, the
    algebra graded.  An algebra presented on fewer variables than
    `original_ring` keeps the substitution onto its ring as `reduction`,
    (ring, images).
    """

    def __init__(self, ring, basis, classes):
        self.ring = ring
        self.field = ring.field
        self.original_ring = ring
        self.reduction = None
        self.basis = tuple(basis)
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self._classes = classes
        n = ring.nvars
        # b*x_v is a product of two basis elements: one absent from the classes is 0
        self.times_table = [
            [(v, j, c) for v in range(n)
             for j, c in classes.get(b[:v] + (b[v] + 1,) + b[v + 1:], {}).items()]
            for b in self.basis]
        self._build_filtration()
        self._socle = None
        self._betti_cache = None
        self._graded = None

    # -- construction --------------------------------------------------------

    @cached_property
    def gb(self):
        """The reduced basis as a tuple, read off the classes on the first read.

        Its leads are the minimal monomials outside `basis`: each is b*x_v
        for a standard b, with every one-step divisor standard.  The element
        led by m is m minus the lift of its class e_b*x_v, read off
        `times_table` (as FGLM reads it off the multiplication matrices).
        """
        index, n = self.basis_index, self.ring.nvars
        leads = {}
        for k, b in enumerate(self.basis):
            for v in range(n):
                m = b[:v] + (b[v] + 1,) + b[v + 1:]
                if m not in index and m not in leads and all(
                        not e or m[:u] + (e - 1,) + m[u + 1:] in index for u, e in enumerate(m)):
                    leads[m] = k, v
        key = self.ring.order.key
        return tuple(self.ring.poly({m: 1, **{self.basis[j]: -c for w, j, c in self.times_table[k]
                                              if w == v}})
                     for m, (k, v) in sorted(leads.items(), key=lambda t: key(t[0])))

    def product_table(self, elements):
        """Entry l lists the triples (v, j, c) with e_l * elements[v] = sum of c*e_j, by v.

        `elements` are dict rows; each is multiplied through the entries of
        `struct_table` at its nonzeros, so only its nonzero products are made,
        reduced mod p as they accumulate (as in `_times`).  An entry lists its
        triples grouped by element, in increasing v, each j once per element,
        as `_times` reads a one-entry row's products.  It stays its own walk:
        gathered through a `_times` that yields (element, row) pairs, the
        `poincare` benchmark's ops took 2.5-3.0% more CPU in process.
        """
        p = self.field.char
        table = [[] for _ in range(self.length)]
        for v, element in enumerate(elements):
            rows = {}
            for k, x in element.items():
                for l, j, c in self.struct_table[k]:
                    y = x * c
                    row = rows.get(l)
                    if row is None:
                        rows[l] = {j: y % p if p else y}
                    else:
                        if j in row:
                            y += row[j]
                        row[j] = y % p if p else y
            for l, row in rows.items():
                table[l] += [(v, j, c) for j, c in _finished(row, p).items()]
        return table

    @cached_property
    def struct_table(self):
        """The products of the basis elements, gathered from the classes on the first read.

        The class of e_a * e_b is that of the monomial a*b, and a product
        absent from the classes has class 0.  Each class lists its columns
        in increasing order, so an entry is sorted.
        """
        classes = self._classes
        return [[(k, j, c) for k, b in enumerate(self.basis)
                 for j, c in classes.get(tuple(map(add, a, b)), {}).items()]
                for a in self.basis]

    @cached_property
    def _variable_tables(self):
        """Per variable v, the entries of `times_table` that multiply by x_v."""
        return [[[t for t in entry if t[0] == v] for entry in self.times_table]
                for v in range(self.ring.nvars)]

    def _build_filtration(self):
        """m^i for i = 0, 1, ... until it is zero, each as its reduced echelon basis.

        For i >= 1 a standard monomial of degree >= i is a product of i
        variables, so its unit row lies in m^i and is a row of that basis;
        the basis is ascending, so those columns are a suffix.  The algebra
        is graded, its reduced basis homogeneous (`homogeneous`), exactly
        when every product e_l * x_v of `times_table` has degree
        deg e_l + 1, and then m^i is that suffix.  Otherwise the other rows
        are the reduced echelon basis of the products of m^(i-1) by the
        variables, restricted to the columns of degree < i (`_times_below`).
        """
        lam, p = self.length, self.field.char
        deg = [mono_deg(m) for m in self.basis]
        self.homogeneous = all(deg[j] == deg[l] + 1
                               for l, entry in enumerate(self.times_table) for _, j, _ in entry)
        if self.homogeneous:
            self.filtration = [Subspace(self, {c: {c: 1} for c in range(bisect_left(deg, i), lam)})
                               for i in range(deg[-1] + 2)]
            return

        def power(i, prev):
            top = bisect_left(deg, i)
            rows = _kernels.basis(_times_below(prev.basis.values(), self.times_table, top, p), p)
            rows.update((c, {c: 1}) for c in range(top, lam))
            return Subspace(self, rows)

        whole = Subspace(self, {i: {i: 1} for i in range(lam)})
        levels = [whole, power(1, whole)]
        while levels[-1].dim:
            nxt = power(len(levels), levels[-1])
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

        Only the classes missing on its predecessor chain are formed, at
        most s products for s the Loewy length (`_monomial_class`), so reads
        in the order of the monomial table make one product each.  The row
        is shared: callers copy it before changing it.  A monomial above the
        Loewy length has class 0.
        """
        if mono_deg(mono) > self.loewy_length:
            return {}
        return _monomial_class(self._classes, mono, self._variable_tables, self.length,
                               self.field.char)

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
        v*lambda + j.  The rows are taken last first: the left kernel's row
        at a free row f is one there and zero at the other free rows, and
        its other entries lie at pivot rows before f, so back in the basis
        order each kernel row is one at its least column and zero at the
        other kernel rows' least columns, the reduced echelon basis.
        """
        lam, p = self.length, self.field.char
        last = lam - 1
        rows = [{v * lam + j: c for v, j, c in entry} for entry in reversed(table)]
        kernel = _kernels.left_kernel(rows, p)
        return Subspace(self, {last - f: {last - k: x for k, x in row.items()}
                               for f, row in reversed(kernel.items())})

    def ideal_span(self, rows):
        """Smallest ideal containing the given elements, dict rows: their products by the basis."""
        return self.span_times(_checked_rows(self, rows), self.struct_table)

    def m_times(self, sub):
        """The subspace m * W for a subspace W: the span of its rows times the variables."""
        return self.span_times(sub.basis.values(), self.times_table)

    def span_times(self, rows, table):
        """The span of dict rows times the elements whose products `table` lists."""
        lam, p = self.length, self.field.char
        return Subspace(self, _kernels.basis(_times(rows, table, lam, p, range(lam)), p))

    def minimal_generators(self, sub):
        """mu(W) and representatives for an ideal W: the complement of m*W read off the pivots."""
        mw = self.m_times(sub)
        if not sub.contains_space(mw):
            raise NotAnIdealError("minimal generators requested for a non-ideal subspace")
        reps = sub.complement(mw)
        return len(reps), reps

    def same_presentation(self, other):
        """Whether `other` is presented on the same ring by the same reduced basis.

        The reduced basis is read off `basis` and `times_table`, so the
        algebras are compared by those, and no basis is built.
        """
        return ((self.ring, self.basis, self.times_table)
                == (other.ring, other.basis, other.times_table))

    def __repr__(self):
        return f"<algebra {self.ring}, dim {self.length}>"


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


def _canonical(row, p):
    """The nonzero entries of a row, mod p over GF(p); over QQ (p = 0) an int where integral.

    It is the one check of the scalars in rows that come from outside a
    product walk: a caller's rows (`_checked_rows`), the class of a
    polynomial (`element_row`), the normal forms of `build_algebra` and the
    rewritten classes of `sums._socle_quotient`.  The product walks reduce mod
    p as they accumulate and call it only over QQ (`_finished`).
    """
    if p:
        return {k: y for k, x in row.items() if (y := x % p)}
    return {k: x if type(x) is int or x.denominator != 1 else x.numerator
            for k, x in row.items() if x}


def _times(rows, table, lam, p, columns):
    """Each row times each element of a product table, the nonzero products only.

    `table` is an algebra's `times_table`, for the variables, or a
    `product_table` of elements; each length-lam block of a row is
    multiplied on its own, and column c of a product is renamed columns[c].
    One walk over a row's entries opens a product row for element v only
    when some entry has a nonzero product by it.  Over GF(p) each entry is
    reduced mod p as it accumulates, so a one-term product is born final; a
    product row is copied only to drop a zero that a cancellation left
    (`_finished`).  A one-entry row {col: c}, the most common row of a
    resolution, takes its products straight off the table, whose entries
    list their triples grouped by element: each group (v, j, s) is the
    product row {columns[base + j]: c*s}.  Nothing accumulates and nothing
    is finished, since the j of a group are distinct, `columns` renames
    them apart and c*s is nonzero mod a prime; over QQ the row is still
    written by `_canonical`.
    """
    for row in rows:
        if len(row) == 1:
            ((col, c),) = row.items()
            base, last, prod = col - col % lam, None, None
            for v, j, s in table[col % lam]:
                if v != last:
                    if prod:
                        yield prod if p else _canonical(prod, p)
                    last, prod = v, {}
                prod[columns[base + j]] = c * s % p if p else c * s
            if prod:
                yield prod if p else _canonical(prod, p)
            continue
        out = {}
        for col, c in row.items():
            base = col - col % lam
            for v, j, s in table[col % lam]:
                k = columns[base + j]
                x = c * s
                prod = out.get(v)
                if prod is None:
                    out[v] = {k: x % p if p else x}
                else:
                    if k in prod:
                        x += prod[k]
                    prod[k] = x % p if p else x
        for prod in out.values():
            if prod := _finished(prod, p):
                yield prod


def _times_below(rows, table, top, p):
    """Each row times each variable, restricted to the columns below `top`: the nonzero products.

    `table` is an algebra's `times_table`; the restriction is applied
    while the table is walked, so a product term at a column >= `top` is
    never accumulated.  As in `_times`, each entry is reduced mod p as it
    accumulates, and a row is copied only to drop a zero (`_finished`).
    It stays its own walk: the filtration through `_times` on a
    `times_table` filtered below `top` took the `sums` benchmark's ops
    7.3-8.6% more CPU in process, and through unit rows struck by the
    echelon's singleton pass 15-19% more.
    """
    for row in rows:
        out = {}
        for col, c in row.items():
            for v, j, s in table[col]:
                if j < top:
                    x = c * s
                    prod = out.get(v)
                    if prod is None:
                        out[v] = {j: x % p if p else x}
                    else:
                        if j in prod:
                            x += prod[j]
                        prod[j] = x % p if p else x
        for prod in out.values():
            if prod := _finished(prod, p):
                yield prod


def _finished(row, p):
    """A row that a product walk accumulated, its nonzero entries in canonical form.

    Over GF(p) the walk reduced every entry mod p, so the row is returned as
    it is unless a cancellation left a zero in it; over QQ it is
    `_canonical`'s copy, an int where an entry is integral.  The products of
    a one-entry row in `_times` accumulate nothing and do not come here.
    """
    if not p:
        return _canonical(row, p)
    if 0 in row.values():
        return {k: x for k, x in row.items() if x}
    return row


def build_algebra(ring, generators):
    """Construct the Artinian local algebra of a generator list in `ring`.

    Raises UnitIdealError, NotZeroDimensionalError, or NotLocalError when
    the input is unsuitable.  Parsed generators bound no degree of the
    ideal, so only this runs Buchberger, once per presentation, and normal
    forms.  The algebra is built on the given ring from the classes of every
    product of two standard monomials and of every b*x_v, each sorted by
    column: a variable x_v leading a linear element x_v - l of the reduced
    basis is not standard, so b*x_v is then no such product, and l must
    vanish at the origin.  When dim m/m^2 falls short of the variable count,
    the returned algebra is its quotient by zero, which `kernel_algebra`
    presents on the variables that minimally generate m; it still takes
    classes of polynomials in the given ring.
    """
    pres = IdealPresentation(ring, generators)
    if pres.is_unit_ideal():
        raise UnitIdealError("1 lies in the ideal")
    if not pres.is_zero_dimensional():
        raise NotZeroDimensionalError(
            "no pure variable power among the leading terms; quotient is infinite-dimensional")
    for g in pres.groebner_basis():
        if g.total_degree() == 1 and g.constant_term() != ring.field.zero:
            raise NotLocalError(f"the quotient is not local: {g} lies in the ideal "
                                f"but does not vanish at the origin")
    basis = pres.standard_monomials()
    index = {m: i for i, m in enumerate(basis)}
    p = ring.field.char
    units = _monomial_table(ring.nvars, 1).monos[1:]
    products = dict.fromkeys(tuple(map(add, a, b)) for a in basis for b in (*basis, *units))
    A = ArtinAlgebra(ring, basis, {
        mono: dict(sorted(_canonical({index[m]: c for m, c in
                                      pres.normal_form(ring.monomial(mono)).terms.items()},
                                     p).items()))
        for mono in products})
    if A.power(1).dim - A.power(2).dim == ring.nvars:
        return A
    # this A is read only by the quotient's forward pass, through `_variable_tables`
    return quotient_algebra(A, [Subspace(A, {})] * (A.loewy_length + 2))


def _read_echelon(ring, monos, rows):
    """The standard monomials and classes of the ideal I that `rows` span.

    `monos` is a monomial table's tuple: the monomials of `ring` up to a
    degree D, in ascending Grevlex order, which is the order the columns
    are walked in; m^D lies in I, and `rows`, dict rows over those columns
    keyed by lead column, are the reduced echelon basis of I ∩ span(monos):
    each row is one at its lead, which is its largest monomial, and zero at
    the other leads, so the leads are the leading monomials of I up to
    degree D.  The columns that lead no row are the standard monomials, and
    the class of a lead is minus its row's tail, its columns in increasing
    order, as `ArtinAlgebra` takes classes.
    """
    p = ring.field.char
    top = mono_deg(monos[-1])
    missing = [m for c, m in enumerate(monos) if mono_deg(m) == top and c not in rows]
    if missing and ring.nvars:
        raise ArtinsumError(f"kernel presentation needs m^{top} inside the ideal, but "
                            f"{ring.monomial(missing[0])} of degree {top} is not in its span")
    standard = [c for c in range(len(monos)) if c not in rows]
    index = {c: i for i, c in enumerate(standard)}
    classes = {monos[c]: {i: 1} for i, c in enumerate(standard)}
    for c, row in rows.items():
        classes[monos[c]] = {index[k]: (-x) % p if p else -x for k, x in sorted(row.items())
                             if k != c}
    return [monos[c] for c in standard], classes


def kernel_algebra(ring, degree, classes):
    """The algebra k[ring]/I, on the variables that minimally generate m.

    I is the kernel of the map sending the j-th monomial of `ring` up to
    `degree` in ascending Grevlex order (`_monomial_table`) to the dict
    row `classes[j]` (canonical scalars), and m^degree lies in I.  The left
    kernel of the classes (`_kernels.left_kernel`) is the reduced echelon
    basis of I up to `degree`, the linear dependencies that FGLM reads:
    its dict rows are keyed by free column, and each is one at its free
    column, which is its largest monomial, and zero at the other free
    columns.  The pivots of the linear parts' echelon form, in declaration
    order, are eliminated; there are none when I lies inside m^2.  The
    algebra is then the kernel of the classes of the monomials in the kept
    variables, taken in the same order, since Grevlex restricts to them:
    one call on the kept ring, which eliminates nothing, because the least
    variable of a linear part in I is one of the pivots.  Every class lies
    in the span of the standard monomials' classes, which are independent,
    so in the left kernel of those followed by the eliminated variables'
    classes each eliminated variable is a free row, one at the variable
    and minus its image at the standard monomials.  One reduction step
    carries the given ring to the kept one.  The algebra keeps the classes
    that `_read_echelon` reads, and its tables are read off them.
    """
    if len(classes) > MAX_ECHELON_DIM:
        raise ResourceGuardError("max_echelon_dim", MAX_ECHELON_DIM, len(classes),
                                 "matrix dimension")
    p = ring.field.char
    monos = _monomial_table(ring.nvars, degree).monos
    rows = _kernels.left_kernel(classes, p)
    # columns 1..nvars are the variables
    linear = [part for row in rows.values()
              if (part := {monos[k].index(1): x for k, x in row.items() if 0 < k <= ring.nvars})]
    if not linear:
        basis, kept_classes = _read_echelon(ring, monos, rows)
        return ArtinAlgebra(ring, basis, kept_classes)
    elim = sorted(_kernels.echelon(linear, p))
    keep = [v for v in range(ring.nvars) if v not in elim]
    sub = PolyRing(ring.field, [ring.names[v] for v in keep])
    # the columns of the kept monomials, by their exponents on the kept variables
    kept = {tuple(m[v] for v in keep): j for j, m in enumerate(monos)
            if not any(m[v] for v in elim)}
    A = kernel_algebra(sub, degree, [classes[j] for j in kept.values()])
    units = {monos[k].index(1): classes[k] for k in range(1, ring.nvars + 1)}
    s = A.length
    free = _kernels.left_kernel([classes[kept[b]] for b in A.basis] + [units[v] for v in elim], p)
    images = {v: -sub.poly({A.basis[k]: x for k, x in free[s + i].items() if k < s})
              for i, v in enumerate(elim)}
    A.original_ring = ring
    A.reduction = (sub, [images[v] if v in images else sub.var(keep.index(v))
                         for v in range(ring.nvars)])
    return A


class MonomialTable(NamedTuple):
    """The monomials in some variables up to a degree, ascending under Grevlex.

    `monos[j]` is `monos[pred[j]]` times variable `var[j]`: its predecessor
    is the monomial with its first nonzero exponent lowered, of lower
    degree, so it comes first.  The monomial 1 has neither (-1).
    """

    monos: tuple
    pred: tuple
    var: tuple


@lru_cache(maxsize=MONOMIAL_TABLES)
def _monomial_table(nvars, degree):
    """The monomial table of `nvars` variables up to `degree`, made once and shared.

    Within a degree, Grevlex ascends with the combinations of the variables
    taken last variable first.
    """
    monos = tuple(tuple(map(combo.count, range(nvars))) for d in range(degree + 1)
                  for combo in combinations_with_replacement(range(nvars - 1, -1, -1), d))
    index = {m: j for j, m in enumerate(monos)}
    var = tuple(next((i for i, e in enumerate(m) if e), -1) for m in monos)
    pred = tuple(index[m[:i] + (m[i] - 1,) + m[i + 1:]] if i >= 0 else -1
                 for m, i in zip(monos, var))
    return MonomialTable(monos, pred, var)


def _monomial_class(classes, mono, tables, lam, p):
    """The class of `mono` as a dict row, forming the classes missing on its predecessor chain.

    `classes` maps monomials to their classes, and holds the monomial 1.
    A monomial's class is its predecessor's, the monomial with its first
    nonzero exponent lowered, times the image of that variable, one
    `_times` step: `tables[i]` lists the products by the image of variable
    i, one entry per basis element.  The predecessor comes first in a
    `MonomialTable`, so classes read in its order are one forward pass.
    """
    chain = []
    row = classes.get(mono)
    while row is None:
        v = 0
        while not mono[v]:
            v += 1
        chain.append((mono, v))
        mono = mono[:v] + (mono[v] - 1,) + mono[v + 1:]
        row = classes.get(mono)
    for mono, v in reversed(chain):
        row = classes[mono] = next(_times([row], tables[v], lam, p, range(lam)), {})
    return row


def _table_classes(classes, nvars, s, tables, lam, p):
    """The monomials up to degree s+1 and their classes, for an algebra of socle degree s.

    The classes are read in the order of the monomial table, in one forward
    pass: each is its predecessor's class times its variable, one `_times`
    step by the rule of `_monomial_class`, with no walk down a predecessor
    chain, since the predecessor's class was read before.  `classes` holds
    the monomial 1; a class it holds is read from it, and each class formed
    is kept in it.  The monomials of degree s+1 have class 0.
    """
    monos, pred, var = _monomial_table(nvars, s + 1)
    count = len(_monomial_table(nvars, s).monos)
    rows = [classes[monos[0]]]
    for j in range(1, count):
        row = classes.get(monos[j])
        if row is None:
            row = classes[monos[j]] = next(
                _times([rows[pred[j]]], tables[var[j]], lam, p, range(lam)), {})
        rows.append(row)
    return monos, rows + [{}] * (len(monos) - count)


def subalgebra(Q, new_ring, images):
    """The subalgebra of Q that `images` generate, presented on `new_ring`.

    `images` are polynomials of Q's ring in its maximal ideal, one per
    variable of `new_ring`.  Monomials above the Loewy length map to zero,
    so the kernel of the map up to one degree beyond it is the truncated
    ideal.
    """
    tables = [Q.product_table([Q.element_row(f)]) for f in images]
    s, n = Q.loewy_length, new_ring.nvars
    _, classes = _table_classes({(0,) * n: {0: 1}}, n, s, tables, Q.length, Q.field.char)
    return kernel_algebra(new_ring, s + 1, classes)


def presentation_in_coordinates(Q, new_ring, images):
    """Q presented on a new minimal generating set of m, lifted by `images`."""
    rebuilt = subalgebra(Q, new_ring, images)
    if rebuilt.length != Q.length or rebuilt.hilbert_function() != Q.hilbert_function():
        raise ArtinsumError("coordinate change did not preserve the algebra")
    return rebuilt


def algebra_from_text(text):
    ring, gens = parse_presentation(text)
    return build_algebra(ring, gens)


def monomial_residues(A, monos, targets):
    """The class in A of each monomial of degree d modulo targets[d], a subspace: dict rows."""
    p = A.field.char
    return [_kernels.reduce(dict(A.monomial_row(m)), targets[mono_deg(m)].basis, p)
            for m in monos]


def quotient_algebra(A, targets):
    """The kernel of the map sending each monomial of degree d to its class modulo targets[d].

    `targets[d]`, for d = 0..s+1 with s the Loewy length of A, is a subspace
    of A, and m^(s+1) maps to zero.  A/J for an ideal J passes J for every
    degree.  A filtration passes a subspace of m^d containing m^(d+1), as
    gr(A) passes m^(d+1) and Q0 Iarrobino's targets; the kernel is then
    graded, since in a vanishing sum of residues the one of least degree d
    would lie in m^(d+1), inside targets[d], and so be zero.

    The classes of the monomials up to s are read in one forward pass over
    the monomial table (`_table_classes`), each its predecessor's times its
    variable, and kept in A's classes, so later reads of them
    (`monomial_row`) form nothing; the monomials of degree s+1 have class 0.
    """
    s, p = A.loewy_length, A.field.char
    monos, classes = _table_classes(A._classes, A.ring.nvars, s, A._variable_tables,
                                    A.length, p)
    residues = [_kernels.reduce(dict(row), targets[mono_deg(m)].basis, p)
                for m, row in zip(monos, classes)]
    if not residues[0]:
        raise UnitIdealError("1 lies in the ideal")
    return kernel_algebra(A.ring, s + 1, residues)


def square_zero_algebra(ring):
    """k[ring]/m^2: the basis is 1 and the variables, and every product of two variables is 0."""
    basis = _monomial_table(ring.nvars, 1).monos
    return ArtinAlgebra(ring, basis, {m: {k: 1} for k, m in enumerate(basis)})
