"""Artinian local algebras as finite-dimensional vector spaces with multiplication.

An algebra is built from a zero-dimensional ideal supported at the origin.
Presentations with linear terms are first minimalized by exact linear
elimination, so the stored presentation always has its ideal inside the
square of the maximal ideal and the variable count equals the embedding
dimension.  Elements are coefficient vectors over the standard-monomial
basis (ascending default order).
"""

import numpy as np

from . import linalg
from .errors import (ArtinsumError, NotAnIdealError, NotLocalError,
                     NotZeroDimensionalError, UnitIdealError)
from .grobner import IdealPresentation
from .poly import Polynomial, PolyRing, mono_deg, mono_mul


class Subspace:
    """A subspace of an algebra, stored as a reduced echelon row basis."""

    __slots__ = ("algebra", "rows", "pivots")

    def __init__(self, algebra, rows):
        self.algebra = algebra
        self.rows, self.pivots = linalg.echelon(algebra.field, rows)

    @property
    def dim(self):
        return self.rows.shape[0]

    def reduce(self, vec):
        return linalg.reduce_row(self.algebra.field, vec, self.rows, self.pivots)

    def contains(self, vec):
        return not np.any(self.reduce(vec) != self.algebra.field.zero)

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def add(self, other):
        return Subspace(self.algebra, np.vstack([self.rows, other.rows]))

    def intersect(self, other):
        rows = linalg.intersect_row_spaces(self.algebra.field, self.rows, other.rows)
        return Subspace(self.algebra, rows)

    def lifts(self):
        """The echelon basis as explicit polynomials over the standard monomials."""
        return [self.algebra.lift(r) for r in self.rows]

    def is_ideal(self):
        A = self.algebra
        return all(self.contains(A.vec_mult_matrix_row(r, j))
                   for r in self.rows for j in range(A.ring.nvars))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.algebra is self.algebra
                and self.rows.shape == other.rows.shape
                and bool(np.all(self.rows == other.rows)))

    def __hash__(self):
        return hash((id(self.algebra), self.rows.shape))

    def __repr__(self):
        return f"<subspace dim {self.dim} of algebra dim {self.algebra.length}>"


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
        nxt = _truncate(h.substitute({idx: phi}).scale(neg_inv), bound_n)
        if nxt == phi:
            break
        phi = nxt
    else:
        raise ArtinsumError("linear elimination did not stabilize")
    if idx in phi.support_vars():
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


class ArtinAlgebra:
    """Zero-dimensional local quotient with basis, multiplication, and filtration."""

    def __init__(self, pres, original_ring=None, reduction_steps=()):
        self.pres = pres
        self.ring = pres.ring
        self.field = pres.ring.field
        self.original_ring = original_ring or pres.ring
        self.reduction_steps = tuple(reduction_steps)
        self.basis = tuple(pres.standard_monomials())
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self._nf_cache = {}
        self._build_structure()
        self._build_filtration()
        self._socle = None
        self._betti_cache = None

    # -- construction --------------------------------------------------------

    def _nf_monomial_vector(self, mono):
        vec = self._nf_cache.get(mono)
        if vec is None:
            if mono in self.basis_index:
                vec = linalg.zeros(self.field, self.length)
                vec[self.basis_index[mono]] = self.field.one
            else:
                nf = self.pres.normal_form(self.ring.monomial(mono))
                vec = linalg.zeros(self.field, self.length)
                for m, c in nf.terms.items():
                    vec[self.basis_index[m]] = c
            self._nf_cache[mono] = vec
        return vec

    def _build_structure(self):
        lam = self.length
        struct = np.empty((lam, lam, lam), dtype=object) if not linalg.is_prime_field(self.field) \
            else np.zeros((lam, lam, lam), dtype=np.int64)
        if not linalg.is_prime_field(self.field):
            struct[...] = self.field.zero
        for i in range(lam):
            for j in range(i, lam):
                vec = self._nf_monomial_vector(mono_mul(self.basis[i], self.basis[j]))
                struct[i, j] = vec
                struct[j, i] = vec
        self.struct = struct
        self.var_matrices = []
        for v in range(self.ring.nvars):
            exps = [0] * self.ring.nvars
            exps[v] = 1
            idx = self.basis_index.get(tuple(exps))
            if idx is None:
                raise ArtinsumError("variable is not a standard monomial; presentation not minimal")
            self.var_matrices.append(struct[idx])

    def _build_filtration(self):
        levels = [Subspace(self, linalg.identity(self.field, self.length))]
        if self.ring.nvars == 0:
            levels.append(Subspace(self, linalg.zeros(self.field, (0, self.length))))
        else:
            current = Subspace(self, np.vstack(self.var_matrices))
            while True:
                levels.append(current)
                if current.dim == 0:
                    break
                rows = np.vstack([linalg.mat_mul(self.field, current.rows, mx)
                                  for mx in self.var_matrices])
                nxt = Subspace(self, rows)
                if nxt.dim >= current.dim:
                    raise NotLocalError("power filtration failed to shrink")
                current = nxt
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
            if self.ring.nvars == 0:
                self._socle = Subspace(self, linalg.identity(self.field, self.length))
            else:
                stacked = np.hstack(self.var_matrices)
                rows = linalg.left_kernel(self.field, stacked)
                self._socle = Subspace(self, rows)
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

    def vector(self, poly):
        """Coefficient vector of the class of `poly` over the standard basis."""
        if poly.ring == self.original_ring and self.reduction_steps:
            poly = self.reduce_to_presentation_ring(poly)
        nf = self.pres.normal_form(poly)
        vec = linalg.zeros(self.field, self.length)
        for m, c in nf.terms.items():
            vec[self.basis_index[m]] = c
        return vec

    def lift(self, vec):
        """The canonical polynomial representative with standard-monomial support."""
        terms = {}
        zero = self.field.zero
        for i, c in enumerate(vec):
            if c != zero:
                terms[self.basis[i]] = c
        return Polynomial(self.ring, terms)

    def one_vector(self):
        vec = linalg.zeros(self.field, self.length)
        vec[self.basis_index[(0,) * self.ring.nvars]] = self.field.one
        return vec

    def mult_matrix(self, vec):
        """Matrix of multiplication by the element `vec` (acting on row vectors)."""
        lam = self.length
        m = linalg.mat_mul(self.field, vec, self.struct.reshape(lam, lam * lam))
        return m.reshape(lam, lam)

    def multiply(self, u, v):
        return linalg.mat_mul(self.field, u.reshape(1, -1), self.mult_matrix(v))[0]

    def vec_mult_matrix_row(self, vec, var_index):
        return linalg.mat_mul(self.field, vec.reshape(1, -1), self.var_matrices[var_index])[0]

    def subspace(self, rows):
        return Subspace(self, linalg.matrix(self.field, rows, width=self.length))

    # -- ideals and annihilators ----------------------------------------------

    def annihilator(self, vectors):
        """(0 : given elements) as a subspace, plus whether it is an ideal."""
        mats = [self.mult_matrix(np.asarray(v)) for v in vectors]
        if not mats:
            rows = linalg.identity(self.field, self.length)
        else:
            rows = linalg.left_kernel(self.field, np.hstack(mats))
        sub = Subspace(self, rows)
        return sub, sub.is_ideal()

    def annihilator_of_subspace(self, sub):
        return self.annihilator(list(sub.rows))[0]

    def ideal_span(self, vectors):
        """Smallest ideal containing the given elements."""
        current = self.subspace(list(vectors))
        while True:
            rows = [current.rows]
            rows.extend(linalg.mat_mul(self.field, current.rows, mx)
                        for mx in self.var_matrices)
            nxt = Subspace(self, np.vstack(rows))
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def m_times(self, sub):
        """The subspace m * W for a subspace W."""
        if self.ring.nvars == 0 or sub.dim == 0:
            return Subspace(self, linalg.zeros(self.field, (0, self.length)))
        rows = np.vstack([linalg.mat_mul(self.field, sub.rows, mx)
                          for mx in self.var_matrices])
        return Subspace(self, rows)

    def minimal_generators(self, sub):
        """mu(W) and echelon-lift representatives for an ideal W."""
        if not sub.is_ideal():
            raise NotAnIdealError("minimal generators requested for a non-ideal subspace")
        mw = self.m_times(sub)
        reps = linalg.complement_rows(self.field, sub.rows, mw.rows, mw.pivots)
        return len(reps), reps

    def subalgebra_dimension_check(self):
        # edim equals both the variable count and dim m/m^2 on minimal input
        return self.edim == self.power(1).dim - self.power(2).dim

    def __repr__(self):
        return f"<algebra {self.ring} / {len(self.pres.generators)} gens, dim {self.length}>"


def build_algebra(pres_or_ring, generators=None):
    """Construct the Artinian local algebra for a presentation.

    Accepts an IdealPresentation or (ring, generators).  Raises UnitIdealError,
    NotZeroDimensionalError, or NotLocalError when the input is unsuitable;
    presentations with linear terms are minimalized first.
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
    bounds = _nilpotency_bound(pres, len(pres.standard_monomials()))
    original_ring = pres.ring
    minimal, steps = minimalize_presentation(pres, bounds)
    return ArtinAlgebra(minimal, original_ring, steps)


def algebra_from_text(text):
    from .parse import parse_presentation
    ring, gens = parse_presentation(text)
    return build_algebra(ring, gens)


def quotient_algebra(algebra, extra_polys):
    """The quotient of an algebra by the ideal generated by extra presentation polys."""
    gens = list(algebra.pres.generators) + [p for p in extra_polys if not p.is_zero()]
    return build_algebra(algebra.ring, gens)


def residue_field_algebra(field):
    """The base field as a zero-variable algebra."""
    ring = PolyRing(field, [])
    return build_algebra(ring, [])
