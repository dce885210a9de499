"""Associated graded rings, graded socles, linear-socle splitting, and classifiers.

The homogeneous presentation of gr(A) is found degreewise by exact linear
algebra: a degree-d form belongs to the presentation ideal exactly when its
image in A falls into the next filtration step.  Artinian inputs bound all
degrees by the Loewy length plus one, so no standard-basis machinery is
needed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ArtinsumError, NotGorensteinError, PreconditionError
from .grobner import IdealPresentation
from .poly import Polynomial, PolyRing, mono_deg
from .quotient import ArtinAlgebra, Subspace, build_algebra


class GradedAlgebra:
    """A standard graded Artinian algebra with its canonical homogeneous presentation."""

    def __init__(self, algebra, source=None):
        self.algebra = algebra
        self.source = source
        for g in algebra.pres.generators:
            if not g.is_homogeneous():
                raise ArtinsumError("graded algebra built from a non-homogeneous presentation")
        self.pieces = {}
        for i, m in enumerate(algebra.basis):
            self.pieces.setdefault(mono_deg(m), []).append(i)

    @property
    def ring(self):
        return self.algebra.ring

    @property
    def presentation(self):
        return self.algebra.pres

    @property
    def length(self):
        return self.algebra.length

    @property
    def loewy_length(self):
        return self.algebra.loewy_length

    @property
    def edim(self):
        return self.algebra.edim

    @property
    def type(self):
        return self.algebra.type

    def hilbert_function(self):
        return self.algebra.hilbert_function()

    def is_gorenstein(self):
        return self.algebra.is_gorenstein()

    def piece_monomials(self, d):
        return [self.algebra.basis[i] for i in self.pieces.get(d, [])]

    def socle_by_degree(self):
        """For each degree, an echelon basis of the degree-d socle (full coordinates)."""
        A = self.algebra
        out = {}
        for d in sorted(self.pieces):
            idx = self.pieces[d]
            if A.ring.nvars == 0:
                block = linalg.identity(A.field, A.length)[idx]
            else:
                stacked = np.hstack(A.var_matrices)[idx, :]
                small = linalg.left_kernel(A.field, stacked)
                block = linalg.zeros(A.field, (small.shape[0], A.length))
                for r in range(small.shape[0]):
                    for c, col in enumerate(idx):
                        block[r, col] = small[r, c]
            rows, _ = linalg.echelon(A.field, block)
            if rows.shape[0]:
                out[d] = rows
        return out

    def socle_interior_dimension(self):
        """dim of the socle meeting degrees two and higher."""
        return sum(rows.shape[0] for d, rows in self.socle_by_degree().items() if d >= 2)

    def linear_socle_rows(self):
        """Degree-1 socle vectors as rows over the variables in declaration order."""
        A = self.algebra
        rows = self.socle_by_degree().get(1)
        if rows is None:
            return linalg.zeros(A.field, (0, A.ring.nvars))
        out = linalg.zeros(A.field, (rows.shape[0], A.ring.nvars))
        for r in range(rows.shape[0]):
            for i in self.pieces[1]:
                mono = A.basis[i]
                out[r, mono.index(1)] = rows[r, i]
        return linalg.echelon(A.field, out)[0]

    def __repr__(self):
        return f"<graded algebra {self.ring}, H = {self.hilbert_function()}>"


def graded_from_homogeneous(ring, generators, source=None):
    """Build a GradedAlgebra from homogeneous generators (canonicalized)."""
    pres = IdealPresentation(ring, generators)
    return GradedAlgebra(build_algebra(pres), source=source)


def associated_graded(A):
    """The associated graded ring of A with its ideal of initial forms.

    Degree d of the presentation consists of the degree-d forms whose image
    in A lies in m^(d+1); all monomials of degree loewy+1 are adjoined so the
    presentation is visibly zero-dimensional.
    """
    if isinstance(A, GradedAlgebra):
        return A
    ring = A.ring
    s = A.loewy_length
    gens = []
    for d in range(1, s + 2):
        monos = ring.monomials_of_degree(d)
        images = linalg.matrix(A.field, [A._nf_monomial_vector(m) for m in monos],
                               width=A.length)
        rows = linalg.preimage_rows(A.field, images, A.power(d + 1).rows)
        for r in rows:
            gens.append(Polynomial(ring, {m: c for m, c in zip(monos, r) if c != A.field.zero}))
    graded = graded_from_homogeneous(ring, gens, source=A)
    if graded.hilbert_function() != A.hilbert_function():
        raise ArtinsumError("initial-form computation broke the Hilbert function")
    return graded


def is_gls(G):
    """Whether the socle of G in degrees two and up is one-dimensional.

    Returns (flag, witness) where the witness is the echelon basis of the
    degree-1 socle over the variables; its row count is type(G) - 1 exactly
    when the flag is true.
    """
    if G.loewy_length < 2:
        raise PreconditionError("linear-socle test needs Loewy length at least 2")
    flag = G.socle_interior_dimension() == 1
    return flag, G.linear_socle_rows()


@dataclass
class GlsSplit:
    gorenstein_part: GradedAlgebra
    square_zero_part: GradedAlgebra
    witness_forms: list
    eliminated: tuple
    substitution: dict


def _linear_form(ring, row):
    return Polynomial(ring, {tuple(1 if j == i else 0 for j in range(ring.nvars)): c
                             for i, c in enumerate(row) if c != ring.field.zero})


def gls_split(G):
    """Split G as (graded Gorenstein A) x_k (square-zero B) along the linear socle.

    The witnesses are the reduced echelon basis of the degree-1 socle in
    declaration order; their pivot variables are eliminated from A and become
    the variables of B.
    """
    flag, witness = is_gls(G)
    if not flag:
        raise PreconditionError("algebra is not Gorenstein up to linear socle")
    ring = G.ring
    fld = ring.field
    forms = [_linear_form(ring, row) for row in witness]
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
    a_gens = [g.compose(sub, images) for g in G.presentation.generators]
    a_part = graded_from_homogeneous(sub, a_gens)
    b_ring = PolyRing(fld, [ring.names[i] for i in pivots])
    b_gens = [b_ring.var(i) * b_ring.var(j)
              for i in range(len(pivots)) for j in range(i, len(pivots))]
    b_part = graded_from_homogeneous(b_ring, b_gens)
    n = len(forms)
    if a_part.type != 1:
        raise ArtinsumError("linear-socle quotient is not Gorenstein")
    if a_part.loewy_length != G.loewy_length:
        raise ArtinsumError("linear-socle quotient changed the Loewy length")
    if a_part.edim != G.edim - n or a_part.length != G.length - n:
        raise ArtinsumError("linear-socle quotient has wrong size")
    return GlsSplit(a_part, b_part, forms, tuple(ring.names[i] for i in pivots), substitution)


@dataclass
class GradedIdealData:
    """A homogeneous ideal of a graded algebra, held degree by degree."""

    owner: GradedAlgebra
    components: dict = field(default_factory=dict)   # degree -> rows over piece monomials
    forms: list = field(default_factory=list)

    @property
    def dim(self):
        return sum(rows.shape[0] for rows in self.components.values())


def iarrobino(A):
    """The canonical graded ideal C of gr(A) and the Gorenstein quotient Q0.

    C stacks, degree by degree, the part of the annihilator filtration
    (0 : m^(s-i)) visible inside m^i; for Gorenstein A the quotient gr(A)/C
    is graded Gorenstein with socle concentrated in degree s.
    """
    if isinstance(A, GradedAlgebra):
        A = A.source if A.source is not None else A.algebra
    if not A.is_gorenstein():
        raise NotGorensteinError("the filtration quotient needs a Gorenstein input")
    G = associated_graded(A)
    s = A.loewy_length
    data = GradedIdealData(G)
    extra = []
    for i in range(s + 1):
        ann = A.annihilator_of_subspace(A.power(s - i))
        wi = ann.intersect(A.power(i))
        target = wi.add(A.power(i + 1))
        monos = G.piece_monomials(i)
        if not monos:
            continue
        images = linalg.matrix(A.field, [A._nf_monomial_vector(m) for m in monos],
                               width=A.length)
        rows = linalg.preimage_rows(A.field, images, target.rows)
        # quotient out the next filtration step: forms already in m^(i+1)
        # have zero class, recognized by lying in I*'s degree-i piece, which
        # has no standard-monomial support, so rows here are honest classes
        if rows.shape[0]:
            if i >= s - 1:
                raise ArtinsumError("filtration ideal unexpectedly nonzero in top degrees")
            data.components[i] = rows
            for r in rows:
                p = Polynomial(G.ring, {m: c for m, c in zip(monos, r) if c != A.field.zero})
                data.forms.append(p)
                extra.append(p)
    q0 = graded_from_homogeneous(G.ring, list(G.presentation.generators) + extra, source=A)
    socle = q0.socle_by_degree()
    if q0.type != 1 or set(socle) != {s}:
        raise ArtinsumError("filtration quotient is not Gorenstein with socle degree s")
    hg, hq = G.hilbert_function(), q0.hilbert_function()
    if hg[s - 1:] != hq[s - 1:]:
        raise ArtinsumError("filtration quotient changed the top Hilbert values")
    return data, q0


@dataclass
class Classification:
    short: bool
    stretched: bool
    compressed: bool


def _binom(n, k):
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def compressed_hilbert(edim, loewy):
    return tuple(min(_binom(edim + i - 1, i), _binom(edim + loewy - i - 1, loewy - i))
                 for i in range(loewy + 1))


def classify(A):
    """short / stretched / compressed flags from the Hilbert function."""
    if not A.is_gorenstein():
        raise NotGorensteinError("classification targets Gorenstein algebras")
    H = A.hilbert_function()
    s = len(H) - 1
    short = len(H) == 4 and H[3] == 1 and H[2] >= 2
    stretched = (s >= 2 and all(H[i] == 1 for i in range(2, s + 1))
                 and (s >= 3 or H[1] == 1))
    compressed = H == compressed_hilbert(H[1] if s >= 1 else 0, s) if s >= 1 else True
    return Classification(short=short, stretched=stretched, compressed=compressed)
