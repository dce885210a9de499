"""Associated graded rings, graded socles, linear-socle splitting, and classifiers.

A graded algebra is an `ArtinAlgebra` with a homogeneous reduced basis;
its degree pieces are read off its standard monomials, and it is its own
gr(A), returned as it is.  The homogeneous
presentations of gr(A) and of Iarrobino's quotient Q0 are found degreewise
by exact linear algebra: a degree-d form belongs to the ideal exactly when
its image in A falls into a target subspace, m^(d+1) for gr(A) and
(0 : m^(s-d)) ∩ m^d + m^(d+1) for Q0.  Artinian inputs bound all degrees by
the Loewy length s plus one, so the ideal is the kernel of one map, which
sends each monomial to the residue of its class modulo its degree's
target: `quotient.quotient_algebra`, the one quotient constructor, which
takes A/J by passing an ideal J for every degree.  The linear-socle split
is G modulo its degree-1 socle and a square-zero algebra, both kernels:
no Buchberger run here.
Graded socles, the linear-socle witnesses and the components of
Iarrobino's ideal are dict rows, as every element is.
"""

from dataclasses import dataclass, field
from math import comb

from . import _kernels
from .errors import ArtinsumError, NotGorensteinError, PreconditionError
from .poly import PolyRing, mono_deg
from .quotient import (ArtinAlgebra, Subspace, monomial_residues, quotient_algebra,
                       square_zero_algebra)


def _homogeneous(A):
    """A itself, once its reduced basis is checked to be homogeneous.

    Each element of the basis is m minus the lift of its class, and each
    class is a chain of products by the variables, so the basis is
    homogeneous exactly when every product e_l * x_v of `times_table` has
    degree deg e_l + 1; the filtration tests that once, when the algebra is
    made (`A.homogeneous`), and the basis itself is not built.
    """
    if not A.homogeneous:
        raise ArtinsumError("graded algebra built from a non-homogeneous presentation")
    return A


def socle_by_degree(G):
    """For each degree d, by increasing d, the echelon basis of the degree-d socle of G.

    Multiplication by a variable raises degrees, so the socle of G is graded
    and its reduced echelon basis (`G.socle().basis`, kept on G) is made of
    forms: the rows whose pivot has degree d, dict rows over all of G's
    basis, are the reduced echelon basis of the degree-d socle.
    """
    _homogeneous(G)
    out = {}
    for c, row in G.socle().basis.items():
        out.setdefault(mono_deg(G.basis[c]), []).append(row)
    return dict(sorted(out.items()))


def linear_socle_rows(G):
    """The echelon basis of the degree-1 socle of G: dict rows over the variables."""
    rows = [{G.basis[k].index(1): x for k, x in row.items()}
            for c, row in _homogeneous(G).socle().basis.items() if mono_deg(G.basis[c]) == 1]
    return list(_kernels.basis(rows, G.field.char).values())


def interior_socle_dimension(G):
    """The dimension of the socle of G in degrees two and up."""
    return sum(len(rows) for d, rows in socle_by_degree(G).items() if d >= 2)


def associated_graded(A):
    """The associated graded ring of A with its ideal of initial forms.

    Degree d of the presentation consists of the degree-d forms whose image
    in A lies in m^(d+1); all monomials of degree loewy+1 are adjoined so the
    presentation is visibly zero-dimensional.  The quotient is kept on A.
    A graded algebra is its own associated graded ring and is returned as
    it is, so the quotient, which is graded, is its own too.
    """
    if A.homogeneous:
        return A
    if A._graded is None:
        graded = _homogeneous(quotient_algebra(
            A, [A.power(d + 1) for d in range(A.loewy_length + 2)]))
        if graded.hilbert_function() != A.hilbert_function():
            raise ArtinsumError("initial-form computation broke the Hilbert function")
        A._graded = graded
    return A._graded


def is_gls(G):
    """Whether the socle of G in degrees two and up is one-dimensional.

    Returns (flag, witness) where the witness is the echelon basis of the
    degree-1 socle, dict rows over the variables; its row count is
    type(G) - 1 exactly when the flag is true.
    """
    if G.loewy_length < 2:
        raise PreconditionError("linear-socle test needs Loewy length at least 2")
    return interior_socle_dimension(G) == 1, linear_socle_rows(G)


@dataclass
class GlsSplit:
    gorenstein_part: ArtinAlgebra
    square_zero_part: ArtinAlgebra
    witness_forms: list
    eliminated: tuple
    substitution: dict


def _linear_form(ring, row):
    """The linear form whose coefficients over the variables are the dict row `row`."""
    return ring.poly({tuple(1 if j == i else 0 for j in range(ring.nvars)): c
                      for i, c in row.items()})


def gls_split(G):
    """Split G as (graded Gorenstein A) x_k (square-zero B) along the linear socle.

    The witnesses are the reduced echelon basis of the degree-1 socle in
    declaration order.  A is G modulo the witness forms, which the quotient
    presents without their pivot variables; these become the variables of B.
    """
    flag, witness = is_gls(G)
    if not flag:
        raise PreconditionError("algebra is not Gorenstein up to linear socle")
    ring = G.ring
    forms = [_linear_form(ring, row) for row in witness]
    # the ideal of the forms is the degree-1 socle, which they span: the socle's
    # rows with a pivot of degree one are its reduced echelon basis
    J = Subspace(G, {c: row for c, row in G.socle().basis.items() if mono_deg(G.basis[c]) == 1})
    a_part = _homogeneous(quotient_algebra(G, [J] * (G.loewy_length + 2)))
    eliminated = tuple(name for name in ring.names if name not in a_part.ring.names)
    substitution = {name: a_part.reduction[1][ring.index[name]]
                    for name in eliminated}
    b_part = square_zero_algebra(PolyRing(ring.field, eliminated))
    n = len(forms)
    if a_part.type != 1:
        raise ArtinsumError("linear-socle quotient is not Gorenstein")
    if a_part.loewy_length != G.loewy_length:
        raise ArtinsumError("linear-socle quotient changed the Loewy length")
    if a_part.edim != G.edim - n or a_part.length != G.length - n:
        raise ArtinsumError("linear-socle quotient has wrong size")
    return GlsSplit(a_part, b_part, forms, eliminated, substitution)


@dataclass
class GradedIdealData:
    """A homogeneous ideal of a graded algebra, held degree by degree."""

    owner: ArtinAlgebra
    components: dict = field(default_factory=dict)   # degree -> dict rows over its monomials
    forms: list = field(default_factory=list)

    @property
    def dim(self):
        return sum(len(rows) for rows in self.components.values())


def iarrobino(A):
    """The canonical graded ideal C of gr(A) and the Gorenstein quotient Q0.

    C stacks, degree by degree, the part of the annihilator filtration
    (0 : m^(s-i)) visible inside m^i; for Gorenstein A the quotient gr(A)/C
    is graded Gorenstein with socle concentrated in degree s.
    """
    if not A.is_gorenstein():
        raise NotGorensteinError("the filtration quotient needs a Gorenstein input")
    G = associated_graded(A)
    s = A.loewy_length
    data = GradedIdealData(G)
    targets = [A.annihilator(A.power(s - i).basis.values()).intersect(A.power(i))
               .add(A.power(i + 1)) for i in range(s + 1)] + [A.power(s + 2)]
    for i in range(s + 1):
        monos = [m for m in G.basis if mono_deg(m) == i]
        if not monos:
            continue
        rows = list(_kernels.left_kernel(monomial_residues(A, monos, targets),
                                         A.field.char).values())
        # quotient out the next filtration step: forms already in m^(i+1)
        # have zero class, recognized by lying in I*'s degree-i piece, which
        # has no standard-monomial support, so rows here are honest classes
        if rows:
            if i >= s - 1:
                raise ArtinsumError("filtration ideal unexpectedly nonzero in top degrees")
            data.components[i] = rows
            data.forms.extend(G.ring.poly({monos[k]: c for k, c in r.items()}) for r in rows)
    q0 = _homogeneous(quotient_algebra(A, targets))
    socle = socle_by_degree(q0)
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


def compressed_hilbert(edim, loewy):
    return tuple(min(comb(edim + i - 1, i), comb(edim + loewy - i - 1, loewy - i))
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
    compressed = H == compressed_hilbert(H[1], s) if s >= 1 else True
    return Classification(short=short, stretched=stretched, compressed=compressed)
