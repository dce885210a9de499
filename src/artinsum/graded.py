"""Associated graded rings, graded socles, linear-socle splitting, and classifiers.

A graded algebra is an `ArtinAlgebra` with a homogeneous reduced basis;
its degree pieces are read off its standard monomials.  The homogeneous
presentations of gr(A) and of Iarrobino's quotient Q0 are found degreewise
by exact linear algebra: a degree-d form belongs to the ideal exactly when
its image in A falls into a target subspace, m^(d+1) for gr(A) and
(0 : m^(s-d)) ∩ m^d + m^(d+1) for Q0.  Artinian inputs bound all degrees by
the Loewy length s plus one, so the ideal is the kernel of one map, which
sends each monomial to the residue of its class modulo its degree's
target; the left kernel of those residues gives the reduced basis and the
structure table (`quotient.kernel_algebra`).  The linear-socle split is a
quotient and a square-zero algebra, also kernels: no Buchberger run here.
"""

from dataclasses import dataclass, field
from math import comb

from . import _kernels, linalg
from .errors import ArtinsumError, NotGorensteinError, PreconditionError
from .poly import PolyRing, mono_deg
from .quotient import (ArtinAlgebra, _monomials_up_to, kernel_algebra, quotient_algebra,
                       square_zero_algebra)


def _homogeneous(A):
    """A itself, once its reduced basis is checked to be homogeneous."""
    if not all(g.is_homogeneous() for g in A.gb):
        raise ArtinsumError("graded algebra built from a non-homogeneous presentation")
    return A


def socle_by_degree(G):
    """For each degree, an echelon basis of the degree-d socle of G (full coordinates).

    Multiplication by a variable raises degrees, so the socle of G is graded
    and its reduced echelon basis (`G.socle().basis`, kept on G) is made of
    forms: the rows whose pivot has degree d are the reduced echelon basis
    of the degree-d socle.
    """
    _homogeneous(G)
    out = {}
    for c, row in G.socle().basis.items():
        out.setdefault(mono_deg(G.basis[c]), []).append(row)
    return {d: linalg.dense(G.field, rows, G.length) for d, rows in sorted(out.items())}


def linear_socle_rows(G):
    """Degree-1 socle vectors of G as rows over the variables in declaration order."""
    rows = [{G.basis[k].index(1): x for k, x in row.items()}
            for c, row in _homogeneous(G).socle().basis.items() if mono_deg(G.basis[c]) == 1]
    return linalg.dense(G.field, list(_kernels.basis(rows, G.field.char).values()), G.ring.nvars)


def interior_socle_dimension(G):
    """The dimension of the socle of G in degrees two and up."""
    return sum(rows.shape[0] for d, rows in socle_by_degree(G).items() if d >= 2)


def _degreewise_algebra(A, targets):
    """The graded algebra whose ideal holds the degree-d forms with image in targets[d].

    `targets[d]`, for d = 0..s+1 with s the Loewy length of A, is a subspace
    of m^d containing m^(d+1).  Each monomial of degree d is sent to the
    residue of its class modulo targets[d], and the ideal is the kernel of
    that one map.  Residues of different degrees cannot cancel: were a sum
    of them zero, the one of least degree d would lie in m^(d+1), inside
    targets[d], and a residue that lies in its own target is zero.  Every
    form of degree s+1 maps to zero and so lies in the ideal.
    """
    monos = _monomials_up_to(A.ring, A.loewy_length + 1)
    residues = [_residue(A, m, targets[mono_deg(m)]) for m in monos]
    return _homogeneous(kernel_algebra(A.ring, monos, residues))


def _residue(A, mono, target):
    """The class of a monomial modulo a subspace, as a dict row."""
    return _kernels.reduce(dict(A.monomial_row(mono)), target.basis, A.field.char)


def associated_graded(A):
    """The associated graded ring of A with its ideal of initial forms.

    Degree d of the presentation consists of the degree-d forms whose image
    in A lies in m^(d+1); all monomials of degree loewy+1 are adjoined so the
    presentation is visibly zero-dimensional.  The result is kept on A, and
    is its own associated graded ring.
    """
    if A._graded is None:
        targets = [A.power(d + 1) for d in range(A.loewy_length + 2)]
        graded = _degreewise_algebra(A, targets)
        if graded.hilbert_function() != A.hilbert_function():
            raise ArtinsumError("initial-form computation broke the Hilbert function")
        graded._graded = graded
        A._graded = graded
    return A._graded


def is_gls(G):
    """Whether the socle of G in degrees two and up is one-dimensional.

    Returns (flag, witness) where the witness is the echelon basis of the
    degree-1 socle over the variables; its row count is type(G) - 1 exactly
    when the flag is true.
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
    return ring.poly({tuple(1 if j == i else 0 for j in range(ring.nvars)): c
                      for i, c in enumerate(row) if c})


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
    a_part = _homogeneous(quotient_algebra(G, forms))
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
    if not A.is_gorenstein():
        raise NotGorensteinError("the filtration quotient needs a Gorenstein input")
    G = associated_graded(A)
    s = A.loewy_length
    data = GradedIdealData(G)
    targets = [A.annihilator(A.power(s - i).rows).intersect(A.power(i))
               .add(A.power(i + 1)) for i in range(s + 1)]
    for i, target in enumerate(targets):
        monos = [m for m in G.basis if mono_deg(m) == i]
        if not monos:
            continue
        residues = [_residue(A, m, target) for m in monos]
        rows = linalg.left_kernel(A.field, linalg.dense(A.field, residues, A.length))
        # quotient out the next filtration step: forms already in m^(i+1)
        # have zero class, recognized by lying in I*'s degree-i piece, which
        # has no standard-monomial support, so rows here are honest classes
        if rows.shape[0]:
            if i >= s - 1:
                raise ArtinsumError("filtration ideal unexpectedly nonzero in top degrees")
            data.components[i] = rows
            data.forms.extend(G.ring.poly({m: c for m, c in zip(monos, r) if c})
                              for r in rows)
    q0 = _degreewise_algebra(A, targets + [A.power(s + 2)])
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
