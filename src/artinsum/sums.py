"""Constructors: fibre products, connected sums, and apolar algebras.

Trivial cases (a residue-field factor, or a length-two connected-sum factor)
return the surviving algebra with an explicit flag rather than erroring.

Nothing here runs Buchberger or a normal form.  An apolar algebra is
k[X]/Ann(F), presented by the derivatives of F that the monomials of k[X]
give (`quotient.kernel_algebra`), taken as term dicts (`_derive`).

Fibre products and connected sums are given, as every algebra is, by the
classes of monomials (`ArtinAlgebra`), here their factors' own classes.
Let R = k[Y]/I_R and S = k[Z]/I_S, with I_R and I_S inside the square of
the maximal ideal, as every algebra is presented.  Grevlex on Y, Z
restricts to Grevlex on Y and on Z.

- P = R x_k S has ideal I_P = I_R + I_S + (Y)(Z), and its leading ideal
  is lead(I_R) + lead(I_S) + (Y)(Z): the S-pair of y_i*z_j and an element
  g of a reduced basis of I_R is z_j times a multiple of the tail of g,
  each of whose terms some y_k*z_j divides, and likewise for I_S.  So the
  standard monomials of P are those of R and of S with the two 1s merged,
  and m_R * m_S = 0 in P.  Within a degree every monomial in Z alone is
  smaller than every one in Y alone, so P's basis is a merge of the
  factors' bases by degree.
- Q = R # S = P / (h) with h = sigma_R - u*sigma_S monic.  Since m*h lies
  in I_P, I_Q = I_P + k*h, and lead(I_Q) = lead(I_P) + (lm h): the
  multiples of lm h by variables are leads of I_P already.  So Q's basis
  is P's without lm h.

Only the standard monomials and the classes are assembled
(`_fibre_classes`: the factors' classes with their columns moved to their
places in P, a mixed monomial having class 0; and `_socle_quotient`, which
rewrites them through h, taken as a dict row over P's basis, placed from
the factors' socle rows, so no polynomial is built); the tables, the
filtration, the socle, the identity checks and, on its first read, the
reduced basis are read off them.
"""

from dataclasses import dataclass
from heapq import merge

from .errors import (ArtinsumError, BadSocleError, CharacteristicError,
                     NotGorensteinError, PreconditionError, RingMismatchError)
from .poly import PolyRing, mono_deg
from .quotient import (ArtinAlgebra, _canonical, _checked_table, kernel_algebra,
                       quotient_algebra)


@dataclass
class SumResult:
    """Outcome of a fibre product or connected sum."""

    algebra: ArtinAlgebra
    trivial: bool = False
    unit: object = None


def _combined_ring(R, S):
    if R.field != S.field:
        raise RingMismatchError("factors over different fields")
    overlap = set(R.ring.names) & set(S.ring.names)
    if overlap:
        raise RingMismatchError(f"variable collision between factors: {sorted(overlap)}")
    return PolyRing(R.field, R.ring.names + S.ring.names)


def _embed(poly, big, offset):
    index_map = [offset + i for i in range(poly.ring.nvars)]
    return poly.rename_into(big, index_map)


def _fibre_classes(R, S):
    """P = R x_k S on R's variables then S's: its standard monomials, classes and places.

    Both factors' bases ascend, and within a degree Grevlex on the joined
    ring puts every pure-Z monomial before every pure-Y one, so P's basis
    is 1 and then, degree by degree, S's monomials followed by R's: a merge
    by degree that keeps each factor's order.  `places` lists, for R and
    for S, the index in P's basis of each of the factor's basis elements.
    P's classes are the factors' own, each monomial padded with zeros and
    each column moved to its place, which keeps every class sorted; a mixed
    monomial lies in m_R*m_S = 0 and is left out.
    """
    m, n = R.ring.nvars, S.ring.nvars
    left = [a + (0,) * n for a in R.basis]
    right = [(0,) * m + b for b in S.basis]
    basis = [left[0], *merge(right[1:], left[1:], key=mono_deg)]
    index = {mono: i for i, mono in enumerate(basis)}
    places = [[index[mono] for mono in monos] for monos in (left, right)]
    idx_r, idx_s, pad_r, pad_s = *places, (0,) * n, (0,) * m
    classes = {a + pad_r: {idx_r[k]: c for k, c in row.items()} for a, row in R._classes.items()}
    classes.update((pad_s + b, {idx_s[k]: c for k, c in row.items()})
                   for b, row in S._classes.items())
    return basis, classes, places


def _socle_quotient(basis, classes, h, field):
    """P / (h) from P's standard monomials and classes, for h a dict row over P's basis with m*h in I_P.

    The basis ascends, so lm h is the column of h's largest index, and h
    is made monic there.  A class with an entry a at lm h is rewritten
    through h: e_lead becomes e_lead - h.  Then the index of lm h is
    dropped, and the larger indices shift down by one, which keeps every
    class sorted and canonical.
    """
    at = max(h)
    inv = field.inv(h[at])
    lead_class = [(t, -field.mul(inv, x)) for t, x in h.items() if t != at]
    out = {}
    for mono, row in classes.items():
        a = row.get(at)
        if a is not None:
            row = {k: c for k, c in row.items() if k != at}
            for t, x in lead_class:
                row[t] = row.get(t, 0) + a * x
            row = dict(sorted(_canonical(row, field.char).items()))
        out[mono] = {k - (k > at): c for k, c in row.items()}
    return basis[:at] + basis[at + 1:], out


def fibre_product(R, S):
    """R x_k S as a quotient of the concatenated polynomial ring.

    The defining ideal joins both factors' ideals with all cross products of
    their variables.  A residue-field factor gives the trivial product.
    """
    if R.length == 1:
        return SumResult(S, trivial=True)
    if S.length == 1:
        return SumResult(R, trivial=True)
    basis, classes, _ = _fibre_classes(R, S)
    P = ArtinAlgebra(_combined_ring(R, S), basis, classes)
    if P.length != R.length + S.length - 1:
        raise ArtinsumError("fibre product length identity failed")
    if P.hilbert_function()[1] != R.edim + S.edim or P.type != R.type + S.type:
        raise ArtinsumError("fibre product additivity failed")
    return SumResult(P, trivial=False)


def socle_generator(A):
    """Deterministic socle generator of a Gorenstein algebra, lifted verbatim.

    The unique echelon representative, scaled so its largest standard
    monomial under Grevlex has coefficient one.
    """
    if not A.is_gorenstein():
        raise NotGorensteinError(f"socle has dimension {A.type}, not 1")
    return A.lift(_socle_row(A))


def _socle_row(A):
    """The socle generator of a Gorenstein algebra as a dict row, one at its largest column."""
    (row,) = A.socle().basis.values()
    inv = A.field.inv(row[max(row)])
    return {k: A.field.mul(inv, x) for k, x in row.items()}


def _proportionality_unit(Q, left, right):
    """u with left = u * right, for elements of Q, dict rows, spanning the same line."""
    fld = Q.field
    if not left or not right:
        raise ArtinsumError("socle generators vanish in the quotient")
    k = min(right)
    u = fld.div(left.get(k, fld.zero), right[k])
    if {j: fld.mul(u, c) for j, c in right.items()} != left:
        raise ArtinsumError("socle images are not proportional")
    return u


def _validate_socle(A, poly, side):
    """The class of a socle expression, a dict row, checked to be a nonzero socle element."""
    row = A.element_row(poly)
    if not row:
        raise BadSocleError(f"{side} socle expression vanishes in the quotient")
    if not A.socle().contains(row):
        raise BadSocleError(f"{side} socle expression does not lie in the socle")
    return row


def connected_sum(R, S, unit=1, socle_left=None, socle_right=None):
    """The connected sum of two Gorenstein factors along chosen socle generators.

    Quotients the fibre product by (socle_left - unit * socle_right).  When a
    factor has length two the sum collapses to the other factor, returned
    with the trivial flag.  h is a dict row over the fibre product's basis:
    each factor's socle element is its socle row, normalised as
    `socle_generator` normalises it, or the class (`element_row`) of the
    given expression once it is checked to be a nonzero socle element, and
    the two are placed at their factors' places (`_fibre_classes`).
    """
    for A in (R, S):
        if not A.is_gorenstein():
            raise NotGorensteinError("connected sum requires Gorenstein factors")
        if A.length == 1:
            raise PreconditionError("connected sum factors must differ from the base field")
    unit = R.field.coerce(unit)
    if unit == R.field.zero:
        raise PreconditionError("the socle-matching unit must be nonzero")
    if S.length == 2:
        return SumResult(R, trivial=True, unit=unit)
    if R.length == 2:
        return SumResult(S, trivial=True, unit=unit)
    delta_r = _socle_row(R) if socle_left is None else _validate_socle(R, socle_left, "left")
    delta_s = _socle_row(S) if socle_right is None else _validate_socle(S, socle_right, "right")
    basis, classes, (left, right) = _fibre_classes(R, S)
    # both socles lie in the maximal ideals, whose places in P are disjoint
    h = {left[k]: x for k, x in delta_r.items()}
    h.update((right[k], -unit * x) for k, x in delta_s.items())
    Q = ArtinAlgebra(_combined_ring(R, S), *_socle_quotient(basis, classes, h, R.field))
    if not Q.is_gorenstein():
        raise ArtinsumError("connected sum is not Gorenstein")
    if Q.length != R.length + S.length - 2:
        raise ArtinsumError("connected sum length identity failed")
    if Q.hilbert_function()[1] != R.edim + S.edim:
        raise ArtinsumError("connected sum embedding-dimension identity failed")
    return SumResult(Q, trivial=False, unit=unit)


def modulo_socle(A):
    """A / soc(A); for Gorenstein input this kills the single socle generator."""
    return quotient_algebra(A, [A.socle()] * (A.loewy_length + 2))


# ---------------------------------------------------------------------------
# apolar algebras (Macaulay inverse systems, differentiation action)

def default_operator_names(n):
    return ("X",) if n == 1 else tuple(f"X{i + 1}" for i in range(n))


def _derive(terms, i, p):
    """The partial derivative by variable i of a term dict (exponent tuple to scalar).

    Each term's coefficient is multiplied by its exponent, mod p over GF(p);
    over QQ the product is written as an int where it is integral, so the
    derivatives of canonical terms are canonical (`quotient._canonical`).
    """
    out = {}
    for t, c in terms.items():
        if e := t[i]:
            if d := (c * e % p if p else c * e):
                out[t[:i] + (e - 1,) + t[i + 1:]] = (
                    d if type(d) is int or d.denominator != 1 else d.numerator)
    return out


def _apolar_classes(F, ops):
    """The monomials of `ops` up to degree deg F + 1, and dict rows of their derivatives of F.

    The monomials ascend under Grevlex (`_checked_table`, in the guard), as
    `kernel_algebra` takes their classes.  F's terms are written by the
    `_canonical` rule, an int over QQ wherever a coefficient is integral,
    and each monomial's derivative is a term dict, one derivative
    (`_derive`) of its predecessor's, in one forward pass over the table,
    as `ArtinAlgebra` makes its classes; so every row is canonical, as
    `kernel_algebra` requires.  Column c of the rows is the c-th term met
    among the derivatives.
    """
    p = F.ring.field.char
    table = _checked_table(ops.nvars, F.total_degree() + 1)
    derived = [_canonical(F.terms, p)]
    for i, v in zip(table.pred[1:], table.var[1:]):
        derived.append(_derive(derived[i], v, p))
    col = {}
    return table.monos, [{col.setdefault(t, len(col)): c for t, c in terms.items()}
                         for terms in derived]


def apolar_algebra(F, operator_names=None):
    """k[X] / Ann(F) with the variables acting on F by partial differentiation.

    Needs characteristic zero or larger than deg F.  The dimension equals the
    span of F and its iterated derivatives, and the socle degree is deg F.
    """
    if F.is_zero():
        raise PreconditionError("the dual polynomial must be nonzero")
    dual = F.ring
    field = dual.field
    degree = F.total_degree()
    if field.char != 0 and field.char <= degree:
        raise CharacteristicError(
            f"characteristic {field.char} too small for dual degree {degree}")
    names = tuple(operator_names) if operator_names else default_operator_names(dual.nvars)
    if len(names) != dual.nvars:
        raise PreconditionError(f"one operator name per dual variable required: "
                                f"{len(names)} names for {dual.nvars} variables")
    ops = PolyRing(field, names)
    A = kernel_algebra(ops, degree + 1, _apolar_classes(F, ops)[1])
    if A.loewy_length != degree or not A.is_gorenstein():
        raise ArtinsumError("apolar algebra failed the duality sanity checks")
    return A


@dataclass
class ApolarSumReport:
    matched: bool
    unit: object
    combined: ArtinAlgebra
    reconstructed: ArtinAlgebra
    detail: str = ""


def apolar_sum_check(F, G):
    """Compare apolar(F + G) with the connected sum of apolar(F) and apolar(G).

    Operator variables are numbered consecutively across the two factors so
    both sides live in the same ring; the matching unit is recovered from the
    socle images and reported.  A mismatch is reported, not raised.
    """
    if set(F.ring.names) & set(G.ring.names):
        raise RingMismatchError("dual variable sets must be disjoint")
    if F.ring.field != G.ring.field:
        raise RingMismatchError("dual polynomials over different fields")
    m, n = F.ring.nvars, G.ring.nvars
    all_ops = tuple(f"X{i + 1}" for i in range(m + n))
    R = apolar_algebra(F, all_ops[:m])
    S = apolar_algebra(G, all_ops[m:])
    dual = PolyRing(F.ring.field, F.ring.names + G.ring.names)
    H = _embed(F, dual, 0) + _embed(G, dual, m)
    combined = apolar_algebra(H, all_ops)
    delta_r = _embed(socle_generator(R), combined.ring, 0)
    delta_s = _embed(socle_generator(S), combined.ring, m)
    try:
        unit = _proportionality_unit(combined, combined.element_row(delta_r),
                                     combined.element_row(delta_s))
    except ArtinsumError as exc:
        return ApolarSumReport(False, None, combined, None, detail=str(exc))
    reconstructed = connected_sum(R, S, unit=unit).algebra
    return ApolarSumReport(combined.same_presentation(reconstructed), unit, combined,
                           reconstructed)
