"""Constructors: fibre products, connected sums, and apolar algebras.

Trivial cases (a residue-field factor, or a length-two connected-sum factor)
return the surviving algebra with an explicit flag rather than erroring.

Nothing here runs Buchberger or a normal form.  An apolar algebra is
k[X]/Ann(F), presented by the derivatives of F that the monomials of k[X]
give (`quotient.kernel_algebra`).

Fibre products and connected sums are assembled from their factors'
reduced bases (`ArtinAlgebra.gb`), standard monomials and structure
tables (`ArtinAlgebra.struct_table`).  Let
R = k[Y]/I_R and S = k[Z]/I_S have reduced Grevlex bases G_R and G_S, with
I_R and I_S inside the square of the maximal ideal, as every algebra is
presented.  Grevlex on Y, Z restricts to Grevlex on Y and on Z.

- P = R x_k S has ideal I_P = I_R + I_S + (Y)(Z), and its reduced basis
  is G_R, G_S and every y_i*z_j, sorted by lead.  The S-pair of y_i*z_j
  and g in G_R is z_j times a multiple of the tail of g, whose terms all
  hold a variable of Y, so some y_k*z_j divides each of its terms; pairs
  across G_R and G_S have coprime leads.  No lead divides y_i*z_j, as the
  ideals hold no linear form, and every tail is standard.
  The standard monomials of P are those of R and of S with the two 1s
  merged, and m_R * m_S = 0 in P.
- Q = R # S = P / (h) with h = sigma_R - u*sigma_S monic.  Since m*h lies
  in I_P, I_Q = I_P + k*h, and lead(I_Q) = lead(I_P) + (lm h): the
  multiples of lm h by variables are leads of I_P already.  So the reduced
  basis of Q is h and the elements of G_P whose lead lm h does not divide,
  each with the lm h term of its tail replaced through h, and Q's basis is
  P's without lm h.
"""

from dataclasses import dataclass

from .errors import (ArtinsumError, BadSocleError, CharacteristicError,
                     NotGorensteinError, PreconditionError, RingMismatchError)
from .poly import Polynomial, PolyRing, mono_div
from .quotient import ArtinAlgebra, _monomials_up_to, kernel_algebra, quotient_algebra


@dataclass
class SumResult:
    """Outcome of a fibre product or connected sum."""

    algebra: ArtinAlgebra
    trivial: bool = False
    unit: object = None
    socle_left: Polynomial = None
    socle_right: Polynomial = None
    left_names: tuple = ()
    right_names: tuple = ()


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


def _fibre_assembly(R, S, big):
    """P = R x_k S on `big`: its reduced basis, standard monomials and structure table."""
    m, n = R.ring.nvars, S.ring.nvars
    key = big.order.key
    gb = [_embed(g, big, 0) for g in R.gb]
    gb += [_embed(g, big, m) for g in S.gb]
    gb += [big.var(i) * big.var(m + j) for i in range(m) for j in range(n)]
    gb.sort(key=lambda g: key(g.leading()[0]))
    left = [a + (0,) * n for a in R.basis]
    right = [(0,) * m + b for b in S.basis]
    basis = sorted(set(left + right), key=key)
    index = {mono: i for i, mono in enumerate(basis)}
    # 1 is basis[0] of every algebra, and its products are the identity; each
    # factor's basis keeps its order in P's, so renamed entries stay sorted
    table = [[(k, k, 1) for k in range(len(basis))]] + [None] * (len(basis) - 1)
    for A, monos in ((R, left), (S, right)):
        idx = [index[mono] for mono in monos]
        for a, entry in enumerate(A.struct_table[1:], 1):
            table[idx[a]] = [(idx[k], idx[j], c) for k, j, c in entry]
    return gb, basis, table


def _socle_quotient(gb, basis, table, h):
    """P / (h) from P's reduced basis, standard monomials and table, for h with m*h in I_P.

    The table's lm h component is rewritten through h, as the tails are:
    in each product with a nonzero a at e_lead, e_lead becomes e_lead - h;
    then the index of lm h is dropped.
    """
    p = h.ring.field.char
    key = h.ring.order.key
    h = h.monic()
    lead = h.leading()[0]
    reduced = [h] + [g - h.scale(g.coefficient(lead)) for g in gb
                     if mono_div(g.leading()[0], lead) is None]
    reduced.sort(key=lambda g: key(g.leading()[0]))
    index = {mono: i for i, mono in enumerate(basis)}
    at = index[lead]
    lead_class = [(index[mono], -c) for mono, c in h.terms.items() if mono != lead]
    out = []
    for l, entry in enumerate(table):
        if l == at:
            continue
        row = {(k, j): c for k, j, c in entry if at not in (k, j)}
        for k, j, a in entry:
            if j == at and k != at:
                for t, x in lead_class:
                    y = row.pop((k, t), 0) + a * x
                    y = y % p if p else y.numerator if y.denominator == 1 else y
                    if y:
                        row[k, t] = y
        out.append([(k - (k > at), j - (j > at), c) for (k, j), c in sorted(row.items())])
    return reduced, basis[:at] + basis[at + 1:], out


def fibre_product(R, S):
    """R x_k S as a quotient of the concatenated polynomial ring.

    The defining ideal joins both factors' ideals with all cross products of
    their variables.  A residue-field factor gives the trivial product.
    """
    if R.length == 1:
        return SumResult(S, trivial=True)
    if S.length == 1:
        return SumResult(R, trivial=True)
    big = _combined_ring(R, S)
    P = ArtinAlgebra(big, *_fibre_assembly(R, S, big))
    if P.length != R.length + S.length - 1:
        raise ArtinsumError("fibre product length identity failed")
    if P.hilbert_function()[1] != R.edim + S.edim or P.type != R.type + S.type:
        raise ArtinsumError("fibre product additivity failed")
    return SumResult(P, trivial=False,
                     left_names=R.ring.names, right_names=S.ring.names)


def socle_generator(A):
    """Deterministic socle generator of a Gorenstein algebra, lifted verbatim.

    The unique echelon representative, scaled so its largest standard
    monomial under the default order has coefficient one.
    """
    if not A.is_gorenstein():
        raise NotGorensteinError(f"socle has dimension {A.type}, not 1")
    (row,) = A.socle().basis.values()
    inv = A.field.inv(row[max(row)])
    return A.ring.poly({A.basis[k]: A.field.mul(inv, x) for k, x in row.items()})


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
    row = A.element_row(poly)
    if not row:
        raise BadSocleError(f"{side} socle expression vanishes in the quotient")
    if not A.socle().contains(row):
        raise BadSocleError(f"{side} socle expression does not lie in the socle")
    return A.lift(row)


def connected_sum(R, S, unit=1, socle_left=None, socle_right=None):
    """The connected sum of two Gorenstein factors along chosen socle generators.

    Quotients the fibre product by (socle_left - unit * socle_right).  When a
    factor has length two the sum collapses to the other factor, returned
    with the trivial flag.
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
    delta_r = socle_generator(R) if socle_left is None else _validate_socle(R, socle_left, "left")
    delta_s = socle_generator(S) if socle_right is None else _validate_socle(S, socle_right, "right")
    big = _combined_ring(R, S)
    h = _embed(delta_r, big, 0) - _embed(delta_s, big, R.ring.nvars).scale(unit)
    Q = ArtinAlgebra(big, *_socle_quotient(*_fibre_assembly(R, S, big), h))
    if not Q.is_gorenstein():
        raise ArtinsumError("connected sum is not Gorenstein")
    if Q.length != R.length + S.length - 2:
        raise ArtinsumError("connected sum length identity failed")
    if Q.hilbert_function()[1] != R.edim + S.edim:
        raise ArtinsumError("connected sum embedding-dimension identity failed")
    return SumResult(Q, trivial=False, unit=unit,
                     socle_left=delta_r, socle_right=delta_s,
                     left_names=R.ring.names, right_names=S.ring.names)


def modulo_socle(A):
    """A / soc(A); for Gorenstein input this kills the single socle generator."""
    return quotient_algebra(A, A.socle().lifts())


# ---------------------------------------------------------------------------
# apolar algebras (Macaulay inverse systems, differentiation action)

def default_operator_names(n):
    return ("X",) if n == 1 else tuple(f"X{i + 1}" for i in range(n))


def _apolar_classes(F, ops):
    """The monomials of `ops` up to degree deg F + 1, and dict rows of their derivatives of F.

    Each monomial's derivative is one derivative of its predecessor's, the
    monomial with its first nonzero exponent lowered, as `ArtinAlgebra`
    memoises classes; the monomials come in increasing degree.  Column c of
    the rows is the c-th term met among the derivatives.
    """
    monos = _monomials_up_to(ops, F.total_degree() + 1)
    derived = {monos[0]: F}
    for m in monos[1:]:
        i = next(k for k, e in enumerate(m) if e)
        derived[m] = derived[m[:i] + (m[i] - 1,) + m[i + 1:]].derivative(i)
    col = {}
    return monos, [{col.setdefault(t, len(col)): c for t, c in p.terms.items()}
                   for p in derived.values()]


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
    monos, classes = _apolar_classes(F, ops)
    A = kernel_algebra(ops, monos, classes)
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
