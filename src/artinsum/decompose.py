"""Connected-sum decomposition: coordinate splits, annihilator witnesses, certificates.

A coordinate split is checked in the algebra: every cross product must
have class zero, and the components are the subalgebras
k[Y]/(I ∩ k[Y]) and k[Z]/(I ∩ k[Z]) that the two variable groups generate,
each presented by one degreewise kernel (`quotient.subalgebra`).  When no
split is visible, a Gorenstein algebra whose associated graded ring is
Gorenstein up to linear socle is rewritten in witness coordinates built
from (0 : m^2) and split there.  Everything the pipeline claims is
re-verified at presentation level before it is reported.
"""

from dataclasses import dataclass, field
from math import comb
from operator import add

from .errors import ArtinsumError, NotGorensteinError, PreconditionError
from .graded import associated_graded, classify, gls_split, interior_socle_dimension
from .poly import PolyRing
from .quotient import (ArtinAlgebra, presentation_in_coordinates, square_zero_algebra,
                       subalgebra)
from .resolution import mu_direct
from .sums import _proportionality_unit, connected_sum, socle_generator


# ---------------------------------------------------------------------------
# coordinate splits

@dataclass
class SplitCheck:
    ok: bool
    left: ArtinAlgebra = None
    right: ArtinAlgebra = None
    unit: object = None
    reasons: list = field(default_factory=list)


def check_split(Q, partition):
    """Try to split Q along a partition of its variables into two factors.

    Succeeds exactly when every cross product of the two variable groups
    lies in the defining ideal and both subalgebras they generate are
    Gorenstein; the failure report lists the offending products or the bad
    component.
    """
    if not Q.is_gorenstein():
        raise NotGorensteinError("coordinate splits are defined for Gorenstein algebras")
    left_names, right_names = [list(p) for p in partition]
    all_names = set(left_names) | set(right_names)
    if set(Q.ring.names) != all_names or len(left_names) + len(right_names) != Q.ring.nvars:
        raise PreconditionError("partition must cover the variables exactly once")
    if not left_names or not right_names:
        raise PreconditionError("both sides of the partition must be nonempty")
    reasons = []
    exps = {n: tuple(int(k == v) for k in range(Q.ring.nvars))
            for v, n in enumerate(Q.ring.names)}
    offending = [f"{yn}*{zn}" for yn in left_names for zn in right_names
                 if Q.monomial_row(tuple(map(add, exps[yn], exps[zn])))]
    if offending:
        reasons.append("cross products outside the ideal: " + ", ".join(offending))
    sides = [[n for n in Q.ring.names if n in side] for side in (left_names, right_names)]
    # every variable is a basis element, so its class is a unit row
    left, right = (subalgebra(Q, PolyRing(Q.field, names),
                              [{Q.basis_index[exps[n]]: 1} for n in names])
                   for names in sides)
    for name, A in (("left", left), ("right", right)):
        if not A.is_gorenstein():
            reasons.append(f"{name} contraction has socle dimension {A.type}, not 1")
    if reasons:
        return SplitCheck(False, left=left, right=right, reasons=reasons)
    if left.length + right.length != Q.length + 2:
        raise ArtinsumError("split length identity failed")
    dl = socle_generator(left).rename_into(Q.ring)
    dr = socle_generator(right).rename_into(Q.ring)
    unit = _proportionality_unit(Q, Q.element_row(dl), Q.element_row(dr))
    return SplitCheck(True, left=left, right=right, unit=unit)


# ---------------------------------------------------------------------------
# annihilator witnesses

@dataclass
class SplitWitness:
    """Elements of Q, dict rows, splitting m into an annihilator pair of ideals."""

    z_rows: list           # generators of J, images of the new Z variables
    y_rows: list           # minimal generators of 0 : J, images of the new Y variables
    new_ring: PolyRing     # the Y variables, then the Z variables


def split_witness(Q):
    """Witnesses from (0 : m^2) when gr(Q) is Gorenstein up to linear socle.

    Returns None when gr(Q) is itself Gorenstein (nothing to split), and
    raises PreconditionError naming the failed clause otherwise.  All the
    annihilator-pair identities are checked before the witness is returned.
    """
    if not Q.is_gorenstein():
        raise NotGorensteinError("witness extraction needs a Gorenstein algebra")
    s = Q.loewy_length
    if s < 3:
        raise PreconditionError("witness extraction needs Loewy length at least 3")
    G = associated_graded(Q)
    if interior_socle_dimension(G) != 1:
        raise PreconditionError("associated graded ring is not Gorenstein up to linear socle")
    n = G.type - 1
    if n == 0:
        return None
    ann2 = Q.annihilator(Q.power(2).basis.values())
    if not ann2.intersect(Q.power(2)) == Q.power(s - 1):
        raise PreconditionError("clause (a) failed: (0:m^2) meets m^2 beyond m^(s-1)")
    # m^(s+1) = 0 puts m^(s-1) inside (0:m^2), so its complement is read off the pivots
    z_rows = ann2.complement(Q.power(s - 1))
    if len(z_rows) != n:
        raise PreconditionError(
            f"clause (b) failed: (0:m^2)/m^(s-1) has dimension {len(z_rows)}, expected {n}")
    socle = Q.socle()
    for z in z_rows:
        if Q.power(2).contains(z):
            raise PreconditionError("clause (c) failed: a witness fell into m^2")
        if Q.m_times(Q.subspace([z])) != socle:
            raise PreconditionError("clause (c) failed: w*m is not the socle")
    J = Q.ideal_span(z_rows)
    # J is the ideal that the witnesses generate, so 0:J is their annihilator
    ideal_i = Q.annihilator(z_rows)
    if not ideal_i.is_ideal():
        raise ArtinsumError("the annihilator of J is not an ideal")
    # invariants of the annihilator pair; J is an ideal, so J*m^2 = m*(m*J)
    mj = Q.m_times(J)
    if not socle.contains_space(mj):
        raise ArtinsumError("J*m escapes the socle")
    if Q.m_times(mj).dim:
        raise ArtinsumError("J does not annihilate m^2")
    if not ideal_i.add(J) == Q.power(1):
        raise ArtinsumError("0:J + J is not the maximal ideal")
    mu_j, _ = Q.minimal_generators(J)
    mu_i, y_reps = Q.minimal_generators(ideal_i)
    # (0:J)^r is (0:J)^(r-1) times the minimal generators of 0:J, rows of a reduced basis
    generators = Q.product_table(y_reps)
    power_i = ideal_i
    for r in range(2, s + 1):
        power_i = Q.span_times(power_i.basis.values(), generators)
        if not power_i == Q.power(r):
            raise ArtinsumError(f"m^{r} differs from (0:J)^{r}")
    if mu_j != n or mu_i + mu_j != Q.edim:
        raise ArtinsumError("generator counts of the annihilator pair are off")
    names = [f"Y{i + 1}" for i in range(mu_i)] + [f"Z{j + 1}" for j in range(n)]
    return SplitWitness(z_rows, y_reps, PolyRing(Q.field, names))


# ---------------------------------------------------------------------------
# certificates

@dataclass
class Certificate:
    name: str
    detail: str


def certify_indecomposable(Q):
    """Certificates that rule out any non-trivial connected-sum decomposition."""
    if not Q.is_gorenstein():
        raise NotGorensteinError("certificates target Gorenstein algebras")
    out = []
    H = Q.hilbert_function()
    d = Q.edim
    h2 = H[2] if len(H) > 2 else 0
    if h2 >= comb(d, 2) + 2:
        out.append(Certificate("HILBERT2",
                               f"H(2) = {h2} >= C({d},2) + 2 = {comb(d, 2) + 2}"))
    # mu(I) is read only from edim 3 on, and counting it builds the reduced basis
    if d >= 3 and mu_direct(Q) == d:
        out.append(Certificate("COMPLETE_INTERSECTION",
                               f"mu(I) = {d} = edim >= 3"))
    kinds = classify(Q)
    if kinds.compressed and Q.loewy_length >= 4:
        out.append(Certificate("COMPRESSED",
                               f"compressed with Loewy length {Q.loewy_length} >= 4"))
    return out


def h2_bound_check(R, S, Q):
    """H_Q(2) <= C(m+n+1, 2) - m*n for a connected sum with factor edims m, n."""
    m, n = R.edim, S.edim
    H = Q.hilbert_function()
    h2 = H[2] if len(H) > 2 else 0
    return h2 <= comb(m + n + 1, 2) - m * n


# ---------------------------------------------------------------------------
# the structure pipeline

@dataclass
class DecompositionReport:
    status: str          # decomposed | indecomposable-certified | inconclusive
    trivial: bool = False
    components: tuple = None
    unit: object = None
    coordinate_change: dict = None
    certificates: list = field(default_factory=list)
    verified_identities: list = field(default_factory=list)


def _fresh_name(used, base="Z"):
    if base not in used:
        return base
    k = 1
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def structure_decompose(Q):
    """Decompose Q as a connected sum using the linear-socle route.

    Loewy length at least 3 is required.  A Gorenstein associated graded ring
    gives the trivial decomposition; a linear-socle one yields witness
    coordinates, a genuine split, and presentation-level verification; any
    other graded ring leaves the question open and only certificates are
    reported.
    """
    if not Q.is_gorenstein():
        raise NotGorensteinError("decomposition targets Gorenstein algebras")
    if Q.loewy_length < 3:
        raise PreconditionError("structure decomposition needs Loewy length at least 3")
    G = associated_graded(Q)
    if interior_socle_dimension(G) != 1:
        certs = certify_indecomposable(Q)
        status = "indecomposable-certified" if certs else "inconclusive"
        return DecompositionReport(status=status, certificates=certs)
    if G.type == 1:
        # graded Gorenstein: only the trivial sum with a length-two factor
        zname = _fresh_name(set(Q.ring.names))
        S = square_zero_algebra(PolyRing(Q.field, [zname]))
        report = DecompositionReport(status="decomposed", trivial=True,
                                     components=(Q, S), unit=Q.field.one)
        report.verified_identities.append(("graded-part-is-whole-ring", True))
        return report
    witness = split_witness(Q)
    images = witness.y_rows + witness.z_rows
    split_algebra = presentation_in_coordinates(Q, witness.new_ring, images)
    m = len(witness.y_rows)
    left_names = list(witness.new_ring.names[:m])
    right_names = list(witness.new_ring.names[m:])
    check = check_split(split_algebra, (left_names, right_names))
    if not check.ok:
        raise ArtinsumError("witness coordinates did not produce a split: "
                            + "; ".join(check.reasons))
    R, S = check.left, check.right
    identities = []
    identities.append(("length-additivity", R.length + S.length == Q.length + 2))
    identities.append(("right-factor-loewy-2", S.loewy_length == 2))
    reconstructed = connected_sum(R, S, unit=check.unit).algebra
    identities.append(("reconstruction", reconstructed.same_presentation(split_algebra)))
    graded_part = gls_split(associated_graded(split_algebra)).gorenstein_part
    identities.append(("graded-part-presentation",
                       graded_part.same_presentation(associated_graded(R))))
    if not all(flag for _, flag in identities):
        failed = [name for name, flag in identities if not flag]
        raise ArtinsumError("verification failed: " + ", ".join(failed))
    coordinate_change = {name: str(Q.lift(row))
                         for name, row in zip(witness.new_ring.names, images)}
    return DecompositionReport(status="decomposed", trivial=False, components=(R, S),
                               unit=check.unit, coordinate_change=coordinate_change,
                               verified_identities=identities)
