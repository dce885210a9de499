"""Connected-sum decomposition: coordinate splits, annihilator witnesses, certificates.

A coordinate split is checked directly from the defining ideal (all cross
products must lie in it; the components are the contractions).  When no
split is visible, a Gorenstein algebra whose associated graded ring is
Gorenstein up to linear socle is rewritten in witness coordinates built
from (0 : m^2) and split there.  Everything the pipeline claims is
re-verified at presentation level before it is reported.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ArtinsumError, NotGorensteinError, PreconditionError
from .graded import _binom, associated_graded, classify, gls_split, is_gls
from .grobner import IdealPresentation
from .poly import Polynomial, PolyRing
from .quotient import ArtinAlgebra, build_algebra
from .sums import connected_sum, socle_generator


# ---------------------------------------------------------------------------
# coordinate splits

@dataclass
class SplitCheck:
    ok: bool
    left: ArtinAlgebra = None
    right: ArtinAlgebra = None
    unit: object = None
    reasons: list = field(default_factory=list)


def _proportionality_unit(Q, vec_left, vec_right):
    """u with vec_left = u * vec_right, for vectors spanning the same line."""
    fld = Q.field
    support = [i for i, c in enumerate(vec_right) if c != fld.zero]
    if not support or not np.any(vec_left != fld.zero):
        raise ArtinsumError("socle generators vanish in the quotient")
    u = fld.div(vec_left[support[0]], vec_right[support[0]])
    scaled = np.asarray([fld.mul(u, c) for c in vec_right], dtype=vec_right.dtype)
    if np.any(scaled != vec_left):
        raise ArtinsumError("socle images are not proportional")
    return u


def check_split(Q, partition):
    """Try to split Q along a partition of its variables into two factors.

    Succeeds exactly when every cross product of the two variable groups
    lies in the defining ideal and both contractions are Gorenstein; the
    failure report lists the offending products or the bad contraction.
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
    offending = []
    for yn in left_names:
        for zn in right_names:
            prod = Q.ring.var(Q.ring.index[yn]) * Q.ring.var(Q.ring.index[zn])
            if not Q.pres.contains(prod):
                offending.append(f"{yn}*{zn}")
    if offending:
        reasons.append("cross products outside the ideal: " + ", ".join(offending))
    left_pres = Q.pres.contract(left_names)
    right_pres = Q.pres.contract(right_names)
    left = build_algebra(left_pres)
    right = build_algebra(right_pres)
    for name, A in (("left", left), ("right", right)):
        if not A.is_gorenstein():
            reasons.append(f"{name} contraction has socle dimension {A.type}, not 1")
    if reasons:
        return SplitCheck(False, left=left, right=right, reasons=reasons)
    if left.length + right.length != Q.length + 2:
        raise ArtinsumError("split length identity failed")
    dl = socle_generator(left).rename_into(Q.ring)
    dr = socle_generator(right).rename_into(Q.ring)
    unit = _proportionality_unit(Q, Q.vector(dl), Q.vector(dr))
    return SplitCheck(True, left=left, right=right, unit=unit)


# ---------------------------------------------------------------------------
# annihilator witnesses

@dataclass
class SplitWitness:
    """Lifted data splitting m into an annihilator pair of ideals."""

    z_lifts: list          # polynomials generating J, images of the new Z variables
    y_lifts: list          # minimal generators of 0 : J, images of the new Y variables
    new_ring: PolyRing
    images: list           # all new-variable images, in new_ring order


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
    gls_flag, _ = is_gls(G)
    if not gls_flag:
        raise PreconditionError("associated graded ring is not Gorenstein up to linear socle")
    n = G.type - 1
    if n == 0:
        return None
    ann2 = Q.annihilator_of_subspace(Q.power(2))
    if not ann2.intersect(Q.power(2)) == Q.power(s - 1):
        raise PreconditionError("clause (a) failed: (0:m^2) meets m^2 beyond m^(s-1)")
    top = Q.power(s - 1)
    z_vecs = linalg.complement_rows(Q.field, ann2.rows, top.rows, top.pivots)
    if len(z_vecs) != n:
        raise PreconditionError(
            f"clause (b) failed: (0:m^2)/m^(s-1) has dimension {len(z_vecs)}, expected {n}")
    socle = Q.socle()
    for z in z_vecs:
        if Q.power(2).contains(z):
            raise PreconditionError("clause (c) failed: a witness fell into m^2")
        products = linalg.matrix(Q.field,
                                 [Q.vec_mult_matrix_row(z, j) for j in range(Q.edim)],
                                 width=Q.length)
        if not linalg.row_spaces_equal(Q.field, products, socle.rows):
            raise PreconditionError("clause (c) failed: w*m is not the socle")
    J = Q.ideal_span(z_vecs)
    ideal_i = Q.annihilator_of_subspace(J)
    if not ideal_i.is_ideal():
        raise ArtinsumError("the annihilator of J is not an ideal")
    # invariants of the annihilator pair
    if Q.m_times(J).dim and not socle.contains_space(Q.m_times(J)):
        raise ArtinsumError("J*m escapes the socle")
    if any(np.any(Q.multiply(a, b) != Q.field.zero)
           for a in J.rows for b in Q.power(2).rows):
        raise ArtinsumError("J does not annihilate m^2")
    if not ideal_i.add(J) == Q.power(1):
        raise ArtinsumError("0:J + J is not the maximal ideal")
    power_i = ideal_i
    for r in range(2, s + 1):
        next_rows = np.vstack([linalg.mat_mul(Q.field, power_i.rows, Q.mult_matrix(v))
                               for v in ideal_i.rows]) if ideal_i.dim else ideal_i.rows
        power_i = Q.subspace(list(next_rows))
        if not power_i == Q.power(r):
            raise ArtinsumError(f"m^{r} differs from (0:J)^{r}")
    mu_j, _ = Q.minimal_generators(J)
    mu_i, y_vec_reps = Q.minimal_generators(ideal_i)
    if mu_j != n or mu_i + mu_j != Q.edim:
        raise ArtinsumError("generator counts of the annihilator pair are off")
    y_lifts = [Q.lift(v) for v in y_vec_reps]
    z_lifts = [Q.lift(v) for v in z_vecs]
    m = mu_i
    names = [f"Y{i + 1}" for i in range(m)] + [f"Z{j + 1}" for j in range(n)]
    new_ring = PolyRing(Q.field, names)
    return SplitWitness(z_lifts, y_lifts, new_ring, y_lifts + z_lifts)


def presentation_in_coordinates(Q, new_ring, images):
    """The kernel presentation of Q on a new minimal generating set of m.

    `images` are polynomials of Q's ring lifting the new variables; the
    kernel is computed degreewise, monomials above the Loewy length mapping
    to zero.
    """
    vecs = [Q.vector(p) for p in images]
    cap = Q.loewy_length + 1
    monos = []
    for d in range(cap + 1):
        monos.extend(new_ring.monomials_of_degree(d))
    values = {}
    one = linalg.zeros(Q.field, Q.length)
    one[Q.basis_index[(0,) * Q.ring.nvars]] = Q.field.one
    values[(0,) * new_ring.nvars] = one
    for mono in monos:
        if mono in values:
            continue
        i = next(k for k, e in enumerate(mono) if e)
        prev = list(mono)
        prev[i] -= 1
        values[mono] = Q.multiply(values[tuple(prev)], vecs[i])
    mat = linalg.matrix(Q.field, [values[m] for m in monos], width=Q.length)
    rows = linalg.left_kernel(Q.field, mat)
    gens = [Polynomial(new_ring, {m: c for m, c in zip(monos, r) if c != Q.field.zero})
            for r in rows]
    rebuilt = build_algebra(new_ring, gens)
    if rebuilt.length != Q.length or rebuilt.hilbert_function() != Q.hilbert_function():
        raise ArtinsumError("coordinate change did not preserve the algebra")
    return rebuilt


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
    from .resolution import mu_direct
    out = []
    H = Q.hilbert_function()
    d = Q.edim
    h2 = H[2] if len(H) > 2 else 0
    if h2 >= _binom(d, 2) + 2:
        out.append(Certificate("HILBERT2",
                               f"H(2) = {h2} >= C({d},2) + 2 = {_binom(d, 2) + 2}"))
    mu = mu_direct(Q)
    if d >= 3 and mu == d:
        out.append(Certificate("COMPLETE_INTERSECTION",
                               f"mu(I) = {mu} = edim >= 3"))
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
    return h2 <= _binom(m + n + 1, 2) - m * n


# ---------------------------------------------------------------------------
# the structure pipeline

@dataclass
class DecompositionReport:
    status: str          # decomposed | indecomposable-certified | inconclusive
    trivial: bool = False
    components: tuple = None
    unit: object = None
    witness: SplitWitness = None
    split_algebra: ArtinAlgebra = None
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
    gls_flag, _ = is_gls(G)
    if not gls_flag:
        certs = certify_indecomposable(Q)
        status = "indecomposable-certified" if certs else "inconclusive"
        return DecompositionReport(status=status, certificates=certs)
    if G.type == 1:
        # graded Gorenstein: only the trivial sum with a length-two factor
        zname = _fresh_name(set(Q.ring.names))
        ring = PolyRing(Q.field, [zname])
        S = build_algebra(ring, [ring.var(0) * ring.var(0)])
        report = DecompositionReport(status="decomposed", trivial=True,
                                     components=(Q, S), unit=Q.field.one)
        report.verified_identities.append(("graded-part-is-whole-ring", True))
        return report
    witness = split_witness(Q)
    split_algebra = presentation_in_coordinates(Q, witness.new_ring, witness.images)
    m = len(witness.y_lifts)
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
    identities.append(("reconstruction",
                       reconstructed.pres == split_algebra.pres))
    G_split = associated_graded(split_algebra)
    split_of_graded = gls_split(G_split)
    gr_R = associated_graded(R)
    identities.append(("graded-part-presentation",
                       split_of_graded.gorenstein_part.presentation == gr_R.presentation))
    if not all(flag for _, flag in identities):
        failed = [name for name, flag in identities if not flag]
        raise ArtinsumError("verification failed: " + ", ".join(failed))
    coordinate_change = {name: str(img)
                         for name, img in zip(witness.new_ring.names, witness.images)}
    return DecompositionReport(status="decomposed", trivial=False, components=(R, S),
                               unit=check.unit, witness=witness,
                               split_algebra=split_algebra,
                               coordinate_change=coordinate_change,
                               verified_identities=identities)
