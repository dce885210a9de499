"""Minimal free resolutions of the residue field by exact linear algebra.

Every element of a free module A^r is a sparse row, a dict from column
t*lambda + j (block t, basis element e_j) to a nonzero scalar: an int in
[0, p) over GF(p), an int or Fraction over QQ.  The sparse echelon of
`_kernels` serves both lanes, on integer rows over QQ.  Products by the
variables are the algebra's own m*W product (`quotient._times` on the
algebra's `times_table`), applied block by block in one pass per row that
forms only the nonzero products; the differential is read off the
algebra's sparse structure table, `struct_table`.  Both walks reduce each
entry mod p as it accumulates over GF(p), so their rows are canonical when
they are made, and a row is copied only when a cancellation left a zero in
it (`quotient._finished`); over QQ each finished row is written with an int
where an entry is integral.  Most kernel rows, product rows and
differential rows have one entry, and those take a direct path: a one-entry
kernel row has its products read straight off the table's group for each
variable, with nothing to accumulate or finish, and a one-entry pivot row
is passed by in the echelon's back-substitution and in the kernel readout,
since it has no column but its pivot.

Each step holds the kernel K of the current differential as a basis that
is the identity on its lead columns.  Minimal generators are the rows of
that basis whose lead is not a pivot of m*K, echeloned with the lead
columns first: since m*K lies inside K, its pivots are among K's leads, and
the other rows span a complement of m*K in K, read off the pivots as
`Subspace.complement` reads it.  The next kernel is read off
the reduced echelon form of the transposed differential.  Minimality is
certified by checking that no differential entry has a unit component.
Betti numbers are the ranks; truncated Poincare identities are then
checked with exact series arithmetic.
"""

from dataclasses import dataclass
from math import comb
from operator import add

from . import _kernels
from .errors import (ArtinsumError, NotGorensteinError, PreconditionError,
                     ResourceGuardError)
from .quotient import _checked_table, _finished, _times
from .series import SeriesTrunc
from .sums import connected_sum, fibre_product, modulo_socle

DEFAULT_TRUNCATION = 6
MAX_FREE_RANK_DIM = 200_000


@dataclass
class BettiData:
    """Betti numbers of the residue field up to a truncation, with deviations."""

    betti: tuple
    truncation: int

    @property
    def eps1(self):
        return self.betti[1]

    @property
    def eps2(self):
        return self.betti[2] - comb(self.betti[1], 2)

    def poincare(self):
        return SeriesTrunc(self.betti)


def _differential(struct, gens, lam, p):
    """The transposed matrix of d: free module on `gens` -> A^rank.

    Its nonzero rows, keyed by index: row t*lam + j, column r*lam + k holds
    the coefficient of e_j in (block t of generator r) * e_k.  As in
    `quotient._times`, each entry is reduced mod p as it accumulates
    (`quotient._finished`).  It stays its own walk: made by `_times` and
    transposed, it took the `poincare` benchmark's ops 14-15% more CPU in
    process.
    """
    rows = {}
    for r, g in enumerate(gens):
        shift = r * lam
        for col, c in g.items():
            base = col - col % lam
            for k, j, s in struct[col % lam]:
                i, k = base + j, shift + k
                x = c * s
                row = rows.get(i)
                if row is None:
                    rows[i] = {k: x % p if p else x}
                else:
                    if k in row:
                        x += row[k]
                    row[k] = x % p if p else x
    return {i: out for i, row in rows.items() if (out := _finished(row, p))}


def betti_numbers(A, truncation=DEFAULT_TRUNCATION):
    """Betti numbers beta_0..beta_N from a minimal free resolution of k over A.

    The generators at each step are the rows of the kernel basis whose lead
    column is not a pivot of m*K, the complement read off the pivots as
    `Subspace.complement` reads it; a pivot of m*K outside the leads would
    mean m*K is not inside K, and raises.  Minimality is certified at every
    step (all differential entries in m) and exactness is enforced by rank
    arithmetic; a dimension guard, the module constant `MAX_FREE_RANK_DIM`,
    protects against runaway rank growth.
    """
    if truncation < 2:
        raise PreconditionError("truncation must be at least 2")
    cached = A._betti_cache
    if cached is not None and cached.truncation >= truncation:
        return BettiData(cached.betti[: truncation + 1], truncation)
    lam = A.length
    p = A.field.char
    one_slot = A.basis_index[(0,) * A.ring.nvars]
    struct = A.struct_table
    betti = [1]
    kernel = A.power(1).basis               # ker(A -> k) = m inside A^1, by lead column
    width = lam                             # columns of the free module K lies in
    for step in range(1, truncation + 1):
        # K's basis is one at its own lead and zero at the others: with the
        # leads put first, lead i is column i, and pivot i of m*K names row i
        columns = [len(kernel) + c for c in range(width)]
        for i, c in enumerate(kernel):
            columns[c] = i
        mk_piv = _kernels.echelon(_times(kernel.values(), A.times_table, lam, p, columns), p)
        if mk_piv and max(mk_piv) >= len(kernel):
            raise ArtinsumError("m*K is not inside K: m times the kernel has a pivot "
                                "outside the kernel's lead columns")
        gens = [row for i, row in enumerate(kernel.values()) if i not in mk_piv]
        betti.append(len(gens))
        if step == truncation:
            break
        if not gens:
            # resolution terminated (regular input); pad with zeros
            betti.extend([0] * (truncation - step))
            break
        width = len(gens) * lam
        if width > MAX_FREE_RANK_DIM:
            raise ResourceGuardError("max_dim", MAX_FREE_RANK_DIM, width, "free module dimension")
        if any(c % lam == one_slot for g in gens for c in g):
            raise ArtinsumError("differential has a unit entry; resolution not minimal")
        image = _kernels.echelon(_differential(struct, gens, lam, p).values(), p, reduced=True)
        # rank-nullity: d is onto the previous kernel iff its rank equals
        # that kernel's dimension
        if len(image) != len(kernel):
            raise ArtinsumError("resolution is not exact at the previous step")
        kernel = _kernels.kernel(image, width, p)
    data = BettiData(tuple(betti), truncation)
    if cached is None or cached.truncation < truncation:
        A._betti_cache = data
    return data


def mu_direct(A):
    """Minimal generator count of the defining ideal I by bounded linear algebra.

    With s the Loewy length, m^(s+1) lies in I, so m^(s+2) lies in m*I and
    mu(I) = dim I/m*I is counted modulo m^(s+2): it is the dimension of the
    image of I there minus that of m*I.  The first needs no rank: the
    monomials up to degree s+1 span k[x]/m^(s+2), and the quotient of that
    by the image of I is A itself, so the image of I has dimension
    len(monos) - A.length.  The second is the rank of the monomial
    multiples of the reduced basis, truncated above degree s+1: each row
    adds a monomial's exponents to the terms of an element.
    """
    if not A.gb:
        return 0
    bound = A.loewy_length + 1
    monos = _checked_table(A.ring.nvars, bound).monos
    col = {m: j for j, m in enumerate(monos)}
    rows = []
    for g in A.gb:
        terms = [(t, sum(t), c) for t, c in g.terms.items()]
        top = bound - min(e for _, e, _ in terms)
        # the monomials ascend by degree
        for m in monos[1:]:
            d = sum(m)
            if d > top:
                break
            rows.append({col[tuple(map(add, t, m))]: c for t, e, c in terms if e + d <= bound})
    return len(monos) - A.length - len(_kernels.echelon(rows, A.field.char))


def mu_from_betti(A, betti=None):
    """mu of the defining ideal from beta_2, cross-checked against mu_direct."""
    if betti is None:
        betti = betti_numbers(A, truncation=2)
    value = betti.betti[2] - comb(A.edim, 2)
    direct = mu_direct(A)
    if value != direct:
        raise ArtinsumError(
            f"beta_2 - C(edim,2) = {value} disagrees with the direct count {direct}")
    return value


def inverse_poincare(A, truncation=DEFAULT_TRUNCATION):
    return betti_numbers(A, truncation).poincare().reciprocal()


@dataclass
class SeriesReport:
    holds: bool
    truncation: int
    lhs: SeriesTrunc
    rhs: SeriesTrunc
    phi: SeriesTrunc = None


def verify_fp_series(R, S, P, truncation=DEFAULT_TRUNCATION):
    """1/P^P = 1/P^R + 1/P^S - 1 modulo t^(N+1), from independent resolutions."""
    one = SeriesTrunc.one(truncation)
    lhs = inverse_poincare(P, truncation)
    rhs = inverse_poincare(R, truncation) + inverse_poincare(S, truncation) - one
    return SeriesReport(lhs == rhs, truncation, lhs, rhs)


def cs_psi(m, n):
    """mu(I_Q) - mu(I_P) for a connected sum with factor embedding dimensions m, n."""
    if m >= 2 and n >= 2:
        return 1
    if m == 1 and n == 1:
        return -1
    return 0


def cs_phi(m, n, truncation):
    """The correction term phi = -psi*t^2 of the connected-sum series, psi from `cs_psi`."""
    return SeriesTrunc.from_terms(truncation, {2: -cs_psi(m, n)})


def verify_cs_series(R, S, Q, truncation=DEFAULT_TRUNCATION):
    """1/P^Q = 1/P^R + 1/P^S - 1 + phi, with phi keyed to the edims."""
    if R.loewy_length < 2 or S.loewy_length < 2:
        raise PreconditionError("connected-sum series identity needs both Loewy lengths >= 2")
    one = SeriesTrunc.one(truncation)
    phi = cs_phi(R.edim, S.edim, truncation)
    lhs = inverse_poincare(Q, truncation)
    rhs = inverse_poincare(R, truncation) + inverse_poincare(S, truncation) - one + phi
    return SeriesReport(lhs == rhs, truncation, lhs, rhs, phi)


def verify_socle_quotient(T, truncation=DEFAULT_TRUNCATION):
    """1/P^T = 1/P^(T/soc T) + t^2 for Gorenstein T with edim >= 2."""
    if not T.is_gorenstein():
        raise NotGorensteinError("socle-quotient identity needs a Gorenstein algebra")
    if T.edim < 2:
        raise PreconditionError("socle-quotient identity needs embedding dimension >= 2")
    tbar = modulo_socle(T)
    lhs = inverse_poincare(T, truncation)
    rhs = inverse_poincare(tbar, truncation) + SeriesTrunc.from_terms(truncation, {2: 1})
    return SeriesReport(lhs == rhs, truncation, lhs, rhs)


@dataclass
class MuReport:
    holds: bool
    mu_left: int
    mu_right: int
    mu_product: int
    mu_sum: int
    psi: int
    expected_psi: int


def verify_mu_formulas(R, S):
    """Generator counts of the product and sum ideals against the factor counts.

    Checks mu(I_P) = mu(I_R) + mu(I_S) + m*n and mu(I_Q) = mu(I_P) + psi with
    psi from `cs_psi`: 1 for m, n >= 2, -1 for m = n = 1, and 0 otherwise.
    Like `verify_cs_series`, it needs both Loewy lengths at least 2.
    """
    if R.loewy_length < 2 or S.loewy_length < 2:
        raise PreconditionError("connected-sum generator-count identity needs both Loewy lengths >= 2")
    m, n = R.edim, S.edim
    P = fibre_product(R, S).algebra
    Q = connected_sum(R, S).algebra
    mu_r, mu_s, mu_p, mu_q = (mu_from_betti(A) for A in (R, S, P, Q))
    expected = cs_psi(m, n)
    holds = (mu_p == mu_r + mu_s + m * n) and (mu_q == mu_p + expected)
    return MuReport(holds, mu_r, mu_s, mu_p, mu_q, mu_q - mu_p, expected)
