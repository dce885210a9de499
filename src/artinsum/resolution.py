"""Minimal free resolutions of the residue field by exact linear algebra.

Each step holds the kernel K of the current differential as a subspace of a
free module (a plain matrix kernel over the standard-monomial coordinates),
kept as a basis that is the identity on its lead columns.  Minimal
generators are the rows of that basis whose lead is not a pivot of m*K,
echeloned with the lead columns first: since m*K lies inside K, its pivots
are among K's leads, and the other rows span a complement of m*K in K.
Minimality is certified by checking that no differential entry has a unit
component.  Betti numbers are the ranks; truncated Poincare identities are
then checked with exact series arithmetic.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
from .errors import (ArtinsumError, NotGorensteinError, PreconditionError,
                     ResourceGuardError)
from .series import SeriesTrunc
from .sums import modulo_socle

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

    def poincare(self, truncation=None):
        n = self.truncation if truncation is None else truncation
        if n > self.truncation:
            raise ValueError("requested more coefficients than were computed")
        return SeriesTrunc.from_terms(n, dict(enumerate(self.betti[: n + 1])))


def _module_times_element(field, rows, mat):
    """Right-multiply every length-lambda block of each row by `mat` (or `linalg.prepared(mat)`)."""
    if rows.shape[0] == 0:
        return rows
    lam = mat.shape[0]
    blocks = rows.shape[1] // lam
    flat = rows.reshape(rows.shape[0] * blocks, lam)
    out = linalg.mat_mul(field, flat, mat)
    return out.reshape(rows.shape[0], rows.shape[1])


def _unit_entry(A, rows):
    """True when some block of some row has a nonzero coefficient on 1."""
    one_slot = A.basis_index[(0,) * A.ring.nvars]
    return bool(np.any(rows[:, one_slot::A.length] != A.field.zero))


def _differential_matrix(A, gens, prev_rank):
    """The k-linear matrix of d: free module on the rows of `gens` -> A^prev_rank."""
    lam = A.length
    cube = linalg.mat_mul(A.field, gens.reshape(len(gens) * prev_rank, lam), A._struct_operand)
    # cube[r, t, k, j] = coefficient of e_j in (block t of generator r) * e_k
    cube = cube.reshape(len(gens), prev_rank, lam, lam)
    return cube.transpose(0, 2, 1, 3).reshape(len(gens) * lam, prev_rank * lam)


def _leads_first(leads, n):
    """The column order that puts `leads` first, in their order, then the rest."""
    rest = np.ones(n, dtype=bool)
    rest[leads] = False
    return np.concatenate([leads, np.flatnonzero(rest)])


def betti_numbers(A, truncation=DEFAULT_TRUNCATION, max_dim=MAX_FREE_RANK_DIM):
    """Betti numbers beta_0..beta_N from a minimal free resolution of k over A.

    The generators at each step are the rows of the kernel basis whose lead
    column is not a pivot of m*K; a pivot of m*K outside the leads would
    mean m*K is not inside K, and raises.  Minimality is certified at every
    step (all differential entries in m) and exactness is enforced by rank
    arithmetic; a dimension guard protects against runaway rank growth.
    """
    if truncation < 2:
        raise PreconditionError("truncation must be at least 2")
    cached = A._betti_cache
    if cached is not None and cached.truncation >= truncation:
        return BettiData(cached.betti[: truncation + 1], truncation)
    lam = A.length
    betti = [1]
    m = A.power(1)                          # ker(A -> k) = m inside A^1, reduced echelon
    kernel, leads = m.rows, m.pivots
    prev_rank = 1
    for step in range(1, truncation + 1):
        if A.ring.nvars:
            stacked = np.vstack([_module_times_element(A.field, kernel, mx)
                                 for mx in A._var_operands])
        else:
            stacked = kernel[:0]
        mk_piv = linalg.rref(A.field, stacked[:, _leads_first(leads, kernel.shape[1])])[1]
        if mk_piv.size and mk_piv[-1] >= kernel.shape[0]:
            raise ArtinsumError("m*K is not inside K: m times the kernel has a pivot "
                                "outside the kernel's lead columns")
        is_gen = np.ones(kernel.shape[0], dtype=bool)
        is_gen[mk_piv] = False
        gens = kernel[is_gen]
        betti.append(len(gens))
        if step == truncation:
            break
        if not len(gens):
            # resolution terminated (regular input); pad with zeros
            betti.extend([0] * (truncation - step))
            break
        if len(gens) * lam > max_dim:
            raise ResourceGuardError("max_dim", max_dim, len(gens) * lam,
                                     "free module dimension")
        if _unit_entry(A, gens):
            raise ArtinsumError("differential has a unit entry; resolution not minimal")
        diff = _differential_matrix(A, gens, prev_rank)
        next_kernel, leads = linalg.left_kernel_with_leads(A.field, diff)
        # rank-nullity: diff is onto the previous kernel iff its rank, the row
        # count minus the left-kernel dimension, equals that kernel's dimension
        if diff.shape[0] - next_kernel.shape[0] != kernel.shape[0]:
            raise ArtinsumError("resolution is not exact at the previous step")
        kernel = next_kernel
        prev_rank = len(gens)
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
    len(monos) - A.length.  The second is the rank of the variable
    multiples of the reduced basis, truncated above degree s+1.
    """
    ring = A.ring
    if not A.gb:
        return 0
    bound = A.loewy_length + 1
    monos = [m for d in range(bound + 1) for m in ring.monomials_of_degree(d)]
    col = {m: j for j, m in enumerate(monos)}
    rows = []
    for g in A.gb:
        order = min(sum(t) for t in g.terms)
        for d in range(1, bound - order + 1):
            for m in ring.monomials_of_degree(d):
                row = linalg.zeros(ring.field, len(monos))
                for t, c in g.mul_term(m, ring.field.one).terms.items():
                    if sum(t) <= bound:
                        row[col[t]] = c
                rows.append(row)
    inside = linalg.rank(ring.field, linalg.matrix(ring.field, rows, width=len(monos)))
    return len(monos) - A.length - inside


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


def cs_phi(m, n, truncation):
    """The correction term for a connected sum with factor embedding dimensions m, n."""
    if m >= 2 and n >= 2:
        return SeriesTrunc.from_terms(truncation, {2: -1})
    if m == 1 and n == 1:
        return SeriesTrunc.from_terms(truncation, {2: 1})
    return SeriesTrunc.from_terms(truncation, {})


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
    psi = 1 for m, n >= 2, psi = -1 for m = n = 1, and psi = 0 otherwise.
    Like `verify_cs_series`, it needs both Loewy lengths at least 2.
    """
    from .sums import connected_sum, fibre_product
    if R.loewy_length < 2 or S.loewy_length < 2:
        raise PreconditionError("connected-sum generator-count identity needs both Loewy lengths >= 2")
    m, n = R.edim, S.edim
    P = fibre_product(R, S).algebra
    Q = connected_sum(R, S).algebra
    mu_r, mu_s, mu_p, mu_q = (mu_from_betti(A) for A in (R, S, P, Q))
    if m >= 2 and n >= 2:
        expected = 1
    elif m == 1 and n == 1:
        expected = -1
    else:
        expected = 0
    holds = (mu_p == mu_r + mu_s + m * n) and (mu_q == mu_p + expected)
    return MuReport(holds, mu_r, mu_s, mu_p, mu_q, mu_q - mu_p, expected)
