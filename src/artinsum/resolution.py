"""Minimal free resolutions of the residue field by exact linear algebra.

Each step takes the kernel of the current differential as a subspace of a
free module (a plain matrix kernel over the standard-monomial coordinates),
selects minimal generators modulo m times the kernel, and certifies
minimality by checking that no differential entry has a unit component.
Betti numbers are the ranks; truncated Poincare identities are then checked
with exact series arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (ArtinsumError, NotGorensteinError, PreconditionError,
                     ResourceGuardError)
from .graded import _binom
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
        return self.betti[2] - _binom(self.betti[1], 2)

    def poincare(self, truncation=None):
        n = self.truncation if truncation is None else truncation
        if n > self.truncation:
            raise ValueError("requested more coefficients than were computed")
        return SeriesTrunc.from_terms(n, dict(enumerate(self.betti[: n + 1])))


def _module_times_element(field, rows, mat):
    """Right-multiply every length-lambda block of each row by `mat`."""
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
    lam = A.length
    blocks = rows.shape[1] // lam
    for r in rows:
        for b in range(blocks):
            if r[b * lam + one_slot] != A.field.zero:
                return True
    return False


def _differential_matrix(A, gens, prev_rank):
    """The k-linear matrix of d: free module on `gens` -> A^prev_rank."""
    lam = A.length
    out = linalg.zeros(A.field, (len(gens) * lam, prev_rank * lam))
    for r, g in enumerate(gens):
        blocks = g.reshape(prev_rank, lam)
        cube = np.tensordot(blocks, A.struct, axes=([1], [0]))
        if linalg.is_prime_field(A.field):
            cube = cube % A.field.p
        # cube[t, k, j] = coefficient of e_j in (block t of g) * e_k
        out[r * lam: (r + 1) * lam, :] = cube.transpose(1, 0, 2).reshape(lam, prev_rank * lam)
    return out


def betti_numbers(A, truncation=DEFAULT_TRUNCATION, max_dim=MAX_FREE_RANK_DIM):
    """Betti numbers beta_0..beta_N from a minimal free resolution of k over A.

    Minimality is certified at every step (all differential entries in m) and
    exactness is enforced by rank arithmetic; a dimension guard protects
    against runaway rank growth.
    """
    if truncation < 2:
        raise PreconditionError("truncation must be at least 2")
    cached = A._betti_cache
    if cached is not None and cached.truncation >= truncation:
        return BettiData(cached.betti[: truncation + 1], truncation)
    lam = A.length
    betti = [1]
    kernel_rows = A.power(1).rows          # ker(A -> k) = m inside A^1, reduced echelon
    prev_rank = 1
    for step in range(1, truncation + 1):
        if A.ring.nvars:
            stacked = np.vstack([_module_times_element(A.field, kernel_rows, mx)
                                 for mx in A.var_matrices])
        else:
            stacked = kernel_rows[:0]
        mk, mk_piv = linalg.echelon(A.field, stacked)
        gens = linalg.complement_rows(A.field, kernel_rows, mk, mk_piv)
        betti.append(len(gens))
        if step == truncation:
            break
        if not gens:
            # resolution terminated (regular input); pad with zeros
            betti.extend([0] * (truncation - step))
            break
        if len(gens) * lam > max_dim:
            raise ResourceGuardError(
                f"free module dimension {len(gens) * lam} exceeds the guard {max_dim}")
        if _unit_entry(A, np.vstack(gens)):
            raise ArtinsumError("differential has a unit entry; resolution not minimal")
        diff = _differential_matrix(A, gens, prev_rank)
        kernel = linalg.left_kernel(A.field, diff)
        # rank-nullity: diff is onto the previous kernel iff its rank, the row
        # count minus the left-kernel dimension, equals that kernel's dimension
        if diff.shape[0] - kernel.shape[0] != kernel_rows.shape[0]:
            raise ArtinsumError("resolution is not exact at the previous step")
        kernel_rows = linalg.echelon(A.field, kernel)[0]
        prev_rank = len(gens)
    data = BettiData(tuple(betti), truncation)
    if cached is None or cached.truncation < truncation:
        A._betti_cache = data
    return data


def mu_direct(A):
    """Minimal generator count of the defining ideal by bounded linear algebra.

    Works modulo the power of the variable ideal that the generators and
    their variable multiples certify, which contains m-times-ideal exactly.
    """
    ring = A.ring
    gens = list(A.pres.generators)
    if not gens:
        return 0
    bound = A.loewy_length + 2
    monos = []
    for d in range(bound + 1):
        monos.extend(ring.monomials_of_degree(d))
    col = {m: j for j, m in enumerate(monos)}

    def truncated_rows(min_mult_degree):
        rows = []
        for g in gens:
            order = min(sum(t) for t in g.terms)
            for d in range(min_mult_degree, bound - order + 1):
                for m in ring.monomials_of_degree(d):
                    prod = g.mul_term(m, ring.field.one)
                    row = linalg.zeros(ring.field, len(monos))
                    for t, c in prod.terms.items():
                        if sum(t) <= bound:
                            row[col[t]] = c
                    rows.append(row)
        return linalg.matrix(ring.field, rows, width=len(monos))

    full = linalg.rank(ring.field, truncated_rows(0))
    inside = linalg.rank(ring.field, truncated_rows(1))
    return full - inside


def mu_from_betti(A, betti=None):
    """mu of the defining ideal from beta_2, cross-checked against mu_direct."""
    if betti is None:
        betti = betti_numbers(A, truncation=2)
    value = betti.betti[2] - _binom(A.edim, 2)
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


def verify_mu_formulas(R, S, truncation=4):
    """Generator counts of the product and sum ideals against the factor counts.

    Checks mu(I_P) = mu(I_R) + mu(I_S) + m*n and mu(I_Q) = mu(I_P) + psi with
    psi = 1 for m, n >= 2, psi = -1 for m = n = 1, and psi = 0 otherwise.
    """
    from .sums import connected_sum, fibre_product
    m, n = R.edim, S.edim
    P = fibre_product(R, S).algebra
    Q = connected_sum(R, S).algebra
    trunc = max(2, truncation)
    mu_r = mu_from_betti(R, betti_numbers(R, trunc))
    mu_s = mu_from_betti(S, betti_numbers(S, trunc))
    mu_p = mu_from_betti(P, betti_numbers(P, trunc))
    mu_q = mu_from_betti(Q, betti_numbers(Q, trunc))
    if m >= 2 and n >= 2:
        expected = 1
    elif m == 1 and n == 1:
        expected = -1
    else:
        expected = 0
    holds = (mu_p == mu_r + mu_s + m * n) and (mu_q == mu_p + expected)
    return MuReport(holds, mu_r, mu_s, mu_p, mu_q, mu_q - mu_p, expected)
