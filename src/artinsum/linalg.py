"""Exact dense linear algebra over QQ and GF(p).

Matrices are numpy arrays: dtype int64 with canonical entries over a prime
field, dtype object holding Fractions over QQ.  Vectors are 1-D arrays of
the same flavor.  All routines are pure; inputs are never mutated.
"""

from fractions import Fraction

import numpy as np

from . import _kernels
from .fields import PrimeField

MAX_ECHELON_DIM = 1 << 22


def is_prime_field(field):
    return isinstance(field, PrimeField)


def zeros(field, shape):
    if is_prime_field(field):
        return np.zeros(shape, dtype=np.int64)
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    return a


def matrix(field, rows, width=None):
    """Stack an iterable of scalar rows into a matrix (possibly 0 x width)."""
    rows = [np.asarray(r, dtype=np.int64) if is_prime_field(field)
            else np.asarray(list(r), dtype=object) for r in rows]
    if not rows:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return zeros(field, (0, width))
    return np.vstack(rows)


def _rref_fraction(a):
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = Fraction(1) / a[r, c]
        if inv != 1:
            a[r, c:] = a[r, c:] * inv
        for i in range(m):
            f = a[i, c]
            if i != r and f != 0:
                a[i, c:] = a[i, c:] - f * a[r, c:]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(pivots, dtype=np.int64)


def rref(field, a):
    """Reduced row echelon form: returns (R, pivot column array)."""
    a = np.array(a, copy=True)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if max(a.shape, default=0) > MAX_ECHELON_DIM:
        raise ValueError("matrix dimension exceeds supported bound")
    if is_prime_field(field):
        a = np.asarray(a, dtype=np.int64) % field.p
        rank, pivots = _kernels.rref_mod(a, field.p)
        return a, pivots
    rank, pivots = _rref_fraction(a)
    return a, pivots


def echelon(field, a):
    """Reduced echelon basis of the row space, zero rows dropped."""
    r, pivots = rref(field, a)
    return r[: len(pivots)], pivots


def rank(field, a):
    return len(rref(field, a)[1])


def right_kernel(field, a):
    """Rows spanning {v : a @ v = 0}, one per free column, deterministic."""
    a = np.asarray(a)
    m, n = a.shape
    r, pivots = rref(field, a)
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = zeros(field, (len(free), n))
    one = field.one
    for k, c in enumerate(free):
        basis[k, c] = one
        for row_idx, pc in enumerate(pivots):
            v = r[row_idx, c]
            if v != field.zero:
                basis[k, int(pc)] = field.neg(v)
    return basis


def left_kernel(field, a):
    """Rows spanning {v : v @ a = 0}."""
    return right_kernel(field, np.asarray(a).T)


def reduce_row(field, vec, rows, pivots):
    """Residue of `vec` after elimination against a reduced echelon basis."""
    v = np.array(vec, copy=True)
    if len(rows) == 0:
        return v
    coeffs = v[list(map(int, pivots))]
    hit = np.flatnonzero(coeffs)
    if hit.size == 0:
        return v
    return _canonical(field, v - coeffs[hit] @ rows[hit])


def _canonical(field, a):
    return a % field.p if is_prime_field(field) else a


def complement_rows(field, rows, base_rows, base_pivots):
    """Monic residues of `rows` that extend a reduced echelon base, in input order.

    Row j yields its residue modulo the base and rows 0..j-1, scaled so the
    first nonzero entry is one, when that residue is nonzero.  A residue
    taken with zeros at the span's pivot columns is unique, so it does not
    depend on how the span's basis is kept: each row is reduced against the
    base and then against the kept residues, which stay a reduced basis of
    their own through one rank-1 update per kept row.
    """
    kept = zeros(field, (min(rows.shape), rows.shape[1]))
    pivots = []
    out = []
    for r in rows:
        k = len(pivots)
        r = reduce_row(field, reduce_row(field, r, base_rows, base_pivots), kept[:k], pivots)
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            continue
        c = int(nonzero[0])
        r = _canonical(field, r * field.inv(r[c]))
        hit = np.flatnonzero(kept[:k, c])
        kept[hit] = _canonical(field, kept[hit] - np.outer(kept[hit, c], r))
        kept[k] = r
        pivots.append(c)
        out.append(r)
    return out


def in_row_space(field, vec, rows, pivots):
    res = reduce_row(field, vec, rows, pivots)
    return not np.any(res != field.zero)


def row_spaces_equal(field, a, b):
    ea, _ = echelon(field, a)
    eb, _ = echelon(field, b)
    return ea.shape == eb.shape and bool(np.all(ea == eb))


def preimage_rows(field, m, sub_rows):
    """Rows spanning {v : v @ m lies in the row space of sub_rows}.

    Found as the v-components of the left kernel of [m ; sub_rows] stacked.
    """
    m = np.asarray(m)
    sub = np.asarray(sub_rows)
    if sub.shape[0] == 0:
        ker = left_kernel(field, m)
        return echelon(field, ker)[0]
    stacked = np.vstack([m, sub])
    ker = left_kernel(field, stacked)
    if ker.shape[0] == 0:
        return zeros(field, (0, m.shape[0]))
    return echelon(field, ker[:, : m.shape[0]])[0]


def intersect_row_spaces(field, a, b):
    """Echelon basis of rowspace(a) ∩ rowspace(b), by the Zassenhaus layout."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return zeros(field, (0, n))
    top = np.hstack([a, a])
    bottom = np.hstack([b, zeros(field, b.shape)])
    r, pivots = rref(field, np.vstack([top, bottom]))
    out = [r[i, n:] for i, c in enumerate(pivots) if c >= n]
    return matrix(field, out, width=n)


def identity(field, n):
    a = zeros(field, (n, n))
    for i in range(n):
        a[i, i] = field.one
    return a


def mat_mul(field, a, b):
    """Exact matrix product with modular reduction on the prime-field lane."""
    if is_prime_field(field):
        return np.asarray(a, dtype=np.int64).dot(b) % field.p
    return np.asarray(a, dtype=object).dot(b)
