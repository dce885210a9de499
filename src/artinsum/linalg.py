"""Exact dense linear algebra over QQ and GF(p).

Matrices are numpy arrays: dtype int64 with canonical entries over a prime
field, dtype object over QQ.  Vectors are 1-D arrays of the same flavor.
All routines are pure; inputs are never mutated.

A QQ array may hold Python ints and Fractions.  Every QQ matrix that
`rref`, `mat_mul` and the kernels return is canonical: an entry is an
`int` exactly when it is integral, and a `Fraction` otherwise, so arrays
whose entries are all integral stay on Python integers.  Polynomials built
from such arrays coerce their coefficients back to Fractions.

`rref` and `mat_mul` scale each row (for the right factor of a product,
each column) by the lcm of its denominators and compute on Python integers,
which cannot overflow; rows of ints skip the scaling.  `rref` is
fraction-free Gauss-Jordan elimination (Bareiss 1968): a row with entry f in
the pivot column becomes (p/g)*row - (f/g)*pivot_row, with p the pivot and
g = gcd(p, f), and is then divided by its content; at the end each pivot
row is divided by its pivot.  The reduced echelon form is unique, so this
gives the same matrix and pivots as elimination on Fractions.  `mat_mul`
forms one integer product over the columns where the left operand is not
zero.  A right factor used in many products is converted once
(`prepared`).
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

from . import _kernels
from .fields import QQ, PrimeField

MAX_ECHELON_DIM = 1 << 22


def is_prime_field(field):
    return isinstance(field, PrimeField)


def zeros(field, shape):
    return np.zeros(shape, dtype=np.int64 if is_prime_field(field) else object)


def matrix(field, rows, width=None):
    """Stack an iterable of scalar rows into a matrix (possibly 0 x width)."""
    rows = [np.asarray(r, dtype=np.int64) if is_prime_field(field)
            else np.asarray(list(r), dtype=object) for r in rows]
    if not rows:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return zeros(field, (0, width))
    return np.vstack(rows)


def _integer_rows(a):
    """The rows of a 2-D QQ array, each scaled by the lcm of its denominators.

    Returns the scaled rows as lists of Python ints, and the row denominators.
    Entries may be Fractions or Python ints; rows of ints are returned as they are.
    """
    rows = a.tolist()
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, [1] * len(rows)
    dens = []
    for i, row in enumerate(rows):
        d = lcm(*[x.denominator for x in row])
        if d == 1:
            rows[i] = [x.numerator for x in row]
        else:
            rows[i] = [x.numerator * (d // x.denominator) for x in row]
        dens.append(d)
    return rows, dens


def _rref_rational(a):
    """Fraction-free Gauss-Jordan elimination of a 2-D QQ array: (R, pivots)."""
    m, n = a.shape
    rows, _ = _integer_rows(a)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                s, t = p // g, f // g
                row = [s * x - t * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = zeros(QQ, (m, n))
    for i, c in enumerate(pivots):
        p = rows[i][c]
        out[i] = rows[i] if p == 1 else _quotients(rows[i], [p] * n)
    return out, np.asarray(pivots, dtype=np.int64)


def _quotients(nums, dens):
    """The entries x / d, each an int where it is integral and a Fraction otherwise."""
    return [x // d if x % d == 0 else Fraction(x, d) for x, d in zip(nums, dens)]


def rref(field, a):
    """Reduced row echelon form: returns (R, pivot column array)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if max(a.shape, default=0) > MAX_ECHELON_DIM:
        raise ValueError("matrix dimension exceeds supported bound")
    if is_prime_field(field):
        a = np.asarray(a, dtype=np.int64) % field.p
        rank, pivots = _kernels.rref_mod(a, field.p)
        return a, pivots
    return _rref_rational(a)


def echelon(field, a):
    """Reduced echelon basis of the row space, zero rows dropped."""
    r, pivots = rref(field, a)
    return r[: len(pivots)], pivots


def rank(field, a):
    return len(rref(field, a)[1])


def _kernel_and_free(field, a):
    """Rows spanning {v : a @ v = 0}, and the free columns they are the identity on."""
    a = np.asarray(a)
    n = a.shape[1]
    r, pivots = rref(field, a)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = zeros(field, (free.size, n))
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = _canonical(field, -r[: pivots.size, free].T)
    return basis, free


def right_kernel(field, a):
    """Rows spanning {v : a @ v = 0}, one per free column, deterministic."""
    return _kernel_and_free(field, a)[0]


def left_kernel(field, a):
    """Rows spanning {v : v @ a = 0}."""
    return right_kernel(field, np.asarray(a).T)


def reduce_row(field, vec, rows, pivots):
    """Residue of `vec`, or of each row of a matrix, modulo a reduced echelon basis.

    The residue is zero at every pivot column, so it is unique.
    """
    v = np.array(vec, copy=True)
    if len(rows) == 0:
        return v
    coeffs = v[..., list(map(int, pivots))]
    hit = np.flatnonzero(coeffs if v.ndim == 1 else coeffs.any(axis=0))
    if hit.size == 0:
        return v
    return _canonical(field, v - mat_mul(field, coeffs[..., hit], rows[hit]))


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
    np.fill_diagonal(a, 1)
    return a


class _Columns:
    """A QQ right factor as integer columns and their denominators, converted once."""

    __slots__ = ("shape", "ints", "dens", "integral")

    def __init__(self, b):
        cols, self.dens = _integer_rows(b.T)
        self.shape = b.shape
        self.ints = np.array(cols, dtype=object).reshape(b.shape[1], b.shape[0]).T
        self.integral = set(self.dens) <= {1}


def prepared(field, b):
    """A matrix `b` in the form `mat_mul` takes it fastest as a right factor.

    Over QQ it is converted to integer columns once, for products by the
    same matrix over and over; over GF(p) it is `b` itself.
    """
    return b if is_prime_field(field) else _Columns(np.asarray(b))


def mat_mul(field, a, b):
    """Exact product of a matrix or vector `a` with a matrix `b`, or with `prepared(b)`.

    Reduced mod p on the prime-field lane; on the QQ lane `a` may also hold
    plain ints.
    """
    if is_prime_field(field):
        return np.asarray(a, dtype=np.int64).dot(b) % field.p
    a = np.asarray(a)
    if a.ndim == 1:
        return _mat_mul_rational(a.reshape(1, -1), b)[0]
    return _mat_mul_rational(a, b)


def _mat_mul_rational(a, b):
    """The QQ product of a 2-D `a` and `b` on integer rows of `a` and columns of `b`."""
    rows, row_dens = _integer_rows(a)
    left = np.array(rows, dtype=object).reshape(a.shape)
    keep = np.flatnonzero(left.any(axis=0))
    if isinstance(b, _Columns):
        right = b.ints[keep]
    else:
        b = _Columns(b[keep])
        right = b.ints
    out = left[:, keep].dot(right)
    if b.integral and set(row_dens) <= {1}:
        return out
    for i, (row, d) in enumerate(zip(out.tolist(), row_dens)):
        out[i] = _quotients(row, [d * e for e in b.dens])
    return out
