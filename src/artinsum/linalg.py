"""Exact linear algebra over QQ and GF(p) on numpy arrays.

Matrices are numpy arrays: dtype int64 with canonical entries over a prime
field, dtype object over QQ.  Vectors are 1-D arrays of the same flavor.
All routines are pure; inputs are never mutated.

A QQ array may hold Python ints and Fractions.  Every QQ matrix returned
here is canonical: an entry is an `int` exactly when it is integral, and a
`Fraction` otherwise, so arrays whose entries are all integral stay on
Python integers.  Polynomials built from such arrays coerce their
coefficients back to Fractions.

Row reduction runs on the sparse echelon of `_kernels`, on both lanes.  A
matrix enters it through the dimension guard and, over GF(p), mod p: as
dict rows (`sparse_rows`, `pivot_basis`) or through the dense adapter
(`rref`).  `dense` writes dict rows back into an array.

`mat_mul` forms one product over the columns where the left operand is not
zero.  Over GF(p) that is an int64 product of entries in [0, p): each term
is below p**2 < 2**40 for every modulus a PrimeField accepts
(p < MAX_PRIME = 2**20), so a sum of up to 2**23 terms cannot overflow.
Over QQ it scales each row of the left factor and each column of the right
one by the lcm of its denominators and computes on Python integers, which
cannot overflow; rows of ints skip the scaling.  A right factor used in many
products is converted once (`prepared`).
"""

from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from . import _kernels
from .errors import ResourceGuardError
from .fields import PrimeField

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


def _checked(field, a):
    """`a` as a 2-D int64 array reduced mod p, or an object array over QQ, within the guard."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    size = max(a.shape, default=0)
    if size > MAX_ECHELON_DIM:
        raise ResourceGuardError("max_echelon_dim", MAX_ECHELON_DIM, size, "matrix dimension")
    if is_prime_field(field):
        return np.asarray(a, dtype=np.int64) % field.p
    return np.asarray(a, dtype=object)


def sparse_rows(field, a):
    """The rows of a matrix as the kernel's dict rows: the one way into `_kernels`."""
    return _kernels.sparse_rows(_checked(field, a))


def pivot_basis(field, a):
    """The reduced echelon basis of the row space: each pivot's monic dict row, by pivot."""
    return _kernels.basis(sparse_rows(field, a), field.char)


def dense(field, rows, width):
    """Dict rows as a matrix of `width` columns, canonical on both lanes."""
    return _kernels.fill(zeros(field, (len(rows), width)), rows, field.char)


def rref(field, a):
    """Reduced row echelon form: returns (R, pivot column array)."""
    a = np.array(_checked(field, a))
    return a, _kernels.rref_mod(a, field.char)[1]


def echelon(field, a):
    """Reduced echelon basis of the row space, zero rows dropped."""
    r, pivots = rref(field, a)
    return r[: len(pivots)], pivots


def _kernel_and_free(field, a):
    """Rows spanning {v : a @ v = 0}, and the free columns they are the identity on."""
    p, n = field.char, np.shape(a)[-1]
    kernel = _kernels.kernel(_kernels.echelon(sparse_rows(field, a), p, reduced=True), n, p)
    return dense(field, kernel.values(), n), np.fromiter(kernel, dtype=np.int64, count=len(kernel))


def right_kernel(field, a):
    """Rows spanning {v : a @ v = 0}, one per free column, deterministic."""
    return _kernel_and_free(field, a)[0]


def left_kernel(field, a):
    """Rows spanning {v : v @ a = 0}."""
    return right_kernel(field, np.asarray(a).T)


def complement_rows(field, rows, base):
    """Monic residues of `rows` that extend the span of the pivot basis `base`, in input order.

    Row j yields its residue modulo the base and rows 0..j-1, scaled so the
    first nonzero entry is one, when that residue is nonzero.  A residue
    taken with zeros at the span's pivot columns is unique: each row is
    reduced exactly against the base and then against the reduced basis of
    the residues kept so far, which is zero at the base's pivots.
    """
    p = field.char
    kept = {}
    out = []
    for row in sparse_rows(field, rows):
        if _kernels.reduce(_kernels.reduce(row, base, p), kept, p):
            c = min(row)
            kept = _kernels.basis([*kept.values(), row], p)
            out.append(dict(kept[c]))
    return list(dense(field, out, np.shape(rows)[1]))


def identity(field, n):
    a = zeros(field, (n, n))
    np.fill_diagonal(a, 1)
    return a


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


def _quotients(nums, dens):
    """The entries x / d, each an int where it is integral and a Fraction otherwise."""
    return [x // d if x % d == 0 else Fraction(x, d) for x, d in zip(nums, dens)]


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
