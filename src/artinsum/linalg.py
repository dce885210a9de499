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
matrix enters it through the dimension guard and, over GF(p), mod p, as
dict rows (`sparse_rows`, `pivot_basis`); `dense` writes dict rows back
into an array.  The dense adapter `rref` has no caller in the library: it
is kept because the benchmark's set-up probe and its span tracer name it.

No product of matrices is formed here: products in an algebra run on dict
rows against its sparse product tables (`quotient._times`), in Python
integers, so no int64 product can overflow.  `fields.MAX_PRIME` stays at
2**20 all the same; raising it is a change of its own, with goldens at a
larger prime.
"""

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


def right_kernel(field, a):
    """Rows spanning {v : a @ v = 0}, one per free column, deterministic."""
    p, n = field.char, np.shape(a)[-1]
    kernel = _kernels.kernel(_kernels.echelon(sparse_rows(field, a), p, reduced=True), n, p)
    return dense(field, kernel.values(), n)


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
