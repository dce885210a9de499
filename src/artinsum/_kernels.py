"""The row-reduction kernel: one sparse echelon on dict rows, over GF(p) and QQ.

A row is a dict from column to nonzero scalar, and `p` names the lane: the
prime over GF(p), whose entries are ints in [0, p), and 0 over QQ.  An
echelon basis is a dict from pivot column to the row whose least column
that is.  Over GF(p) a pivot row is one at its pivot.  Over QQ rows are
primitive integer rows, eliminated fraction-free (Bareiss 1968); a pivot is
divided out only when a row is read out (`monic`), so each entry is then an
int where it is integral and a Fraction otherwise.  `echelon` takes every
single-entry row first, as the pivot row {c: 1} of its column, and strikes
those columns from the other rows before it eliminates: most product rows
of a resolution have one entry.  Rows passed in are consumed, but none is
scaled in place to make its pivot one.  Outside this module an
echelon basis has one format (`basis`): the monic rows by increasing
pivot, against which residues are exact.  The left kernel of a list of
rows (`left_kernel`) is dict rows too; `rref_mod` is the adapter for a dense
array, and imports numpy when it is called.
"""

from fractions import Fraction
from math import gcd, lcm

BACKEND = "sparse"  # the kernel's name, printed by perfbench/run.py


def _eliminate(row, c, prow, p):
    """Clear column c of `row` in place with the pivot row `prow`.

    A pivot of one subtracts f*prow with f = row[c], mod p or exactly (on
    Fractions too).  Another pivot v is an integer row's: the row becomes
    (v/g)*row - (f/g)*prow, with g = gcd(v, f), and is divided by its content.
    """
    f, v = row[c], prow[c]
    if v != 1:
        g = gcd(v, f)
        f, v = f // g, v // g
        if v != 1:
            for k in row:
                row[k] *= v
    for k, x in prow.items():
        y = row.get(k, 0) - f * x
        if p:
            y %= p
        if y:
            row[k] = y
        else:
            del row[k]
    if v != 1 and row:
        g = gcd(*row.values())
        for k in row:
            row[k] //= g


def reduce(row, pivots, p):
    """Clear in place every column of `row` that is a pivot of the reduced basis `pivots`.

    Each basis row is zero at the other pivots, so the columns can be
    cleared in any order; what is left is the residue of `row` modulo the
    span, exact when every pivot is one.
    """
    for c in [c for c in row if c in pivots]:
        _eliminate(row, c, pivots[c], p)
    return row


def echelon(rows, p, reduced=False):
    """An echelon basis of the span of `rows` (dicts, consumed), keyed by pivot column.

    The pivots are those of the reduced echelon form.  Every single-entry
    row is taken first, as the pivot row {c: 1} of its column c, and those
    columns are struck from the other rows (LaMacchia-Odlyzko 1990): no
    other pivot row then holds a struck column, so none can fill in there.
    The rest is eliminated forward, in input order; with `reduced`, every
    pivot column is then cleared from the other rows, the last pivot first,
    by back-substitution into each pivot row of more than one entry: a
    one-entry pivot row holds only its own pivot, so it has nothing to
    clear and is passed by.
    A single-entry row is left as it is and a struck row is copied; other
    rows are eliminated in place, but none is scaled in place to make its
    pivot one.
    """
    pivots, rest = {}, []
    for row in rows:
        if len(row) == 1:
            (c,) = row
            pivots[c] = {c: 1}
        else:
            rest.append(row)
    struck = set(pivots)
    for row in rest:
        if not struck.isdisjoint(row):
            row = {k: x for k, x in row.items() if k not in struck}
        if not p and not all(type(x) is int for x in row.values()):
            d = lcm(*[x.denominator for x in row.values()])
            row = {k: x.numerator * (d // x.denominator) for k, x in row.items()}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if p:
                    f = pow(row[c], -1, p)
                    pivots[c] = row if f == 1 else {k: x * f % p for k, x in row.items()}
                else:
                    g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
                    pivots[c] = row if g == 1 else {k: x // g for k, x in row.items()}
                break
            _eliminate(row, c, prow, p)
    if reduced:
        for c in sorted(pivots, reverse=True):
            row = pivots.pop(c)
            pivots[c] = reduce(row, pivots, p) if len(row) > 1 else row
    return pivots


def monic(row, c):
    """The pivot row `row` divided by its pivot at c."""
    v = row[c]
    if v == 1:
        return row
    return {k: x // v if x % v == 0 else Fraction(x, v) for k, x in row.items()}


def basis(rows, p):
    """The reduced echelon basis of the span of `rows` (consumed): monic rows by pivot.

    Over GF(p) every pivot row is one at its pivot already.
    """
    pivots = echelon(rows, p, reduced=True)
    if p:
        return dict(sorted(pivots.items()))
    return {c: monic(pivots[c], c) for c in sorted(pivots)}


def kernel(pivots, width, p):
    """The right kernel of a reduced echelon form of `width` columns, keyed by free column.

    Row f is one at the free column f and minus column f of each pivot row
    at that row's pivot.  A one-entry pivot row is zero at every free
    column, so it adds no entry to any row and is skipped.
    """
    rows = {f: {f: 1} for f in range(width) if f not in pivots}
    for c, prow in pivots.items():
        if len(prow) > 1:
            for f, x in monic(prow, c).items():
                if f != c:
                    rows[f][c] = (-x) % p if p else -x
    return rows


def left_kernel(rows, p):
    """The left kernel of a sequence of dict rows, keyed by free row index.

    The rows are transposed into columns, put in reduced echelon form and
    read by `kernel`: row f is one at the free row f, and a combination of
    the rows with those coefficients is zero.
    """
    columns = {}
    for i, row in enumerate(rows):
        for k, x in row.items():
            columns.setdefault(k, {})[i] = x
    return kernel(echelon(columns.values(), p, reduced=True), len(rows), p)


def sparse_rows(a):
    """The rows of a 2-D array as dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in a.tolist()]


def fill(a, rows, p):
    """Write dict rows into the leading rows of the 2-D array `a`, zeroing the rest; returns `a`.

    Over QQ (p = 0) each entry is written as an int where it is integral.
    """
    at, values = [], []
    for i, row in enumerate(rows):
        at += [i * a.shape[1] + k for k in row]
        values += row.values()
    if not p:
        values = [x if type(x) is int or x.denominator != 1 else x.numerator for x in values]
    a[...] = 0
    a.flat[at] = values
    return a


def rref_mod(a, p):
    """Reduced row echelon form of a 2-D array, in place; returns (rank, pivot columns).

    Over GF(p) `a` is an int64 array with entries in [0, p); with p = 0 it
    is an object array over QQ.
    """
    import numpy as np

    pivots = basis(sparse_rows(a), p)
    fill(a, pivots.values(), p)
    return len(pivots), np.asarray(list(pivots), dtype=np.int64)
