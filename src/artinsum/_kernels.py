"""The mod-p row-reduction kernel.

One numpy implementation, in place on an int64 matrix whose entries are
already reduced into [0, p).  Every product it forms is of two such entries,
so it stays below p**2 < 2**40 for each modulus a PrimeField accepts
(p < MAX_PRIME = 2**20) and cannot overflow int64.
"""

import numpy as np

BACKEND = "numpy"  # the kernel's name, printed by perfbench/run.py


def rref_mod(a, p):
    """In-place reduced row echelon form mod p; returns (rank, pivot columns)."""
    if a.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        pr = r + int(rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(pivots, dtype=np.int64)
