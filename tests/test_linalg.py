"""Exact linear algebra over both coefficient lanes, and the mod-p kernel at its bound."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsum import GF, QQ
from artinsum import linalg
from artinsum._kernels import rref_mod
from artinsum.fields import MAX_PRIME

from oracles import complement_rows_reference

# the largest prime below MAX_PRIME: products of two entries come closest to
# the int64 bound there
TOP_PRIME = 1048573
FIELDS = [GF(101), GF(TOP_PRIME), QQ]


def test_rref_rational():
    a = linalg.matrix(QQ, [[1, 2, 3], [2, 4, 8], [1, 2, 5]])
    r, pivots = linalg.rref(QQ, a)
    assert list(pivots) == [0, 2]
    assert r[0][1] == Fraction(2)


def test_right_kernel_rational():
    a = linalg.matrix(QQ, [[1, 1, 1], [0, 1, 2]])
    k = linalg.right_kernel(QQ, a)
    assert k.shape == (1, 3)
    assert not np.any(a.dot(k[0]) != Fraction(0))


def test_kernel_mod_p():
    k = GF(5)
    # the second row is twice the first mod 5, so the rank drops to 1
    a = linalg.matrix(k, [[1, 2, 3], [2, 4, 1]])
    ker = linalg.right_kernel(k, a)
    assert ker.shape[0] == 2
    for v in ker:
        assert not np.any(a.dot(v) % 5)
    b = linalg.matrix(k, [[1, 2, 3], [0, 1, 4]])
    assert linalg.right_kernel(k, b).shape[0] == 1


def test_reduce_row_and_membership():
    k = GF(7)
    rows, pivots = linalg.echelon(k, linalg.matrix(k, [[1, 0, 3], [0, 1, 2]]))
    assert linalg.in_row_space(k, np.array([2, 3, 12]) % 7, rows, pivots)
    assert not linalg.in_row_space(k, np.array([0, 0, 1]), rows, pivots)


def test_intersect_row_spaces():
    a = linalg.matrix(QQ, [[1, 0, 0], [0, 1, 0]])
    b = linalg.matrix(QQ, [[0, 1, 0], [0, 0, 1]])
    inter = linalg.intersect_row_spaces(QQ, a, b)
    assert inter.shape == (1, 3)
    assert inter[0][1] == 1


def test_preimage_rows():
    # v @ m in span{(1,0)} means v orthogonal to the second output coordinate
    m = linalg.matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    sub = linalg.matrix(QQ, [[1, 0]])
    pre = linalg.preimage_rows(QQ, m, sub)
    for v in pre:
        out = v.dot(m)
        assert out[1] == 0


def test_rank_against_fraction_lane():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(5)]
        rq = linalg.rank(QQ, linalg.matrix(QQ, rows))
        # reduce mod a large prime: ranks agree when no pivot degenerates
        k = GF(101)
        rp = linalg.rank(k, linalg.matrix(k, [[x % 101 for x in r] for r in rows]))
        assert rp <= rq


def _matrix(field, ints, width):
    return linalg.matrix(field, [[field.coerce(x) for x in row] for row in ints], width=width)


def _assert_complement_matches_reference(field, width, base_ints, row_ints):
    base, pivots = linalg.echelon(field, _matrix(field, base_ints, width))
    rows = list(_matrix(field, row_ints, width))
    if base.shape[0]:
        rows.insert(0, linalg.mat_mul(field, np.arange(1, base.shape[0] + 1), base))
    if rows:
        rows.append(rows[-1].copy())
        rows.insert(len(rows) // 2, rows[0].copy())
    rows = linalg.matrix(field, rows, width=width)
    got = linalg.complement_rows(field, rows, base, pivots)
    want = complement_rows_reference(field, rows, base, pivots)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_complement_rows_matches_reference_on_seeded_inputs(field):
    rng = random.Random(11)
    top = 50 if field == QQ else field.p
    for _ in range(40):
        width = rng.randrange(1, 9)
        base = [[rng.randrange(-top, top) for _ in range(width)]
                for _ in range(rng.randrange(0, width + 1))]
        rows = [[rng.randrange(-top, top) if rng.random() < 0.7 else 0 for _ in range(width)]
                for _ in range(rng.randrange(0, 10))]
        _assert_complement_matches_reference(field, width, base, rows)


@st.composite
def _complement_case(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    return width, draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=7))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), _complement_case())
def test_complement_rows_matches_reference_on_hypothesis_inputs(field, case):
    _assert_complement_matches_reference(field, *case)


def test_complement_rows_edge_cases():
    k = GF(7)
    empty = linalg.zeros(k, (0, 3))
    rows = _matrix(k, [[0, 2, 4], [0, 1, 2], [3, 0, 0], [3, 0, 0]], 3)
    got = linalg.complement_rows(k, rows, empty, [])
    assert [list(r) for r in got] == [[0, 1, 2], [1, 0, 0]]
    base, pivots = linalg.echelon(k, rows)
    assert linalg.complement_rows(k, rows, base, pivots) == []
    assert linalg.complement_rows(k, empty, base, pivots) == []


def _rref_python(rows, p):
    """Reduced row echelon form mod p on Python ints, which cannot overflow."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def test_rref_mod_at_the_largest_supported_prime():
    assert TOP_PRIME < MAX_PRIME
    rng = random.Random(5)
    p = TOP_PRIME
    for _ in range(30):
        m, n = rng.randrange(1, 13), rng.randrange(1, 13)
        rows = [[rng.randrange(p - 1000, p) if rng.random() < 0.5 else rng.randrange(p)
                 for _ in range(n)] for _ in range(m)]
        if m > 2:
            # a dependent row keeps the rank below the row count
            rows[-1] = [(x * (p - 1) + y * (p - 2)) % p for x, y in zip(rows[0], rows[1])]
        a = np.array(rows, dtype=np.int64)
        rank, pivots = rref_mod(a, p)
        want, want_pivots = _rref_python(rows, p)
        assert (rank, list(pivots)) == (len(want_pivots), want_pivots)
        assert a.tolist() == want
