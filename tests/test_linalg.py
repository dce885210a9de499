"""Exact linear algebra over both coefficient lanes, and the row-reduction kernel.

The sparse kernel, its left kernel, and the subspaces held as its pivot
bases with the complement read off a nested span's pivots, are checked
against the dense loops they replaced, over GF(101), the largest supported
prime and QQ, and the complement over GF(7) too.  Results are dict rows; the
oracles' dense writers turn them into arrays for the references.
"""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artinsum import GF, QQ, PolyRing
from artinsum import _kernels, linalg, quotient
from artinsum._kernels import rref_mod
from artinsum.errors import ResourceGuardError
from artinsum.fields import MAX_PRIME
from artinsum.quotient import square_zero_algebra

from corpus import random_gorenstein
from oracles import (complement_rows_reference, dense, echelon_reference, intersect_reference,
                     mat_mul, matrix, preimage_rows, prepared, reduce_row_reference,
                     rref_bareiss_reference, rref_fraction_reference, rref_mod_reference,
                     right_kernel_reference, space_rows, sparse_rows, zeros)

# the largest prime below MAX_PRIME: products of two entries come closest to
# the int64 bound there
TOP_PRIME = 1048573
FIELDS = [GF(101), GF(TOP_PRIME), QQ]
# numerators and denominators past the int64 range
HUGE = 1 << 70


def test_rref_rational():
    a = matrix(QQ, [[1, 2, 3], [2, 4, 8], [1, 2, 5]])
    r, pivots = linalg.rref(QQ, a)
    assert list(pivots) == [0, 2]
    assert r[0][1] == Fraction(2)


def _right_kernel(field, a):
    """{v : a @ v = 0} as a matrix: the sparse left kernel of the transpose, written dense."""
    a = np.asarray(a)
    kernel = _kernels.left_kernel(sparse_rows(field, a.T), field.char)
    return dense(field, kernel.values(), a.shape[1])


def test_right_kernel_rational():
    a = matrix(QQ, [[1, 1, 1], [0, 1, 2]])
    k = _right_kernel(QQ, a)
    assert k.shape == (1, 3)
    assert not np.any(a.dot(k[0]) != Fraction(0))


def test_kernel_mod_p():
    k = GF(5)
    # the second row is twice the first mod 5, so the rank drops to 1
    a = matrix(k, [[1, 2, 3], [2, 4, 1]])
    ker = _right_kernel(k, a)
    assert ker.shape[0] == 2
    for v in ker:
        assert not np.any(a.dot(v) % 5)
    b = matrix(k, [[1, 2, 3], [0, 1, 4]])
    assert _right_kernel(k, b).shape[0] == 1
    # the left kernel is keyed by free row index, one row per free row
    assert _kernels.left_kernel([{0: 1, 1: 2}, {0: 2, 1: 4}, {}], 5) == {1: {1: 1, 0: 3},
                                                                        2: {2: 1}}
    assert _kernels.left_kernel([], 5) == {}


@lru_cache(maxsize=None)
def _algebra(field, width):
    """k[X1..X(width-1)]/m^2, whose coordinate space is k^width."""
    return square_zero_algebra(PolyRing(field, [f"X{i}" for i in range(1, width)]))


def _space(field, rows, width):
    return _algebra(field, width).subspace(sparse_rows(field, matrix(field, rows, width=width)))


def _residues(field, space, a):
    """The residue of each row of the matrix `a` modulo the space's basis, written dense."""
    rows = [_kernels.reduce(row, space.basis, field.char) for row in sparse_rows(field, a)]
    return dense(field, rows, np.shape(a)[1])


def test_subspace_reduce_and_membership():
    k = GF(7)
    space = _space(k, [[1, 0, 3], [0, 1, 2]], 3)
    assert space.contains({0: 2, 1: 3, 2: 12 % 7})
    assert not space.contains({2: 1})
    # the rows of a matrix are reduced one by one, and lie in the space exactly
    # when their residue is zero
    for field, vecs in ((k, [[2, 3, 5], [0, 0, 1], [1, 1, 1], [1, 0, 3]]),
                        (QQ, [[Fraction(1, 2), 3, 5], [0, 0, 1], [1, -2, Fraction(2, 3)],
                              [0, 1, 1]])):
        space = _space(field, [[1, 0, 3], [0, 2, 2]], 3)
        mat = matrix(field, vecs)
        got = _residues(field, space, mat)
        assert np.array_equal(got, [_residues(field, space, [v])[0] for v in mat])
        assert [space.contains(row) for row in sparse_rows(field, mat)] == [
            not np.any(r != 0) for r in got]
    # an integral residue of Fractions is written as an int
    space = _space(QQ, [[1, Fraction(1, 2), 0]], 3)
    got = _residues(QQ, space, [[1, Fraction(3, 2), 1]])[0]
    assert got.tolist() == [0, 1, 1]
    _assert_canonical(got)


def test_subspace_intersect():
    a = _space(QQ, [[1, 0, 0], [0, 1, 0]], 3)
    b = _space(QQ, [[0, 1, 0], [0, 0, 1]], 3)
    inter = a.intersect(b)
    assert space_rows(inter).shape == (1, 3)
    assert space_rows(inter)[0][1] == 1
    assert inter.basis == {1: {1: 1}}
    _assert_canonical_rows(inter.basis.values())


def test_caller_rows_are_reduced_mod_p_at_the_entry_points():
    # scalars outside [0, p) are reduced before they enter the kernel, and a
    # zero entry is dropped
    A = square_zero_algebra(PolyRing(GF(101), ["X"]))
    one, x = A.element_row(A.ring.one), A.element_row(A.ring.var(0))
    assert (one, x) == ({0: 1}, {1: 1})
    m = A.power(1)
    assert m.contains({0: 101}) and m.contains({0: 202, 1: -3})
    assert not m.contains({0: -1, 1: 205})
    assert A.subspace([{0: 102, 1: -1}]).basis == {0: {0: 1, 1: 100}}
    assert A.lift({0: -1, 1: 101}) == A.ring.poly({(0,): 100})
    # 101*X is zero, so its annihilator is all of A; 2*X generates m
    assert A.annihilator([{1: 101}]).dim == 2
    assert A.ideal_span([{0: 202, 1: 103}]) == m
    assert A.minimal_generators(A.ideal_span([{1: -1}])) == (1, [{1: 1}])
    # the caller's rows are left as they were
    row = {0: -1, 1: 205}
    m.contains(row)
    assert row == {0: -1, 1: 205}


@pytest.mark.parametrize("field", [GF(101), QQ], ids=str)
def test_a_column_outside_the_basis_is_rejected_at_each_entry_point(field):
    A = square_zero_algebra(PolyRing(field, ["X"]))
    entry_points = [A.lift, A.power(1).contains, lambda row: A.subspace([{0: 1}, row]),
                    lambda row: A.annihilator([row]), lambda row: A.ideal_span([row])]
    for bad in ({2: 1}, {-1: 1}, {0: 1, 5: 0}, {"0": 1}):
        for call in entry_points:
            with pytest.raises(ValueError, match="outside the basis"):
                call(bad)
    # the same rows with their columns in range are accepted
    assert A.lift({1: 1}) == A.ring.var(0)
    assert A.subspace([{1: 3}]).basis == {1: {1: 1}}


def _assert_subspaces_match_references(field, width, u_ints, w_ints, v_ints):
    mats = [_matrix(field, ints, width) for ints in (u_ints, w_ints, v_ints)]
    U, W = (_algebra(field, width).subspace(sparse_rows(field, m)) for m in mats[:2])
    refs = [echelon_reference(field, m) for m in mats[:2]]
    for space, (rows, pivots) in zip((U, W), refs):
        assert list(space.basis) == pivots.tolist()
        got = space_rows(space)
        assert got.dtype == rows.dtype and np.array_equal(got, rows)
    got = _residues(field, U, mats[2])
    want = reduce_row_reference(field, mats[2], *refs[0])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [U.contains(row) for row in sparse_rows(field, mats[2])] == [
        not np.any(r != field.zero) for r in want]
    meet, join = U.intersect(W), U.add(W)
    rows, pivots = intersect_reference(field, refs[0][0], refs[1][0])
    assert list(meet.basis) == pivots.tolist() and np.array_equal(space_rows(meet), rows)
    rows, pivots = echelon_reference(field, np.vstack([mats[0], mats[1]]))
    assert list(join.basis) == pivots.tolist() and np.array_equal(space_rows(join), rows)
    assert meet.dim + join.dim == U.dim + W.dim
    assert U.contains_space(meet) and W.contains_space(meet)
    assert join.contains_space(U) and join.contains_space(W)
    assert meet == W.intersect(U) and join == W.add(U)
    if field == QQ:
        _assert_canonical(got)
        for space in (U, meet, join):
            _assert_canonical_rows(space.basis.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_subspaces_match_dense_references_on_seeded_inputs(field):
    rng = random.Random(13)
    top = 50 if field == QQ else field.p
    for _ in range(40):
        width = rng.randrange(1, 9)
        u, w, v = ([[rng.randrange(-top, top) if rng.random() < 0.7 else 0 for _ in range(width)]
                    for _ in range(rng.randrange(0, width + 2))] for _ in range(3))
        if u and w:
            # a shared row keeps the intersection from being zero
            w[0] = [2 * x for x in u[-1]]
        _assert_subspaces_match_references(field, width, u, w, v)


@st.composite
def _subspace_case(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    return (width, *(draw(st.lists(row, max_size=5)) for _ in range(3)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), _subspace_case())
def test_subspace_sum_and_intersection_on_hypothesis_inputs(field, case):
    # dim(U ∩ W) + dim(U + W) = dim U + dim W, U ∩ W lies in both, and both
    # equal the dense references
    _assert_subspaces_match_references(field, *case)


def test_preimage_rows():
    # v @ m in span{(1,0)} means v orthogonal to the second output coordinate
    m = matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    sub = matrix(QQ, [[1, 0]])
    pre = preimage_rows(QQ, m, sub)
    for v in pre:
        out = v.dot(m)
        assert out[1] == 0


def test_rank_against_fraction_lane():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(5)]
        rq = len(_kernels.basis(sparse_rows(QQ, matrix(QQ, rows)), 0))
        # reduce mod a large prime: ranks agree when no pivot degenerates
        k = GF(101)
        rp = len(_kernels.basis(sparse_rows(k, matrix(k, [[x % 101 for x in r] for r in rows])),
                                101))
        assert rp <= rq


def _matrix(field, ints, width):
    return matrix(field, [[field.coerce(x) for x in row] for row in ints], width=width)


def _assert_complement_matches_reference(W, U):
    """W.complement(U), for U inside W, against the per-vector complement loop.

    Given W's rows by decreasing pivot, the loop keeps exactly W's rows at
    the pivots U lacks, in reverse order; given them by increasing pivot, it
    keeps an echelon basis of the same span, whose reduced form they are.
    """
    field, width = W.algebra.field, W.algebra.length
    assert W.contains_space(U)
    rows = space_rows(W)
    before = [dict(row) for row in W.basis.values()]
    got = W.complement(U)
    assert list(W.basis.values()) == before
    assert len(got) == W.dim - U.dim
    base = space_rows(U), np.asarray(list(U.basis), dtype=np.int64)
    want = complement_rows_reference(field, rows[::-1], *base)[::-1]
    assert len(want) == len(got)
    for g, w in zip(dense(field, got, width), want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    kept = complement_rows_reference(field, rows, *base)
    reduced, pivots = echelon_reference(field, matrix(field, kept, width=width))
    assert [min(row) for row in got] == pivots.tolist()
    assert np.array_equal(dense(field, got, width), reduced)
    if field == QQ:
        _assert_canonical_rows(got)
    else:
        assert all(type(x) is int and 0 < x < field.p for row in got for x in row.values())


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=str)
def test_pivot_complement_matches_reference_on_corpus_algebras(field):
    # m*W inside W for ideals W, as `minimal_generators` takes it, and
    # m^(s-1) inside (0 : m^2), as `split_witness` takes it
    rng = random.Random(29)
    for edim, loewy in ((1, 3), (2, 3), (2, 4), (3, 3)):
        A = random_gorenstein(rng, edim, loewy, "Y", field)
        ann2 = A.annihilator(A.power(2).basis.values())
        element = {c: rng.randrange(1, 50) for c in range(A.length) if rng.random() < 0.5}
        ideals = [A.power(i) for i in range(loewy + 1)]
        ideals += [A.socle(), ann2, A.ideal_span([element]), A.annihilator([element])]
        for W in ideals:
            U = A.m_times(W)
            _assert_complement_matches_reference(W, U)
            assert A.minimal_generators(W) == (W.dim - U.dim, W.complement(U))
        _assert_complement_matches_reference(ann2, A.power(loewy - 1))


@st.composite
def _nested_case(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    return width, draw(st.lists(row, max_size=5)), draw(st.lists(row, max_size=5))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GF(7), *FIELDS]), _nested_case())
def test_pivot_complement_matches_reference_on_hypothesis_inputs(field, case):
    # U is spanned by combinations of W's rows, the coefficients read from
    # the leading entries of the drawn rows
    width, w_ints, c_ints = case
    W = _space(field, w_ints, width)
    combos = [[0] * width]
    if W.dim:
        combos += mat_mul(field, _matrix(field, [c[:W.dim] for c in c_ints], W.dim),
                          space_rows(W)).tolist()
    _assert_complement_matches_reference(W, _space(field, combos, width))


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
    # perfbench reduces an int64 array with rref_mod and prints BACKEND
    assert isinstance(_kernels.BACKEND, str)
    assert TOP_PRIME < MAX_PRIME
    rng = random.Random(5)
    p = TOP_PRIME
    shapes = [(0, 0), (0, 3), (3, 0)]
    shapes += [(rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(30)]
    for m, n in shapes:
        rows = [[rng.randrange(p - 1000, p) if rng.random() < 0.5 else rng.randrange(p)
                 for _ in range(n)] for _ in range(m)]
        if m > 2:
            # a dependent row keeps the rank below the row count
            rows[-1] = [(x * (p - 1) + y * (p - 2)) % p for x, y in zip(rows[0], rows[1])]
        a = np.array(rows, dtype=np.int64).reshape(m, n)
        dense = a.copy()
        rank, pivots = rref_mod(a, p)
        want, want_pivots = _rref_python(rows, p)
        assert (rank, list(pivots)) == (len(want_pivots), want_pivots)
        assert a.dtype == pivots.dtype == np.int64 and a.tolist() == want
        assert rref_mod_reference(dense, p)[0] == rank and np.array_equal(dense, a)


def test_rref_dimension_guard_names_itself():
    # a matrix with no rows allocates nothing, whatever its width
    width = quotient.MAX_ECHELON_DIM + 1
    for field in (GF(101), QQ):
        with pytest.raises(ResourceGuardError) as info:
            linalg.rref(field, zeros(field, (0, width)))
        err = info.value
        assert (err.guard, err.limit, err.value) == ("max_echelon_dim", width - 1, width)


# -- the QQ lane against Fraction references ------------------------------------

def _qq(rows, width):
    """A QQ matrix of Fractions from rows of ints or Fractions."""
    a = np.empty((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        a[i] = [Fraction(x) for x in row]
    return a


def _assert_canonical(a):
    # an int exactly where the entry is integral, a Fraction with denominator > 1 elsewhere
    assert a.dtype == object
    assert all(type(x) is int if x.denominator == 1
               else type(x) is Fraction and x.denominator > 1 for x in a.flat)


def _assert_canonical_rows(rows):
    # dict rows of nonzero entries, each canonical as in `_assert_canonical`
    for row in rows:
        assert all(x and (type(x) is int if x.denominator == 1
                          else type(x) is Fraction and x.denominator > 1)
                   for x in row.values())


def _assert_rref_matches_reference(a):
    before = a.copy()
    got, pivots = linalg.rref(QQ, a)
    assert np.array_equal(a, before)
    want = _qq(a.tolist(), a.shape[1])
    rank, want_pivots = rref_fraction_reference(want)
    assert pivots.dtype == want_pivots.dtype and np.array_equal(pivots, want_pivots)
    assert rank == pivots.size
    _assert_canonical(got)
    assert got.shape == want.shape and np.array_equal(got, want)


def _dot_reference(a, b):
    """The product in Fractions, one sum per entry."""
    a2 = np.atleast_2d(a)
    out = np.empty((a2.shape[0], b.shape[1]), dtype=object)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = sum((Fraction(a2[i, k]) * b[k, j] for k in range(b.shape[0])),
                            Fraction(0))
    return out[0] if np.ndim(a) == 1 else out


def _assert_mat_mul_matches_reference(a, b):
    got = mat_mul(QQ, a, b)
    want = _dot_reference(a, b)
    _assert_canonical(got)
    assert got.shape == want.shape and np.array_equal(got, want)


def _random_entry(rng, top):
    if rng.random() < 0.4:
        return Fraction(0)
    num = rng.randrange(-top, top + 1)
    return Fraction(num, rng.randrange(1, 7)) if rng.random() < 0.3 else Fraction(num)


def _random_qq_rows(rng, m, n, top):
    rows = [[_random_entry(rng, top) for _ in range(n)] for _ in range(m)]
    if m > 4:
        # a dependent row, a duplicate row and a zero row, in random places
        rows[2] = [Fraction(3, 2) * x - 5 * y for x, y in zip(rows[0], rows[1])]
        rows[3] = list(rows[1])
        rows[4] = [Fraction(0)] * n
        rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("top", [5, HUGE], ids=["small", "huge"])
def test_rref_qq_matches_fraction_reference_on_seeded_inputs(top):
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randrange(0, 9), rng.randrange(0, 9)
        _assert_rref_matches_reference(_qq(_random_qq_rows(rng, m, n, top), n))


def test_rref_qq_edge_shapes_and_int_entries():
    for m, n in [(0, 0), (0, 4), (3, 0), (3, 4)]:
        _assert_rref_matches_reference(zeros(QQ, (m, n)))
    # plain ints in an object array, and an int64 array
    ints = [[2, 4, -6, 1], [1, 2, -3, 7], [0, 0, 5, 5]]
    _assert_rref_matches_reference(np.array(ints, dtype=object))
    got, pivots = linalg.rref(QQ, np.array(ints, dtype=np.int64))
    _assert_canonical(got)
    assert list(pivots) == [0, 2, 3]
    # pivots and entries whose numerators and denominators pass 2**63
    big = _qq([[Fraction(HUGE + 1, 3), Fraction(-HUGE, HUGE + 7), 1],
               [Fraction(HUGE, 5), 2, Fraction(1, HUGE)]], 3)
    _assert_rref_matches_reference(big)


_QQ_ENTRY = (st.integers(-3, 3).map(Fraction)
             | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
             | st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)))


@st.composite
def _qq_matrix(draw, shape=None):
    m, n = shape or (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    rows = draw(st.lists(st.lists(_QQ_ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[-2])]
    return _qq(rows, n)


@settings(max_examples=100, deadline=None)
@given(_qq_matrix())
def test_rref_qq_matches_fraction_reference_on_hypothesis_inputs(a):
    _assert_rref_matches_reference(a)


@pytest.mark.parametrize("top", [5, HUGE], ids=["small", "huge"])
def test_mat_mul_qq_matches_fraction_dot_on_seeded_inputs(top):
    rng = random.Random(23)
    for _ in range(60):
        m, k, n = rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(0, 6)
        a = _qq(_random_qq_rows(rng, m, k, top), k)
        b = _qq(_random_qq_rows(rng, k, n, top), n)
        _assert_mat_mul_matches_reference(a, b)
        if m:
            _assert_mat_mul_matches_reference(a[0], b)


def test_mat_mul_qq_int_left_operands_and_edge_shapes():
    rng = random.Random(29)
    b = _qq(_random_qq_rows(rng, 4, 3, 9), 3)
    _assert_mat_mul_matches_reference(np.arange(1, 5), b)
    _assert_mat_mul_matches_reference(np.array([0, 3, 0, -2], dtype=object), b)
    _assert_mat_mul_matches_reference(np.array([[HUGE, 0, 1, -HUGE]], dtype=object), b)
    _assert_mat_mul_matches_reference(zeros(QQ, (2, 4)), b)
    _assert_mat_mul_matches_reference(zeros(QQ, (0, 4)), b)
    _assert_mat_mul_matches_reference(zeros(QQ, (2, 0)), zeros(QQ, (0, 3)))
    _assert_mat_mul_matches_reference(np.arange(0), zeros(QQ, (0, 3)))
    _assert_mat_mul_matches_reference(np.arange(1, 5), zeros(QQ, (4, 0)))


@settings(max_examples=100, deadline=None)
@given(_qq_matrix(), st.data())
def test_mat_mul_qq_matches_fraction_dot_on_hypothesis_inputs(a, data):
    b = data.draw(_qq_matrix((a.shape[1], data.draw(st.integers(0, 6)))))
    _assert_mat_mul_matches_reference(a, b)
    if a.shape[0]:
        _assert_mat_mul_matches_reference(a[0], b)


@st.composite
def _product_operands(draw):
    """A left operand `a`, sometimes with an all-zero row, and a right factor `b`."""
    b = draw(_qq_matrix())
    a = draw(_qq_matrix((draw(st.integers(0, 6)), b.shape[0])))
    if a.shape[0] and draw(st.booleans()):
        a[draw(st.integers(0, a.shape[0] - 1))] = 0
    return a, b


def _unit_denominators(p, a):
    """The QQ matrix `a` with every factor p divided out of its denominators.

    Its entries then have images in GF(p): 1/3333 = 1/(33*101) has none in GF(101).
    """
    out = a.copy()
    for i, x in np.ndenumerate(a):
        d = x.denominator
        while d % p == 0:
            d //= p
        out[i] = Fraction(x.numerator, d)
    return out


@settings(max_examples=100, deadline=None)
@example(GF(101), (_qq([[1]], 1), _qq([[Fraction(1, 3333)]], 1)))
@given(st.sampled_from(FIELDS), _product_operands())
def test_mat_mul_by_a_prepared_factor_equals_the_plain_product(field, operands):
    a, b = operands
    if field != QQ:
        a, b = (_unit_denominators(field.p, x) for x in (a, b))
    a, b = (_matrix(field, x.tolist(), x.shape[1]) for x in (a, b))
    factor = prepared(field, b)
    assert (factor is b) == (field != QQ)
    # an all-zero left operand keeps no column of b
    for left in (a, zeros(field, a.shape)):
        got, want = mat_mul(field, left, factor), mat_mul(field, left, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if field == QQ:
            _assert_canonical(got)
        for row, expected in zip(left, want):
            assert np.array_equal(mat_mul(field, row, factor), expected)


def _assert_right_kernel_matches_reference(field, a):
    # the right kernel of a is the left kernel of its transpose
    kernel = _kernels.left_kernel(sparse_rows(field, np.asarray(a).T), field.char)
    got = dense(field, kernel.values(), a.shape[1])
    want = right_kernel_reference(field, a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # keyed by free column, each row one there
    assert all(row[f] == 1 and got[i, f] == 1 for i, (f, row) in enumerate(kernel.items()))
    assert list(kernel) == sorted(kernel)
    if field == QQ:
        _assert_canonical(got)
        _assert_canonical_rows(kernel.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_right_kernel_matches_reference_on_seeded_inputs(field):
    rng = random.Random(31)
    for _ in range(60):
        m, n = rng.randrange(0, 8), rng.randrange(0, 8)
        rows = _random_qq_rows(rng, m, n, HUGE if field == QQ else 50)
        if field == QQ:
            a = _qq(rows, n)
        else:
            a = _matrix(field, [[int(x) for x in row] for row in rows], n)
        _assert_right_kernel_matches_reference(field, a)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), _qq_matrix())
def test_right_kernel_matches_reference_on_hypothesis_inputs(field, a):
    if field != QQ:
        a = _matrix(field, [[int(x) for x in row] for row in a.tolist()], a.shape[1])
    _assert_right_kernel_matches_reference(field, a)


# -- the sparse kernel against the dense loops it replaced -------------------------

def _assert_rref_matches_dense_reference(field, a):
    got, pivots = linalg.rref(field, a)
    if field == QQ:
        want, want_pivots = rref_bareiss_reference(a)
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat]
        rows = _kernels.sparse_rows(a)
    else:
        want = np.asarray(a, dtype=np.int64) % field.p
        rows = _kernels.sparse_rows(want)
        want_pivots = rref_mod_reference(want, field.p)[1]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert pivots.dtype == want_pivots.dtype and np.array_equal(pivots, want_pivots)
    # forward elimination alone finds the same pivots
    assert sorted(_kernels.echelon(rows, field.char)) == pivots.tolist()


def _random_matrix(rng, field, m, n):
    if field == QQ:
        return _qq(_random_qq_rows(rng, m, n, rng.choice([5, HUGE])), n)
    p = field.p
    rows = [[rng.choice([0, rng.randrange(p), p - 1 - rng.randrange(3)]) for _ in range(n)]
            for _ in range(m)]
    if m > 2:
        rows[-1] = [(3 * x + (p - 1) * y) % p for x, y in zip(rows[0], rows[1])]
    return np.array(rows, dtype=np.int64).reshape(m, n)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_matches_dense_references_on_seeded_inputs(field):
    rng = random.Random(37)
    for _ in range(80):
        m, n = rng.randrange(0, 10), rng.randrange(0, 10)
        _assert_rref_matches_dense_reference(field, _random_matrix(rng, field, m, n))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_kernel_matches_dense_references_on_hypothesis_inputs(field, data):
    a = data.draw(_qq_matrix())
    if field != QQ:
        a = _matrix(field, _unit_denominators(field.p, a).tolist(), a.shape[1])
    _assert_rref_matches_dense_reference(field, a)


# -- singleton rows are taken first --------------------------------------------

@st.composite
def _singleton_heavy_rows(draw, field):
    """Dict rows, most with one entry, and the cases the singleton pass must get right.

    Two singletons share a column, one of them Fraction(1) over QQ and the
    other -3; a singleton comes after a longer row with the same lead; and
    a longer row lies on singleton columns only, so striking empties it.
    """
    p = field.char
    n = draw(st.integers(2, 7))
    col = st.integers(0, n - 1)
    if p:
        scalar = st.integers(1, p - 1) | st.sampled_from([1, p - 1, p - 3])
    else:
        scalar = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))

    def row(support):
        return {k: draw(scalar) for k in sorted(set(support))}

    rows = [row(draw(st.lists(col, min_size=1, max_size=n if draw(st.booleans()) else 1)))
            for _ in range(draw(st.integers(0, 8)))]
    a, b, lead = draw(col), draw(col), draw(st.integers(0, n - 2))
    cases = [{a: Fraction(1) if not p else 1}, {a: -3 if not p else p - 3},
             row([lead, draw(st.integers(lead + 1, n - 1))]), {lead: draw(scalar)}]
    if a != b:
        cases += [{b: draw(scalar)}, row([a, b])]
    # each case goes in after the one before it, among the random rows
    at = 0
    for case in cases:
        at = draw(st.integers(at, len(rows)))
        rows.insert(at, case)
        at += 1
    return n, rows


def _assert_echelon_matches_reference(field, n, rows):
    p = field.char
    kept = [dict(row) for row in rows]
    want, want_pivots = echelon_reference(field, dense(field, rows, n))
    singles = {c for row in rows if len(row) == 1 for c in row}
    # a singleton row and a row that meets a singleton column are the
    # caller's own: the pass copies them, so they stay as they are
    untouched = [i for i, row in enumerate(rows) if len(row) == 1 or singles & row.keys()]
    forward = _kernels.echelon(rows, p)
    assert sorted(forward) == want_pivots.tolist()
    for i in untouched:
        assert rows[i] == kept[i] and [type(x) for x in rows[i].values()] == [
            type(x) for x in kept[i].values()]
    rows = [dict(row) for row in kept]
    got = _kernels.basis(rows, p)
    assert list(got) == want_pivots.tolist()
    assert all(got[c][c] == 1 and type(got[c][c]) is int for c in got)
    assert np.array_equal(dense(field, got.values(), n), want)
    if not p:
        _assert_canonical_rows(got.values())
    else:
        assert all(type(x) is int and 0 < x < p for row in got.values() for x in row.values())
    for i in untouched:
        assert rows[i] == kept[i]
    # a one-entry pivot row has nothing to clear in the back-substitution and
    # adds nothing to the kernel: each pivot row is zero at the other pivots
    a = dense(field, kept, n)
    pivots = _kernels.echelon([dict(row) for row in kept], p, reduced=True)
    assert all(not (row.keys() & pivots.keys()) - {c} for c, row in pivots.items())
    monic = [_kernels.monic(pivots[c], c) for c in sorted(pivots)]
    assert np.array_equal(dense(field, monic, n), want)
    kernel = _kernels.kernel(pivots, n, p)
    got, expected = dense(field, kernel.values(), n), right_kernel_reference(field, a)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert list(kernel) == sorted(kernel) and all(row[f] == 1 for f, row in kernel.items())
    if p:
        assert all(type(x) is int and 0 < x < p for row in kernel.values() for x in row.values())
    else:
        _assert_canonical_rows(kernel.values())


# two singletons on one column; a singleton after a longer row with the same
# lead; striking empties a row and leaves another with one entry; a struck
# row that keeps two entries, and an unstruck row after it
@example((QQ, 3, [{1: Fraction(1)}, {1: -3}]))
@example((GF(TOP_PRIME), 3, [{1: 1}, {1: TOP_PRIME - 3}]))
@example((QQ, 3, [{0: 2, 2: 5}, {0: -3}]))
@example((GF(TOP_PRIME), 3, [{0: 2, 2: 5}, {0: TOP_PRIME - 3}]))
@example((QQ, 4, [{0: 3, 2: 1}, {0: Fraction(1)}, {2: -3}, {0: 1, 2: 1, 3: 7}]))
@example((GF(TOP_PRIME), 4, [{0: 3, 2: 1}, {0: 1}, {2: TOP_PRIME - 3}, {0: 1, 2: 1, 3: 7}]))
@example((QQ, 5, [{0: 1, 1: 2, 3: 4}, {1: 5, 3: 1, 4: 1}, {3: -3}, {0: 1, 4: 2}]))
@example((GF(TOP_PRIME), 5, [{0: 1, 1: 2, 3: 4}, {1: 5, 3: 1, 4: 1}, {3: TOP_PRIME - 3},
                             {0: 1, 4: 2}]))
# elimination leaves a one-entry pivot row whose column the other row holds
@example((GF(101), 3, [{0: 2, 1: 5}, {0: 2, 1: 6}]))
@example((QQ, 3, [{0: 2, 1: 5}, {0: 2, 1: 6}, {2: Fraction(-3, 2)}]))
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda field: _singleton_heavy_rows(field).map(lambda case: (field, *case))))
def test_singleton_pass_matches_reference_on_hypothesis_inputs(case):
    _assert_echelon_matches_reference(*case)


def _singleton_rich_rows(rng, field, n):
    """Mostly one-entry rows with scalars other than one, and pairs that leave one entry.

    The two rows of a pair share their support and differ at its last
    column, so eliminating the first from the second leaves a one-entry row
    whose column the first row still holds.
    """
    p = field.char

    def scalar():
        if p:
            return rng.choice([1, p - 1, rng.randrange(2, p)])
        return Fraction(rng.choice([-5, -2, 1, 3, 4]), rng.randint(1, 3))

    rows = [{rng.randrange(n): scalar()} for _ in range(rng.randint(0, n))]
    for _ in range(rng.randint(0, 2)):
        support = sorted(rng.sample(range(n), rng.randint(2, min(n, 4))))
        first = {k: scalar() for k in support}
        second = dict(first)
        second[support[-1]] = (first[support[-1]] + 1) % p if p else first[support[-1]] + 1
        rows += [first, {k: x for k, x in second.items() if x}]
    rows += [{k: scalar() for k in rng.sample(range(n), rng.randint(1, n))}
             for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_entry_pivots_match_reference_on_seeded_inputs(field):
    rng = random.Random(103)
    for _ in range(150):
        n = rng.randint(2, 9)
        _assert_echelon_matches_reference(field, n, _singleton_rich_rows(rng, field, n))
