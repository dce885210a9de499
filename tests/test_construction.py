"""Construction that sorts nothing, against the references that sorted.

Monomials are enumerated in ascending Grevlex, `kernel_algebra` takes the
classes in that order, the variables' table is gathered from the structure
table, and a fibre product's basis is merged from its factors'.
"""

import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra, associated_graded,
                      connected_sum, fibre_product, gls_split, iarrobino, modulo_socle,
                      parse_polynomial, quotient, sums)
from artinsum.grobner import IdealPresentation
from artinsum.parse import parse_presentation
from artinsum.poly import Grevlex
from artinsum.quotient import _monomial_table, square_zero_algebra, subalgebra

from corpus import dual_polynomials, pair_corpus, random_gorenstein
from oracles import (kernel_algebra_reference, normal_form_table_reference, sparse_row,
                     typed_table, vector_reference)

FIELDS = [GF(101), GF(1048573), QQ]

GOLDEN = Path(__file__).resolve().parent / "golden"

# the dual polynomials of the apolar_nonminimal_* goldens, whose apolar
# ideals hold linear forms
NONMINIMAL_DUALS = [
    (("w1", "w2"), "w1^3 + 3*w1^2*w2 + 3*w1*w2^2 + w2^3"),
    (("w1", "w2", "w3"), "w1^4 + 8*w1^3*w3 + 24*w1^2*w3^2 + 32*w1*w3^3 + 5*w2^3"
                         " - 15*w2^2*w3 + 15*w2*w3^2 + 16*w3^4 - 5*w3^3"),
]


def test_monomials_up_to_ascend_under_grevlex():
    for nvars in range(6):
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(nvars)))
        for degree in range(8):
            monos = [m for d in range(degree + 1) for m in ring.monomials_of_degree(d)]
            got = _monomial_table(ring.nvars, degree).monos
            assert list(got) == sorted(monos, key=Grevlex().key)


def test_monomial_tables_are_shared_tuples_per_variable_count_and_degree():
    left, right = PolyRing(QQ, ("x", "y", "z")), PolyRing(GF(7), ("a", "b", "c"))
    for degree in range(6):
        table = _monomial_table(left.nvars, degree)
        assert _monomial_table(right.nvars, degree) is table
        assert type(table) is quotient.MonomialTable
        assert all(type(part) is tuple for part in table)
        assert all(type(m) is tuple for m in table.monos)
    assert _monomial_table.cache_info().maxsize == quotient.MONOMIAL_TABLES


def test_monomial_table_predecessors_lower_the_first_nonzero_exponent():
    for nvars in range(5):
        for degree in range(6):
            monos, pred, var = _monomial_table(nvars, degree)
            assert len(monos) == len(pred) == len(var)
            assert monos[0] == (0,) * nvars and pred[0] == var[0] == -1
            for j in range(1, len(monos)):
                m = monos[j]
                i = next(k for k, e in enumerate(m) if e)
                assert var[j] == i
                assert pred[j] < j and monos[pred[j]] == m[:i] + (m[i] - 1,) + m[i + 1:]


def _unit_rows(A):
    n = A.ring.nvars
    return [{A.basis_index[tuple(int(i == v) for i in range(n))]: 1} for v in range(n)]


def _assert_times_table_is_gathered(A):
    assert typed_table(A.times_table) == typed_table(A.product_table(_unit_rows(A)))


def _assert_same_algebra(got, want):
    assert (got.ring, got.original_ring) == (want.ring, want.original_ring)
    assert got.basis == want.basis
    assert typed_table(got.struct_table) == typed_table(want.struct_table)
    assert got.gb == want.gb
    assert typed_table(got.times_table) == typed_table(want.times_table)
    assert [W.basis for W in got.filtration] == [W.basis for W in want.filtration]
    assert got.reduction == want.reduction


@contextmanager
def _checked_kernels():
    """Compare every `kernel_algebra` call with the sorting reference; yields the algebras.

    The reference is handed the monomials in `PolyRing.monomials_of_degree`
    order, with the classes permuted to match, and sorts them itself.
    """
    built = []
    original = quotient.kernel_algebra

    def compared(ring, degree, classes):
        got = original(ring, degree, classes)
        column = {m: j for j, m in enumerate(_monomial_table(ring.nvars, degree).monos)}
        monos = [m for d in range(degree + 1) for m in ring.monomials_of_degree(d)]
        want = kernel_algebra_reference(ring, monos, [classes[column[m]] for m in monos])
        _assert_same_algebra(got, want)
        _assert_times_table_is_gathered(got)
        built.append(got)
        return got

    with mock.patch.object(quotient, "kernel_algebra", compared), \
            mock.patch.object(sums, "kernel_algebra", compared):
        yield built


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_algebras_match_the_sorting_reference_on_corpus_constructions(field):
    # apolar algebras, subalgebras, gr(A), Q0, A/soc A and square-zero algebras
    with _checked_kernels() as built:
        for R, S in pair_corpus(3, seed=9, max_edim=2, max_ll=3, min_ll=2, field=field):
            Q = connected_sum(R, S).algebra
            associated_graded(Q)
            iarrobino(Q)
            modulo_socle(Q)
            subalgebra(Q, PolyRing(Q.field, Q.ring.names[:1]), [Q.ring.var(0)])
            last = Q.ring.var(Q.ring.nvars - 1)
            subalgebra(Q, Q.ring, [x + last * last for x in Q.ring.gens()])
            square_zero_algebra(Q.ring)
    # per pair at least: R and S, then gr(Q), Q0, Q/soc Q, two subalgebras
    # and k[Q.ring]/m^2
    assert len(built) >= 3 * 8


def test_kernel_algebras_match_the_sorting_reference_on_a_linear_socle_split():
    with _checked_kernels() as built:
        G = associated_graded(algebra_from_text((GOLDEN / "hidden_sum.txt").read_text()))
        split = gls_split(G)
    assert split.eliminated and len(built) >= 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("names, text", NONMINIMAL_DUALS)
def test_kernel_algebras_match_the_sorting_reference_on_linear_elimination(field, names, text):
    with _checked_kernels() as built:
        A = apolar_algebra(parse_polynomial(text, PolyRing(field, names)))
        modulo_socle(A)
    assert A.reduction is not None and A.ring.nvars < A.original_ring.nvars
    assert built[0] is A and len(built) == 2


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dual_polynomials(FIELDS))
def test_kernel_algebras_match_the_sorting_reference_on_hypothesis_inputs(F):
    with _checked_kernels() as built:
        A = apolar_algebra(F)
        if A.length > 2:
            modulo_socle(A)
            associated_graded(A)
    assert built


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sums_gather_their_variables_tables(field):
    for R, S in pair_corpus(3, seed=9, max_edim=2, max_ll=3, min_ll=2, field=field):
        for A in (connected_sum(R, S).algebra, fibre_product(R, S).algebra):
            _assert_times_table_is_gathered(A)


@pytest.mark.parametrize("text, eliminated", [
    ((GOLDEN / "nonminimal_qq.txt").read_text(), 0),
    ((GOLDEN / "nonminimal_gf101.txt").read_text(), 0),
    # linear forms of the ideal: X leads X - 2*Y, and Y leads Y - 3*Z
    ("field QQ; vars X Y Z; ideal X - 2*Y, Y^3, Z^2 - Y^2, Y*Z", 1),
    ("field GF(101); vars X Y Z; ideal Y - 3*Z, X^3, Z^2 - X^2, X*Z", 1)])
def test_parsed_presentations_tabulate_their_variables_classes(text, eliminated):
    # build_algebra's algebra before minimising is on the variables that
    # lead no linear element of the reduced basis, each of them standard,
    # so its variables' table is gathered, and it is the product table of
    # the normal forms; the subalgebra's images are the variables' normal
    # forms, a lead of a linear element going to minus its tail
    seen = []
    original = quotient.subalgebra

    def capturing(Q, new_ring, images):
        seen.append((Q, new_ring, images))
        return original(Q, new_ring, images)

    with mock.patch.object(quotient, "subalgebra", capturing):
        A = algebra_from_text(text)
    ((B, ring, images),) = seen
    assert ring == A.original_ring and B.ring.nvars == ring.nvars - eliminated
    n = B.ring.nvars
    assert all(tuple(int(i == v) for i in range(n)) in B.basis_index for v in range(n))
    classes = [sparse_row(B.field, vector_reference(B, x)) for x in B.ring.gens()]
    assert typed_table(B.times_table) == typed_table(B.product_table(classes))
    pres = IdealPresentation(*parse_presentation(text))
    assert [f.rename_into(ring) for f in images] == [pres.normal_form(x) for x in ring.gens()]
    _assert_times_table_is_gathered(A)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("edims", [(1, 1), (1, 2), (2, 2), (3, 1)])
def test_fibre_product_basis_is_the_sorted_union(field, edims):
    rng = random.Random(31)
    for loewy in (2, 3):
        R = random_gorenstein(rng, edims[0], loewy, "Y", field)
        S = random_gorenstein(rng, edims[1], 5 - loewy, "Z", field)
        P = fibre_product(R, S).algebra
        m, n = R.ring.nvars, S.ring.nvars
        union = {a + (0,) * n for a in R.basis} | {(0,) * m + b for b in S.basis}
        assert P.basis == tuple(sorted(union, key=P.ring.order.key))
        assert typed_table(P.struct_table) == typed_table(normal_form_table_reference(P))
