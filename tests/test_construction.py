"""Construction that sorts nothing, against the references that sorted.

Monomials are enumerated in ascending Grevlex, `kernel_algebra` takes the
classes in that order, the tables are read off the classes, and a fibre
product's basis is merged from its factors'.
"""

import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra, associated_graded,
                      connected_sum, fibre_product, gls_split, iarrobino, is_gls, modulo_socle,
                      parse_polynomial, quotient, sums)
from artinsum.grobner import IdealPresentation
from artinsum.parse import parse_presentation
from artinsum.poly import Grevlex
from artinsum.quotient import (_monomial_table, quotient_algebra, square_zero_algebra,
                               subalgebra)

from corpus import dual_polynomials, pair_corpus, random_gorenstein
from oracles import (_class_row, annihilator_reference, dense, filtration_reference,
                     is_canonical_row, kernel_algebra_reference, normal_form_table_reference,
                     space_rows, table_algebra_reference, typed_table)

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
            subalgebra(Q, PolyRing(Q.field, Q.ring.names[:1]), [Q.element_row(Q.ring.var(0))])
            last = Q.ring.var(Q.ring.nvars - 1)
            subalgebra(Q, Q.ring, [Q.element_row(x + last * last) for x in Q.ring.gens()])
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
    # the call on the kept variables builds the algebra that the eliminating
    # call returns, and A/soc A eliminates nothing
    assert built[0] is built[1] is A and len(built) == 3


@pytest.mark.parametrize("field", [QQ, GF(7), GF(1048573)], ids=str)
def test_kernel_algebras_match_the_sorting_reference_at_the_restriction_edges(field):
    # y and z are eliminated, leaving x with images of degrees 2-4 and 3;
    # the residue field eliminates every variable, leaving the kept ring empty
    text = f"field {field}; vars x y z; ideal y - x^2 + 3*x*z, z - 5*x*y, x^5;"
    with _checked_kernels() as built:
        A = algebra_from_text(text)
        algebras = (A, square_zero_algebra(A.original_ring))
        residues = [quotient_algebra(B, [B.power(1)] * (B.loewy_length + 2)) for B in algebras]
    ring = A.ring
    assert ring.names == ("x",) and A.hilbert_function() == (1,) * 5
    assert A.reduction == (ring, [ring.var(0), parse_polynomial("x^2 - 15*x^4", ring),
                                  parse_polynomial("5*x^3", ring)])
    for B, k in zip(algebras, residues):
        assert k.ring.nvars == 0 and k.length == 1 and k.original_ring == B.ring
        assert k.reduction == (k.ring, [k.ring.zero] * B.ring.nvars)
    # each elimination is compared twice: on the kept ring and as returned;
    # the square-zero algebra is assembled directly, not as a kernel
    assert len(built) == 6


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


@pytest.mark.parametrize("text, leads", [
    ((GOLDEN / "nonminimal_qq.txt").read_text(), 0),
    ((GOLDEN / "nonminimal_gf101.txt").read_text(), 0),
    # linear forms of the ideal: X leads X - 2*Y, and Y leads Y - 3*Z
    ("field QQ; vars X Y Z; ideal X - 2*Y, Y^3, Z^2 - Y^2, Y*Z", 1),
    ("field GF(101); vars X Y Z; ideal Y - 3*Z, X^3, Z^2 - X^2, X*Z", 1)])
def test_parsed_presentations_tabulate_their_variables_classes(text, leads):
    # build_algebra's algebra before minimising is on the parsed ring, a
    # variable leading a linear element of the reduced basis not standard,
    # and its variables' table is the product table of their normal forms;
    # it is handed to one quotient by zero, which reads no structure table
    seen = []
    original = quotient.quotient_algebra

    def capturing(B, targets):
        seen.append((B, targets, "struct_table" in vars(B)))
        return original(B, targets)

    with mock.patch.object(quotient, "quotient_algebra", capturing):
        A = algebra_from_text(text)
    ((B, targets, gathered),) = seen
    assert B.ring == A.original_ring and not gathered and "struct_table" not in vars(B)
    assert len(targets) == B.loewy_length + 2 and not any(W.basis for W in targets)
    n = B.ring.nvars
    units = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    assert sum(x not in B.basis_index for x in units) == leads
    pres = IdealPresentation(*parse_presentation(text))
    classes = [{B.basis_index[m]: c for m, c in pres.normal_form(x).terms.items()}
               for x in B.ring.gens()]
    assert typed_table(B.times_table) == typed_table(B.product_table(classes))
    _assert_times_table_is_gathered(A)


def test_a_minimal_presentation_is_built_without_a_quotient():
    with mock.patch.object(quotient, "quotient_algebra", mock.Mock()) as quotients:
        A = algebra_from_text((GOLDEN / "hidden_sum.txt").read_text())
    assert not quotients.called and A.reduction is None and A.ring is A.original_ring


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


# -- kernels keep their classes: each fast path against its reference ---------

DIFFERENTIAL_FIELDS = [QQ, GF(7), GF(1048573)]

# Z^3 lies in m^4 (its class is Y^4), so m^3 is not spanned by monomials of degree 3
DEGREE_DROPS = ["vars Y Z; ideal Y*Z, Y^4 - Z^3", "vars X Y Z; ideal X*Y, X*Z, Y*Z, X^3 - Y^2, Z^2 - Y^3"]


@contextmanager
def _kernels_built():
    """Record every algebra that `kernel_algebra` returns, with its degree D.

    A kernel's structure table is gathered only when it is first read, so
    none is held when the algebra is returned.
    """
    built = []
    original = quotient.kernel_algebra

    def recording(ring, degree, classes):
        A = original(ring, degree, classes)
        assert "struct_table" not in vars(A)
        built.append((A, degree))
        return A

    with mock.patch.object(quotient, "kernel_algebra", recording), \
            mock.patch.object(sums, "kernel_algebra", recording):
        yield built


def _assert_kept_classes_and_tables(A, degree):
    """A kernel's classes are the recursion's, and its tables the eager gather's."""
    lam, p = A.length, A.field.char
    monos = _monomial_table(A.ring.nvars, degree).monos
    assert set(A._classes) == set(monos)
    _assert_tables_are_the_eager_gather(A)
    memo = {monos[0]: {0: 1}}
    for m in monos:
        row = A._classes[m]
        assert list(row) == sorted(row) and is_canonical_row(row, p)
        assert row == _class_row(memo, m, A._variable_tables, lam, p)


def _assert_tables_are_the_eager_gather(A):
    """The tables of an algebra, read off its classes, are those of `table_algebra_reference`."""
    want = table_algebra_reference(A)
    assert typed_table(A.times_table) == typed_table(want.times_table)
    assert typed_table(A.struct_table) == typed_table(want.struct_table)


def _absent_products_by_variables(A):
    """The monomials b*x_v, for b in A's basis, that A's classes do not hold."""
    n = A.ring.nvars
    return [m for b in A.basis for v in range(n)
            if (m := b[:v] + (b[v] + 1,) + b[v + 1:]) not in A._classes]


def _assert_filtration_and_annihilators(A, rng):
    """The filtration, the socle and annihilators against their references."""
    want = filtration_reference(A)
    assert [list(W.basis.items()) for W in A.filtration] == \
        [list(W.basis.items()) for W in want]
    assert A.homogeneous == all(g.is_homogeneous() for g in A.gb)
    field, lam = A.field, A.length
    variables = [{A.basis_index[tuple(int(i == v) for i in range(A.ring.nvars))]: 1}
                 for v in range(A.ring.nvars)]
    elements = [{k: field.coerce(rng.randint(-4, 4)) for k in rng.sample(range(lam), min(lam, 3))}
                for _ in range(2)]
    for got, rows in ((A.socle(), variables), (A.annihilator(variables), variables),
                      (A.annihilator(elements), elements),
                      (A.annihilator(list(A.power(2).basis.values())),
                       list(A.power(2).basis.values()))):
        ann, pivots = annihilator_reference(A, [dense(field, [row], lam)[0] for row in rows])
        assert list(got.basis) == pivots.tolist()
        written = space_rows(got)
        assert written.dtype == ann.dtype and np.array_equal(written, ann)


def _derived_kernels(Q, rng):
    """gr(Q), Q0, Q/soc Q, subalgebras of Q and the linear-socle split of gr(Q), when defined."""
    G = associated_graded(Q)
    if Q.is_gorenstein() and Q.length > 1:
        iarrobino(Q)
        modulo_socle(Q)
    ring = Q.ring
    subalgebra(Q, PolyRing(Q.field, ring.names[:1]), [Q.element_row(ring.var(0))])
    last = ring.var(ring.nvars - 1)
    subalgebra(Q, ring, [Q.element_row(x + last * last.scale(Q.field.coerce(rng.randint(1, 3))))
                         for x in ring.gens()])
    if G.loewy_length >= 2 and is_gls(G)[0] and G.type > 1:
        gls_split(G)


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=str)
def test_kernels_match_their_references_on_seeded_algebras(field):
    rng = random.Random(113)
    texts = [f"field {field}; {text};" for text in DEGREE_DROPS]
    texts += [(GOLDEN / name).read_text().replace("field QQ", f"field {field}")
              for name in ("hidden_sum.txt", "hidden_sum_edim2.txt", "nonminimal_qq.txt")]
    with _kernels_built() as built:
        algebras = [algebra_from_text(text) for text in texts]
        # parsed algebras keep their classes too, and gather no table yet
        assert not any("struct_table" in vars(A) for A in algebras)
        # every kernel and parsed algebra holds the class of each b*x_v
        assert not any(_absent_products_by_variables(A) for A, _ in built)
        assert not any(_absent_products_by_variables(A) for A in algebras)
        for R, S in pair_corpus(3, seed=17, max_edim=2, max_ll=4, min_ll=2, field=field):
            Q, P = connected_sum(R, S).algebra, fibre_product(R, S).algebra
            # sums and products read their factors' classes, and no one gathers a table
            assert not any("struct_table" in vars(X) for X in (R, S, P, Q))
            # a sum or product leaves out only mixed monomials, whose class is 0
            r = R.ring.nvars
            for X in (P, Q):
                assert all(any(m[:r]) and any(m[r:]) for m in _absent_products_by_variables(X))
            assert any(_absent_products_by_variables(P))
            algebras += [R, S, Q, P]
        for Q in list(algebras):
            _derived_kernels(Q, rng)
    for A, degree in built:
        _assert_kept_classes_and_tables(A, degree)
    for A in algebras:
        _assert_tables_are_the_eager_gather(A)
    algebras += [A for A, _ in built]
    for A in algebras:
        _assert_filtration_and_annihilators(A, rng)
    # graded kernels and kernels with a degree drop, parsed algebras with one too
    assert any(A.homogeneous for A, _ in built) and any(not A.homogeneous for A, _ in built)
    assert not any(A.homogeneous for A in algebras[:len(DEGREE_DROPS)])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dual_polynomials(DIFFERENTIAL_FIELDS), st.integers(0, 2 ** 16))
def test_kernels_match_their_references_on_hypothesis_inputs(F, seed):
    rng = random.Random(seed)
    with _kernels_built() as built:
        A = apolar_algebra(F)
        if A.length > 2:
            _derived_kernels(A, rng)
    for B, degree in built:
        _assert_kept_classes_and_tables(B, degree)
        _assert_filtration_and_annihilators(B, rng)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("names", [(), ("x",), ("x", "y", "z")])
def test_square_zero_algebras_are_the_kernel_of_their_classes(field, names):
    # 1 and the variables are independent, and every quadric is zero
    ring = PolyRing(field, names)
    count = len(_monomial_table(ring.nvars, 2).monos)
    want = quotient.kernel_algebra(ring, 2, [{j: 1} if j <= ring.nvars else {}
                                             for j in range(count)])
    got = square_zero_algebra(ring)
    _assert_same_algebra(got, want)
    assert got.homogeneous and got.hilbert_function() == ((1, len(names)) if names else (1,))
    assert [list(W.basis.items()) for W in got.filtration] == \
        [list(W.basis.items()) for W in filtration_reference(got)]
