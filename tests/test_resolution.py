"""Betti numbers of the residue field and the paper's series identities."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, SeriesTrunc, algebra_from_text, apolar_algebra,
                      betti_numbers, certify_indecomposable, connected_sum, decompose,
                      fibre_product, h2_bound_check, modulo_socle, mu_from_betti,
                      parse_polynomial, resolution, verify_cs_series, verify_fp_series,
                      verify_mu_formulas, verify_socle_quotient)
from artinsum.errors import (ArtinsumError, NotGorensteinError, NotLocalError, ParseError,
                             PreconditionError, ResourceGuardError)
from artinsum import _kernels
from artinsum.poly import Polynomial
from artinsum.resolution import _differential, mu_direct

from corpus import pair_corpus
from oracles import (betti_numbers_reference, differential_matrix_reference,
                     is_canonical_row, matrix, mu_direct_reference, mu_rank_reference,
                     residue_field_algebra, zeros)

FIELDS = [GF(101), GF(1048573), QQ]

GOLDEN = Path(__file__).resolve().parent / "golden"

TRUNCATION = 5

# pairs 0 and 2 of pair_corpus(3, max_edim=2, max_ll=3): factor (edim, Loewy
# length) (2, 2) + (2, 2) and (1, 3) + (2, 3) over GF(101)
PAIRS = pair_corpus(3, max_edim=2, max_ll=3)


def test_betti_of_dual_numbers_is_all_ones():
    A = algebra_from_text("field QQ; vars X; ideal X^2")
    assert betti_numbers(A, TRUNCATION).betti == (1,) * (TRUNCATION + 1)


@pytest.mark.parametrize("field", ["QQ", "GF(101)"])
def test_betti_of_complete_intersection(field):
    A = algebra_from_text(f"field {field}; vars X Y; ideal X^2, Y^2")
    assert betti_numbers(A, TRUNCATION).betti == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_the_residue_field_is_resolved_by_itself(field):
    # m = 0: beta_1 = 0 ends the resolution, and the later Betti numbers are padding
    k = residue_field_algebra(field)
    data = betti_numbers(k, TRUNCATION)
    assert data.betti == (1,) + (0,) * TRUNCATION
    assert resolution.inverse_poincare(k, TRUNCATION) == SeriesTrunc.one(TRUNCATION)
    assert mu_from_betti(k, data) == 0


def test_socle_quotient_identity_checks_its_preconditions():
    with pytest.raises(NotGorensteinError):
        verify_socle_quotient(algebra_from_text("field QQ; vars Y Z; ideal Y^2, Y*Z, Z^2"))
    with pytest.raises(PreconditionError, match="embedding dimension"):
        verify_socle_quotient(algebra_from_text("field QQ; vars X; ideal X^3"))


@pytest.mark.parametrize("index, construction, expected", [
    (0, connected_sum, (1, 4, 15, 56, 209, 780)),
    (2, connected_sum, (1, 3, 8, 21, 55, 144)),
    (0, fibre_product, (1, 4, 14, 48, 164, 560)),
])
def test_betti_of_corpus_sums(index, construction, expected):
    R, S = PAIRS[index]
    A = construction(R, S).algebra
    assert betti_numbers(A, TRUNCATION).betti == expected


def test_betti_truncation_reuses_the_cache():
    R, S = PAIRS[2]
    Q = connected_sum(R, S).algebra
    assert betti_numbers(Q, 3).betti == (1, 3, 8, 21)
    assert betti_numbers(Q, TRUNCATION).betti == (1, 3, 8, 21, 55, 144)
    assert betti_numbers(Q, 2).betti == (1, 3, 8)


def test_inverse_poincare_series_has_int_coefficients():
    R, S = PAIRS[0]
    inverse = betti_numbers(connected_sum(R, S).algebra, TRUNCATION).poincare().reciprocal()
    assert inverse.coeffs == (1, -4, 1, 0, 0, 0)
    assert all(type(c) is int for c in inverse.coeffs)


def test_series_keeps_fractions_where_a_coefficient_is_not_integral():
    inverse = SeriesTrunc([2, 1]).reciprocal()
    assert inverse.coeffs == (Fraction(1, 2), Fraction(-1, 4))
    assert [type(c) for c in inverse.coeffs] == [Fraction, Fraction]
    assert SeriesTrunc([2, 1, 0, 0]).reciprocal().coeffs == (
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16))
    # a Fraction sum that is integral is stored as an int
    half = SeriesTrunc([Fraction(1, 2), 0])
    assert [type(c) for c in (half + half).coeffs] == [int, int]


def test_series_of_fractions_and_of_ints_are_equal_and_print_alike():
    ints = SeriesTrunc([1, -4, 1, 0])
    fractions = SeriesTrunc([Fraction(1), Fraction(-4), Fraction(1), Fraction(0)])
    assert ints == fractions and hash(ints) == hash(fractions)
    assert ints == SeriesTrunc.from_terms(3, {0: Fraction(1), 1: Fraction(-4), 2: 1})
    assert repr(ints) == repr(fractions) == "1 - 4*t + t^2 + O(t^4)"
    mixed = SeriesTrunc([Fraction(1, 2), 3, Fraction(-5, 3)])
    assert repr(mixed) == "1/2 + 3*t - 5/3*t^2 + O(t^3)"
    assert repr(SeriesTrunc([2, 1]).reciprocal()) == "1/2 - 1/4*t + O(t^2)"


def _assert_identities(R, S, truncation):
    Q = connected_sum(R, S).algebra
    P = fibre_product(R, S).algebra
    cs = verify_cs_series(R, S, Q, truncation)
    assert cs.holds, (cs.lhs, cs.rhs)
    fp = verify_fp_series(R, S, P, truncation)
    assert fp.holds, (fp.lhs, fp.rhs)
    mu = verify_mu_formulas(R, S)
    assert mu.holds, mu


@pytest.mark.parametrize("index", [0, 2])
def test_series_identities_on_corpus_pairs(index):
    R, S = PAIRS[index]
    _assert_identities(R, S, 4)


def test_series_identities_over_rationals():
    R = algebra_from_text("field QQ; vars Y1 Y2; ideal Y1^2, Y2^2")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    _assert_identities(R, S, 3)


def test_betti_dimension_guard_names_itself(monkeypatch):
    # the first step has 2 generators over an algebra of length 4: dimension 8
    A = algebra_from_text("field QQ; vars X Y; ideal X^2, Y^2")
    monkeypatch.setattr(resolution, "MAX_FREE_RANK_DIM", 5)
    with pytest.raises(ResourceGuardError) as info:
        betti_numbers(A, TRUNCATION)
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_dim", 5, 8)
    assert str(info.value) == "free module dimension 8 exceeds the max_dim guard of 5"


def test_mu_formulas_need_both_loewy_lengths_at_least_two():
    # pair 4: R of edim 2 and Loewy length 2, S = k[Z1]/(Z1^2) of Loewy length 1
    R, S = pair_corpus(6, max_edim=2, max_ll=3)[4]
    assert (R.loewy_length, S.loewy_length) == (2, 1)
    with pytest.raises(PreconditionError, match="Loewy lengths >= 2"):
        verify_cs_series(R, S, connected_sum(R, S).algebra, 4)
    with pytest.raises(PreconditionError, match="Loewy lengths >= 2"):
        verify_mu_formulas(R, S)


def _lane_invariants(field, index):
    R, S = pair_corpus(4, max_edim=2, max_ll=3, field=field)[index]
    algebras = (R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra)
    return [(A.hilbert_function(), A.type, betti_numbers(A, 4).betti, mu_direct(A))
            for A in algebras]


@pytest.mark.parametrize("index", [0, 2, 3])
def test_field_lanes_agree_on_corpus_pairs(index):
    # the corpus draws integer dual polynomials, read here over QQ and over
    # the largest supported prime; both lanes must give the same invariants
    # for the factors, their connected sum and their fibre product
    assert _lane_invariants(QQ, index) == _lane_invariants(GF(1048573), index)


def _assert_betti_matches_reference(A, truncation):
    A._betti_cache = None
    assert betti_numbers(A, truncation).betti == betti_numbers_reference(A, truncation)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_betti_matches_reference_on_corpus_pairs(monkeypatch, field):
    # pairs 0 and 2 of the module's corpus, read in each field; QQ stops at
    # truncation 4 to keep the Fraction lane's edim-4 sums affordable.  One-entry
    # kernel rows take their products off the table, and one-entry pivot rows
    # pass the back-substitution and the kernel readout by: both must occur
    seen = {"rows": 0, "pivots": 0}
    times, kernel = resolution._times, _kernels.kernel

    def recording_times(rows, table, lam, p, columns):
        rows = list(rows)
        seen["rows"] += sum(len(row) == 1 for row in rows)
        return times(rows, table, lam, p, columns)

    def recording_kernel(pivots, width, p):
        seen["pivots"] += sum(len(row) == 1 for row in pivots.values())
        return kernel(pivots, width, p)

    monkeypatch.setattr(resolution, "_times", recording_times)
    monkeypatch.setattr(_kernels, "kernel", recording_kernel)
    truncation = 4 if field == QQ else 5
    for index in (0, 2):
        R, S = pair_corpus(3, max_edim=2, max_ll=3, field=field)[index]
        for A in (R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra):
            _assert_betti_matches_reference(A, truncation)
    assert seen["rows"] and seen["pivots"]


def test_betti_matches_reference_on_edge_algebras():
    R, S = PAIRS[0]
    _assert_betti_matches_reference(modulo_socle(connected_sum(R, S).algebra), 4)
    _assert_betti_matches_reference(algebra_from_text("field QQ; vars X; ideal X^2"), 5)


@st.composite
def _apolar_algebras(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(2, 4 if nvars < 3 else 3))
    dual = PolyRing(field, tuple(f"w{i}" for i in range(nvars)))
    monos = [m for d in range(1, degree + 1) for m in dual.monomials_of_degree(d)]
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-5, 5), max_size=6))
    top = draw(st.sampled_from(dual.monomials_of_degree(degree)))
    terms[top] = draw(st.integers(1, 5))
    return apolar_algebra(dual.poly(terms), tuple(f"X{i}" for i in range(nvars)))


@settings(max_examples=25, deadline=None)
@given(_apolar_algebras())
def test_betti_matches_reference_on_hypothesis_apolar_algebras(A):
    _assert_betti_matches_reference(A, 4)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mu_direct_matches_reference_on_corpus_sums(field):
    # four seeded pairs of the module's corpus shapes, read in each field
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(4, max_edim=2, max_ll=3, field=field):
        Q = connected_sum(R, S).algebra
        algebras += [R, S, Q, fibre_product(R, S).algebra, modulo_socle(Q)]
    for A in algebras:
        assert mu_direct(A) == mu_rank_reference(A)


@settings(max_examples=25, deadline=None)
@given(_apolar_algebras())
def test_mu_direct_matches_reference_on_hypothesis_apolar_algebras(A):
    assert mu_direct(A) == mu_rank_reference(A)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mu_direct_matches_polynomial_products_on_corpus_sums(monkeypatch, field):
    # the rows are built on exponent tuples; the reference multiplies the
    # reduced basis out as polynomials
    algebras = []
    for R, S in pair_corpus(4, max_edim=2, max_ll=3, field=field):
        Q = connected_sum(R, S).algebra
        algebras += [R, S, Q, fibre_product(R, S).algebra, modulo_socle(Q)]
    want = [mu_direct_reference(A) for A in algebras]

    def no_products(*args):
        raise AssertionError("mu_direct formed a Polynomial product")

    monkeypatch.setattr(Polynomial, "mul_term", no_products)
    assert [mu_direct(A) for A in algebras] == want


def test_certificates_count_mu_only_from_edim_three(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A.edim)
        return mu_direct(A)

    monkeypatch.setattr(decompose, "mu_direct", counting)
    # the quartic of decompose_quartic_qq.json
    dual = PolyRing(QQ, ("w1", "w2"))
    quartic = apolar_algebra(parse_polynomial(
        "3*w1^4 - 2*w1^3*w2 + 5*w1^2*w2^2 + w1*w2^3 - 4*w2^4", dual))
    assert [c.name for c in certify_indecomposable(quartic)] == ["HILBERT2", "COMPRESSED"]
    assert calls == [] and "gb" not in vars(quartic)
    ci = algebra_from_text((GOLDEN / "ci_qq.txt").read_text())
    assert [c.name for c in certify_indecomposable(ci)] == ["COMPLETE_INTERSECTION"]
    assert calls == [3]


def test_mu_direct_matches_polynomial_products_on_golden_presentations():
    fields = set()
    for path in sorted(GOLDEN.glob("*.txt")):
        try:
            A = algebra_from_text(path.read_text())
        except (ParseError, NotLocalError):
            # the goldens of rejected input: four parse errors and a non-local ideal
            continue
        fields.add(str(A.field))
        assert mu_direct(A) == mu_direct_reference(A), path.name
    assert fields == {"QQ", "GF(7)", "GF(101)", "GF(1048573)"}


@pytest.mark.parametrize("field", [GF(7), GF(101), GF(1048573), QQ], ids=str)
def test_differential_matrix_matches_the_per_generator_products(field):
    # over GF(7) most products c*s are past p, and many sums cancel
    R, S = pair_corpus(3, max_edim=2, max_ll=3, field=field)[2]
    A = connected_sum(R, S).algebra
    lam, p = A.length, getattr(field, "p", 0)
    struct = A.struct_table
    rng = np.random.default_rng(7)
    for prev_rank in (1, 2, 3):
        ints = rng.integers(-3, 4, size=(4, prev_rank * lam))
        gens = matrix(field, [[field.coerce(int(x)) for x in row] for row in ints])
        rows = [{j: c for j, c in enumerate(g) if c} for g in gens.tolist()]
        before = [dict(row) for row in rows]
        # the sparse differential is transposed: densify it back
        got = zeros(field, (len(gens) * lam, prev_rank * lam))
        for i, row in _differential(struct, rows, lam, p).items():
            assert row and is_canonical_row(row, p)
            for c, x in row.items():
                got[c, i] = x
        assert rows == before, "a caller row changed"
        want = differential_matrix_reference(A, gens, prev_rank)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_betti_checks_that_m_times_the_kernel_lies_inside_it(monkeypatch):
    # span(X) is not an ideal of k[X, Y]/(X^2, Y^2): Y*X = XY lies outside it
    A = algebra_from_text("field GF(101); vars X Y; ideal X^2, Y^2")
    x = A.subspace([A.element_row(A.ring.var(0))])
    monkeypatch.setattr(A, "power", lambda i: x)
    with pytest.raises(ArtinsumError, match=r"m\*K is not inside K"):
        betti_numbers(A, 3)


def test_betti_checks_that_the_differential_has_no_unit_entry(monkeypatch):
    # with K = A in place of m, the generator of K modulo m*K is 1 itself
    A = algebra_from_text("field QQ; vars X Y; ideal X^2, Y^2")
    whole = A.power(0)
    monkeypatch.setattr(A, "power", lambda i: whole)
    for betti in (betti_numbers, betti_numbers_reference):
        with pytest.raises(ArtinsumError, match="differential has a unit entry"):
            betti(A, 3)


def test_betti_checks_that_the_differential_is_onto_the_previous_kernel(monkeypatch):
    # in k[X, Y]/(X^2, Y^2) the first differential's transpose has three
    # nonzero rows, one per coordinate of m = ker(A -> k); losing one loses rank
    A = algebra_from_text("field QQ; vars X Y; ideal X^2, Y^2")
    differential = resolution._differential

    def lossy(*args):
        rows = differential(*args)
        del rows[max(rows)]
        return rows

    monkeypatch.setattr(resolution, "_differential", lossy)
    with pytest.raises(ArtinsumError, match="not exact at the previous step"):
        betti_numbers(A, 3)


@pytest.mark.parametrize("name", ["qq_left.txt", "gf_left.txt"])
def test_betti_numbers_match_reference_where_a_one_entry_product_cancels(monkeypatch, name):
    # in these algebras some row of m*K has two entries whose products by a
    # variable meet at one column and cancel: that product is zero, not a pivot
    A = algebra_from_text((GOLDEN / name).read_text())
    want = betti_numbers_reference(A, TRUNCATION)
    times, calls, products = resolution._times, [], []

    def recording(rows, table, lam, p, columns):
        rows = list(rows)
        calls.append((rows, table, lam, p, columns))
        out = list(times(rows, table, lam, p, columns))
        # copies: the echelon consumes the rows it is given
        products.extend((p, dict(prod)) for prod in out)
        return iter(out)

    monkeypatch.setattr(resolution, "_times", recording)
    assert betti_numbers(A, TRUNCATION).betti == want
    assert all(prod and is_canonical_row(prod, p) for p, prod in products)
    # the raw sums of each row's products by each variable, reduced nowhere
    cancelled = []
    for rows, table, lam, p, columns in calls:
        for row in rows:
            sums = {}
            for col, c in row.items():
                base = col - col % lam
                for v, j, s in table[col % lam]:
                    prod = sums.setdefault(v, {})
                    k = columns[base + j]
                    prod[k] = prod.get(k, 0) + c * s
            cancelled += [prod for prod in sums.values()
                          if len(prod) == 1 and not any(x % p if p else x for x in prod.values())]
    assert cancelled


@st.composite
def _apolar_pairs(draw):
    """Apolar R and S of edim at most 2 and Loewy length 2 or 3, over one field."""
    field = draw(st.sampled_from([GF(1048573), QQ]))
    pair = []
    for prefix in ("Y", "Z"):
        nvars = draw(st.integers(1, 2))
        degree = draw(st.integers(2, 3))
        dual = PolyRing(field, tuple(f"w{prefix}{i}" for i in range(nvars)))
        monos = [m for d in range(1, degree + 1) for m in dual.monomials_of_degree(d)]
        terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-5, 5), max_size=4))
        terms[draw(st.sampled_from(dual.monomials_of_degree(degree)))] = draw(st.integers(1, 5))
        pair.append(apolar_algebra(dual.poly(terms),
                                   tuple(f"{prefix}{i + 1}" for i in range(nvars))))
    return pair


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_apolar_pairs())
def test_paper_identities_hold_on_hypothesis_pairs(pair):
    # both factors have length at least 3, so Q has edim m + n >= 2 and the
    # socle-quotient identity applies to it
    R, S = pair
    Q = connected_sum(R, S).algebra
    P = fibre_product(R, S).algebra
    for report in (verify_cs_series(R, S, Q, 3), verify_fp_series(R, S, P, 3),
                   verify_mu_formulas(R, S), verify_socle_quotient(Q, 3)):
        assert report.holds, report
    assert h2_bound_check(R, S, Q)
    assert all(mu_direct(A) == mu_rank_reference(A) for A in (Q, P))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_apolar_pairs())
def test_betti_matches_reference_on_hypothesis_sums_and_products(pair):
    R, S = pair
    for A in (connected_sum(R, S).algebra, fibre_product(R, S).algebra):
        _assert_betti_matches_reference(A, 4)

