"""Fibre products, connected sums, socle generators, and apolarity."""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra,
                      apolar_sum_check, associated_graded, connected_sum, fibre_product,
                      gls_split, grobner, iarrobino, modulo_socle, parse_polynomial,
                      socle_generator, structure_decompose)
from artinsum.errors import (BadSocleError, CharacteristicError,
                             NotGorensteinError, RingMismatchError)
from artinsum.grobner import IdealPresentation
from artinsum.poly import Polynomial
from artinsum.sums import _apolar_classes

from corpus import pair_corpus, random_gorenstein, random_pair
from oracles import (apolar_classes_reference, classes_matrix, connected_sum_reference,
                     dense, fibre_product_reference, rank_reference, residue_field_algebra,
                     typed_table)

FIELDS = [GF(101), GF(1048573), QQ]


def gb_strings(A):
    return sorted(str(g) for g in A.gb)


def test_fibre_product_of_quadrics():
    R = algebra_from_text("field QQ; vars Y; ideal Y^2")
    S = algebra_from_text("field QQ; vars Z; ideal Z^2")
    P = fibre_product(R, S)
    assert not P.trivial
    assert gb_strings(P.algebra) == ["Y*Z", "Y^2", "Z^2"]
    assert P.algebra.length == 3


def test_fibre_product_trivial():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    res = fibre_product(R, residue_field_algebra(QQ))
    assert res.trivial and res.algebra is R


def test_fibre_product_hilbert_additivity():
    R = algebra_from_text("field QQ; vars Y1 Y2; ideal Y1^2, Y2^2")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    P = fibre_product(R, S).algebra
    hr, hs, hp = R.hilbert_function(), S.hilbert_function(), P.hilbert_function()
    for i in range(1, len(hp)):
        a = hr[i] if i < len(hr) else 0
        b = hs[i] if i < len(hs) else 0
        assert hp[i] == a + b


def test_socle_generator_examples():
    assert str(socle_generator(algebra_from_text("field QQ; vars Y; ideal Y^3"))) == "Y^2"
    assert str(socle_generator(algebra_from_text("field QQ; vars Y; ideal Y^4"))) == "Y^3"
    ci = algebra_from_text("field QQ; vars Y1 Y2; ideal Y1^2, Y2^2")
    assert str(socle_generator(ci)) == "Y1*Y2"
    with pytest.raises(NotGorensteinError):
        socle_generator(algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z"))


def test_connected_sum_of_cubics():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    Q = connected_sum(R, S)
    assert gb_strings(Q.algebra) == ["Y*Z", "Y^2 - Z^2", "Z^3"]
    assert Q.algebra.length == 4
    assert Q.algebra.hilbert_function() == (1, 2, 1)


def test_connected_sum_stretched():
    R = algebra_from_text("field QQ; vars Y; ideal Y^4")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    Q = connected_sum(R, S)
    assert gb_strings(Q.algebra) == ["Y*Z", "Y^3 - Z^2", "Z^3"]
    assert Q.algebra.hilbert_function() == (1, 2, 1, 1)
    from artinsum import classify
    assert classify(Q.algebra).stretched


def test_connected_sum_trivial():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Z; ideal Z^2")
    res = connected_sum(R, S)
    assert res.trivial and res.algebra is R


def test_connected_sum_unit():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    Q = connected_sum(R, S, unit=2)
    assert "Y^2 - 2*Z^2" in gb_strings(Q.algebra)


def test_connected_sum_custom_socle():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    expr = parse_polynomial("3*Y^2", R.ring)
    Q = connected_sum(R, S, socle_left=expr)
    assert "Y^2 - 1/3*Z^2" in gb_strings(Q.algebra)
    with pytest.raises(BadSocleError):
        connected_sum(R, S, socle_left=parse_polynomial("Y", R.ring))


def test_variable_collision_rejected():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Y; ideal Y^4")
    with pytest.raises(RingMismatchError):
        connected_sum(R, S)


def test_sum_invariants_random_corpus():
    rng = random.Random(41)
    for _ in range(10):
        R, S = random_pair(rng)
        P = fibre_product(R, S)
        assert P.algebra.length == R.length + S.length - 1
        assert P.algebra.hilbert_function()[1] == R.edim + S.edim
        assert P.algebra.type == R.type + S.type
        assert not P.algebra.is_gorenstein()
        Q = connected_sum(R, S)
        if Q.trivial:
            assert min(R.length, S.length) == 2
            continue
        assert Q.algebra.is_gorenstein()
        assert Q.algebra.length == R.length + S.length - 2
        if R.loewy_length >= 2 and S.loewy_length >= 2:
            assert Q.algebra.hilbert_function()[1] == R.edim + S.edim


def test_quotient_by_socle_splits_as_fibre_product():
    R = algebra_from_text("field QQ; vars Y; ideal Y^3")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    Q = connected_sum(R, S).algebra
    P = fibre_product(modulo_socle(R), modulo_socle(S)).algebra
    assert modulo_socle(Q).same_presentation(P)


def test_apolar_sum_of_squares():
    dual = PolyRing(QQ, ("Z1", "Z2"))
    A = apolar_algebra(parse_polynomial("Z1^2+Z2^2", dual))
    assert A.ring.names == ("X1", "X2")
    assert gb_strings(A) == ["X1*X2", "X1^2 - X2^2", "X2^3"]


def test_apolar_single_variable():
    dual = PolyRing(QQ, ("Y",))
    A = apolar_algebra(parse_polynomial("Y^2", dual))
    assert A.ring.names == ("X",)
    assert gb_strings(A) == ["X^3"]


def test_apolar_mixed_degrees():
    dual = PolyRing(QQ, ("Y", "Z"))
    A = apolar_algebra(parse_polynomial("Y^3+Z^2", dual), ("U", "V"))
    assert gb_strings(A) == ["U*V", "U^3 - 3*V^2", "V^3"]
    B = connected_sum(algebra_from_text("field QQ; vars U; ideal U^4"),
                      algebra_from_text("field QQ; vars V; ideal V^3"),
                      unit=3).algebra
    assert A.same_presentation(B)


def test_apolar_characteristic_guard():
    dual = PolyRing(GF(3), ("Y",))
    with pytest.raises(CharacteristicError):
        apolar_algebra(parse_polynomial("Y^3", dual))


def test_apolar_length_invariant_under_linear_substitution():
    rng = random.Random(13)
    k = GF(101)
    dual = PolyRing(k, ("w1", "w2"))
    F = parse_polynomial("w1^3 + w1*w2^2 + w2^2", dual)
    base = apolar_algebra(F, ("X1", "X2")).length
    for _ in range(5):
        while True:
            a, b, c, d = (rng.randrange(101) for _ in range(4))
            if (a * d - b * c) % 101:
                break
        w1 = dual.var(0).scale(a) + dual.var(1).scale(b)
        w2 = dual.var(0).scale(c) + dual.var(1).scale(d)
        moved = F.compose(dual, [w1, w2])
        assert apolar_algebra(moved, ("X1", "X2")).length == base


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_apolar_length_is_the_rank_of_the_derivative_classes(field):
    # kernel_algebra keeps one standard monomial per non-free column of the
    # classes' left kernel, so by rank-nullity the length is their rank, also
    # when a linear form is eliminated
    rng = random.Random(41)
    dual = PolyRing(field, ("w1", "w2", "w3"))
    names = ("X1", "X2", "X3")
    polys = [parse_polynomial(text, dual) for text in (
        "w1^3 + 3*w1^2*w2 + 3*w1*w2^2 + w2^3",
        "w1^4 + 8*w1^3*w3 + 24*w1^2*w3^2 + 32*w1*w3^3 + 5*w2^3 - 15*w2^2*w3"
        " + 15*w2*w3^2 + 16*w3^4 - 5*w3^3")]
    monos = [m for d in range(1, 5) for m in dual.monomials_of_degree(d)]
    for _ in range(10):
        polys.append(dual.poly({rng.choice(monos): rng.randrange(-5, 6)
                                for _ in range(rng.randrange(1, 6))} | {(3, 0, 1): 1}))
    for F in polys:
        classes = classes_matrix(field, _apolar_classes(F, PolyRing(field, names))[1])
        assert apolar_algebra(F, names).length == rank_reference(field, classes)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_apolar_classes_take_one_derivative_per_monomial(monkeypatch, field):
    # each monomial's derivative is one derivative of its predecessor's; the
    # rows, written out, equal the matrix that differentiates F from scratch
    # per monomial
    rng = random.Random(47)
    dual = PolyRing(field, ("w1", "w2", "w3"))
    ops = PolyRing(field, ("X1", "X2", "X3"))
    monos = [m for d in range(1, 5) for m in dual.monomials_of_degree(d)]
    polys = [dual.poly({rng.choice(monos): rng.randrange(1, 6) for _ in range(rng.randrange(1, 8))})
             for _ in range(8)]
    polys.append(dual.var(2))
    calls = Counter()
    derivative = Polynomial.derivative

    def counting(self, i):
        calls["derivative"] += 1
        return derivative(self, i)

    for F in polys:
        want_monos, want = apolar_classes_reference(F, ops)
        calls.clear()
        monkeypatch.setattr(Polynomial, "derivative", counting)
        got_monos, got = _apolar_classes(F, ops)
        monkeypatch.setattr(Polynomial, "derivative", derivative)
        assert got_monos == want_monos
        got = dense(field, got, want.shape[1])
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert calls["derivative"] == len(got_monos) - 1


def test_apolar_sum_check_examples():
    ring_y = PolyRing(QQ, ("Y",))
    ring_z = PolyRing(QQ, ("Z",))
    cubic_pair = apolar_sum_check(parse_polynomial("Y^3", ring_y),
                                  parse_polynomial("Z^3", ring_z))
    assert cubic_pair.matched and cubic_pair.unit == 1
    stretched = apolar_sum_check(parse_polynomial("Y^3", ring_y),
                                 parse_polynomial("Z^2", ring_z))
    assert stretched.matched
    quadrics = apolar_sum_check(parse_polynomial("Y^2", ring_y),
                                parse_polynomial("Z^2", ring_z))
    assert quadrics.matched and quadrics.unit == 1


# ---------------------------------------------------------------------------
# assembled fibre products and connected sums against Buchberger on generators

def _assert_same_algebra(new, old):
    assert new.ring == old.ring
    assert new.gb == old.gb
    assert new.basis == old.basis
    # the reference's table is the readout of its normal-form tensor
    assert typed_table(new.struct_table) == typed_table(old.struct_table)


def _assert_sums_match_reference(R, S, unit=1, socle_left=None, socle_right=None):
    P = fibre_product(R, S)
    assert not P.trivial
    _assert_same_algebra(P.algebra, fibre_product_reference(R, S))
    Q = connected_sum(R, S, unit=unit, socle_left=socle_left, socle_right=socle_right)
    if Q.trivial:
        assert min(R.length, S.length) == 2
        return
    _assert_same_algebra(Q.algebra, connected_sum_reference(R, S, unit, socle_left, socle_right))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sums_match_reference_on_corpus_pairs(field):
    for R, S in pair_corpus(6, field=field):
        _assert_sums_match_reference(R, S)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sums_match_reference_on_unequal_loewy_lengths_and_edim_one(field):
    rng = random.Random(7)
    for (m, lr), (n, ls) in (((1, 5), (2, 2)), ((2, 4), (1, 2)), ((1, 1), (2, 3)),
                             ((1, 2), (1, 5)), ((1, 3), (1, 3)), ((2, 2), (2, 4))):
        R = random_gorenstein(rng, m, lr, "Y", field)
        S = random_gorenstein(rng, n, ls, "Z", field)
        _assert_sums_match_reference(R, S)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sums_match_reference_with_units_and_custom_socles(field):
    rng = random.Random(11)
    for R, S in pair_corpus(3, seed=5, min_ll=2, field=field):
        for unit in (2, -1, 57):
            _assert_sums_match_reference(R, S, unit=unit)
        # scalar multiples of the socle generators, shifted by elements of the ideals
        left = socle_generator(R).scale(rng.randrange(1, 50)) + R.gb[0]
        right = socle_generator(S).scale(-rng.randrange(1, 50)) + S.gb[-1]
        _assert_sums_match_reference(R, S, unit=3, socle_left=left, socle_right=right)
        _assert_sums_match_reference(R, S, socle_right=right)


@st.composite
def _factor_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    factors = []
    for prefix in ("Y", "Z"):
        nvars = draw(st.integers(1, 2))
        degree = draw(st.integers(2, 4 if nvars == 1 else 3))
        dual = PolyRing(field, tuple(f"w{prefix}{i}" for i in range(nvars)))
        monos = [m for d in range(1, degree + 1) for m in dual.monomials_of_degree(d)]
        terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-5, 5), max_size=5))
        top = draw(st.sampled_from(dual.monomials_of_degree(degree)))
        terms[top] = draw(st.integers(1, 5))
        ops = tuple(f"{prefix}{i + 1}" for i in range(nvars))
        factors.append(apolar_algebra(dual.poly(terms), ops))
    return factors


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_factor_pairs(), st.integers(1, 100))
def test_sums_match_reference_on_hypothesis_apolar_factors(factors, unit):
    _assert_sums_match_reference(*factors, unit=unit)


@st.composite
def _graded_and_quadric(draw):
    """A graded Gorenstein R of socle degree 3 or 4 and a Loewy-length-2 S, over QQ."""
    nvars = draw(st.integers(1, 2))
    degree = draw(st.integers(3, 4))
    dual = PolyRing(QQ, tuple(f"w{i}" for i in range(nvars)))
    forms = dual.monomials_of_degree(degree)
    terms = draw(st.dictionaries(st.sampled_from(forms), st.integers(-3, 3), max_size=3))
    terms[draw(st.sampled_from(forms))] = draw(st.integers(1, 3))
    R = apolar_algebra(dual.poly(terms), tuple(f"Y{i + 1}" for i in range(nvars)))
    n = draw(st.integers(1, 2))
    squares = PolyRing(QQ, tuple(f"v{j}" for j in range(n)))
    quadric = squares.poly({tuple(2 * (i == j) for i in range(n)): draw(st.integers(1, 4))
                            for j in range(n)})
    S = apolar_algebra(quadric, tuple(f"Z{j + 1}" for j in range(n)))
    return R, S


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_graded_and_quadric(), st.integers(1, 5))
def test_structure_decompose_recovers_the_factors_of_a_connected_sum(factors, unit):
    # gr(R) = R is Gorenstein, so gr(R # S) is Gorenstein up to the linear
    # socle that S contributes, and the linear-socle route splits it off
    R, S = factors
    report = structure_decompose(connected_sum(R, S, unit=unit).algebra)
    assert report.status == "decomposed" and not report.trivial
    left, right = report.components
    assert (left.length, right.length) == (R.length, S.length)
    assert left.hilbert_function() == R.hilbert_function()
    assert right.hilbert_function() == S.hilbert_function()


# ---------------------------------------------------------------------------
# Buchberger and normal forms run only on parsed generator lists

def test_derived_algebras_run_no_buchberger_and_no_normal_form(monkeypatch):
    hidden = algebra_from_text((Path(__file__).resolve().parent / "golden"
                                / "hidden_sum.txt").read_text())
    graded_gorenstein = algebra_from_text("field QQ; vars Y; ideal Y^5")
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("buchberger", "normal_form"):
        monkeypatch.setattr(grobner, name, counting(name, getattr(grobner, name)))
    for field in FIELDS:
        R = apolar_algebra(parse_polynomial("w1^3 + w1*w2^2 + w2^3",
                                            PolyRing(field, ("w1", "w2"))), ("Y1", "Y2"))
        S = apolar_algebra(parse_polynomial("v^2", PolyRing(field, ("v",))), ("Z",))
        Q = connected_sum(R, S).algebra
        fibre_product(R, S)
        G = associated_graded(Q)
        iarrobino(Q)
        modulo_socle(Q)
        assert gls_split(G).square_zero_part.edim == 1
        assert structure_decompose(Q).status == "decomposed"
    assert structure_decompose(hidden).status == "decomposed"
    assert structure_decompose(graded_gorenstein).trivial
    assert calls == Counter()
