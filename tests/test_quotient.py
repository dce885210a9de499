"""Artinian quotient construction, invariants, and annihilator machinery."""

import random

import numpy as np
import pytest

from artinsum import (GF, QQ, algebra_from_text, build_algebra, parse_polynomial,
                      parse_presentation)
from artinsum.errors import (NotAnIdealError, NotLocalError,
                             NotZeroDimensionalError, UnitIdealError)
from artinsum import quotient
from artinsum.grobner import IdealPresentation, normal_form


STRETCHED = "field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3"


def test_monomial_quotient():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert A.basis == ((0,), (1,), (2,))
    assert A.length == 3


def test_stretched_basis():
    A = algebra_from_text(STRETCHED)
    assert A.length == 5
    assert set(A.basis) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}


def test_square_zero():
    A = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert A.length == 3


def test_length_cross_check():
    # length of the sum of two cubics: 3 + 3 - 2
    A = algebra_from_text("field QQ; vars Y Z; ideal Y*Z, Y^2-Z^2")
    assert A.length == 4


def test_socle_examples():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert [str(p) for p in A.socle().lifts()] == ["Y^2"]
    B = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert B.type == 2
    assert {str(p) for p in B.socle().lifts()} == {"Y", "Z"}
    C = algebra_from_text(STRETCHED)
    assert C.type == 1
    # y*z = 0 but z*z = y^3 is nonzero, so z is not in the socle
    z = C.vector(C.ring.var(1))
    assert not C.socle().contains(z)


def test_loewy_edim_type_gorenstein():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert (A.loewy_length, A.edim, A.type, A.is_gorenstein()) == (2, 1, 1, True)
    B = algebra_from_text(STRETCHED)
    assert (B.loewy_length, B.edim, B.type, B.is_gorenstein()) == (3, 2, 1, True)
    C = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert (C.loewy_length, C.edim, C.type, C.is_gorenstein()) == (1, 2, 2, False)


def test_hilbert_functions():
    assert algebra_from_text(STRETCHED).hilbert_function() == (1, 2, 1, 1)
    big = algebra_from_text(
        "field QQ; vars Y1 Y2 Z; ideal Y1*Z, Y2*Z, Y1^2*Y2, Y2^2, Y1^4-Z^4")
    assert big.hilbert_function() == (1, 3, 3, 2, 1)
    assert big.length == 10
    small = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert small.hilbert_function() == (1, 2)


def test_hilbert_invariants():
    for text in [STRETCHED, "field QQ; vars Y; ideal Y^4",
                 "field GF(101); vars Y Z; ideal Y^2-Z^3, Y*Z^2"]:
        A = algebra_from_text(text)
        H = A.hilbert_function()
        assert sum(H) == A.length
        assert H[0] == 1
        assert H[1] == A.edim
        assert H[A.loewy_length] >= 1


def test_annihilator_examples():
    A = algebra_from_text(STRETCHED)
    ann2, is_ideal = A.annihilator(list(A.power(2).rows))
    assert ann2.dim == 3 and is_ideal
    lifts = {str(p) for p in ann2.lifts()}
    assert lifts == {"Z", "Y^2", "Z^2"}   # z, y^2, and y^3 = z^2
    z = A.vector(A.ring.var(1))
    annz, is_ideal = A.annihilator([z])
    assert is_ideal and annz.dim == 3
    assert {str(p) for p in annz.lifts()} == {"Y", "Y^2", "Z^2"}
    one = A.one_vector()
    ann1, _ = A.annihilator([one])
    assert ann1.dim == 0


def test_minimal_generators():
    A = algebra_from_text(STRETCHED)
    mu, _ = A.minimal_generators(A.power(1))
    assert mu == 2
    z = A.vector(A.ring.var(1))
    J = A.ideal_span([z])
    mu_j, reps = A.minimal_generators(J)
    assert mu_j == 1
    B = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    mu_soc, _ = B.minimal_generators(B.socle())
    assert mu_soc == 2


def test_minimal_generators_rejects_non_ideal():
    A = algebra_from_text(STRETCHED)
    y2 = A.vector(A.ring.var(0) ** 2)
    # span{y^2} alone is not an ideal here (misses y^3)
    W = A.subspace([y2])
    assert not W.is_ideal()
    with pytest.raises(NotAnIdealError):
        A.minimal_generators(W)


def test_gorenstein_duality_random_ideals():
    rng = random.Random(5)
    A = algebra_from_text("field GF(101); vars Y Z; ideal Y*Z, Z^2-Y^3")
    for _ in range(20):
        vec = np.array([rng.randrange(101) for _ in range(A.length)], dtype=np.int64)
        vec[0] = 0  # stay inside m
        if not vec.any():
            continue
        W = A.ideal_span([vec])
        ann = A.annihilator_of_subspace(W)
        assert ann.dim == A.length - W.dim
        again = A.annihilator_of_subspace(ann)
        assert again == W


def test_multiplication_oracle():
    A = algebra_from_text(STRETCHED)
    gb = list(A.pres.groebner_basis())
    for i, bi in enumerate(A.basis):
        for j, bj in enumerate(A.basis):
            prod = A.ring.monomial(bi, 1) * A.ring.monomial(bj, 1)
            expected = normal_form(prod, gb)
            ei = np.zeros(A.length, dtype=object)
            ei[:] = [A.field.zero] * A.length
            ei[i] = A.field.one
            got = A.lift(A.multiply(ei, A.vector(A.ring.monomial(bj, 1))))
            assert got == expected


def test_minimalization_linear_relation():
    A = algebra_from_text("field QQ; vars Y Z; ideal Y-Z^2, Z^3")
    assert A.ring.names == ("Z",)
    assert A.length == 3
    assert A.edim == 1


def test_minimalization_preserves_invariants():
    # Y + Z^2 + Z^3 can be eliminated; quotient is k[Z]/(Z^4)
    A = algebra_from_text("field QQ; vars Y Z; ideal Y+Z^2+Z^3, Z^4")
    assert A.length == 4
    B = algebra_from_text("field QQ; vars Z; ideal Z^4")
    assert A.hilbert_function() == B.hilbert_function()
    # classes can still be taken of polynomials in the original ring
    ring, _ = parse_presentation("field QQ; vars Y Z; ideal Y")
    y = ring.var(0)
    lifted = A.lift(A.vector(y))
    assert lifted == parse_polynomial("-Z^2-Z^3", A.ring)
    # format_polynomial lists terms decreasing under the ring's order
    assert str(lifted) == "-Z^3 - Z^2"


def test_nilpotency_bound_taken_once_per_presentation(monkeypatch):
    seen = []
    original = quotient._nilpotency_bound

    def recording(pres, length):
        seen.append(pres.ring.names)
        return original(pres, length)

    monkeypatch.setattr(quotient, "_nilpotency_bound", recording)
    # two linear eliminations (Y, then X) leave k[Z]/(Z^5)
    A = algebra_from_text("field QQ; vars X Y Z; ideal Y - Z^2, X - Z^3, Z^5")
    assert (A.ring.names, A.length) == (("Z",), 5)
    assert seen == [("X", "Y", "Z"), ("X", "Z")]


def test_unit_ideal_rejected():
    with pytest.raises(UnitIdealError):
        algebra_from_text("field QQ; vars Y; ideal Y, Y-1")


def test_not_zero_dimensional_rejected():
    with pytest.raises(NotZeroDimensionalError):
        algebra_from_text("field QQ; vars Y Z; ideal Y*Z")


def test_not_local_rejected():
    with pytest.raises(NotLocalError):
        algebra_from_text("field QQ; vars Y; ideal Y^2-Y")


def test_zero_variable_algebra():
    from artinsum.quotient import residue_field_algebra
    k = residue_field_algebra(QQ)
    assert k.length == 1
    assert k.loewy_length == 0
    assert k.is_gorenstein()
