"""Betti numbers of the residue field and the paper's series identities."""

import pytest

from artinsum import (algebra_from_text, betti_numbers, connected_sum, fibre_product,
                      verify_cs_series, verify_fp_series, verify_mu_formulas)

from corpus import pair_corpus

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
