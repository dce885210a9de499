"""Scalar, monomial-order, and polynomial arithmetic checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsum import GF, QQ, Grevlex, PolyRing
from artinsum.errors import NonPrimeModulusError, RingMismatchError
from artinsum.poly import Polynomial

from oracles import Block, Lex, substitute


def ring_qq(*names):
    return PolyRing(QQ, names)


# -- scalars -----------------------------------------------------------------

def test_rational_scalars_exact():
    assert QQ.coerce(2) / QQ.coerce(3) == Fraction(2, 3)
    assert QQ.inv(Fraction(-7, 3)) == Fraction(-3, 7)


def test_prime_field_canonical():
    k = GF(7)
    assert k.coerce(-1) == 6
    assert k.mul(3, 5) == 1
    assert k.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        k.inv(0)


def test_non_prime_modulus_rejected():
    with pytest.raises(NonPrimeModulusError):
        GF(6)
    with pytest.raises(NonPrimeModulusError):
        GF(1)
    # 1048583 is the first prime above MAX_PRIME = 2**20
    with pytest.raises(NonPrimeModulusError):
        GF(1048583)


# -- term orders ---------------------------------------------------------------

def test_grevlex_tiebreak():
    # Y^2 > Y*Z > Z^2 under grevlex with Y declared before Z
    key = Grevlex().key
    assert key((2, 0)) > key((1, 1)) > key((0, 2))


def test_block_eliminates_front():
    # Y exceeds any monomial in the back block alone
    order = Block((0,), (1, 2))
    assert order.key((1, 0, 0)) > order.key((0, 2, 3))


def test_lex_order():
    assert Lex().key((1, 0)) > Lex().key((0, 5))


monomials = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)


@settings(max_examples=200)
@given(monomials, monomials, monomials)
@pytest.mark.parametrize("order", [Grevlex(), Lex(), Block((0,), (1, 2)),
                                   Block((0, 2), (1,))])
def test_order_axioms(order, a, b, c):
    ka, kb = order.key(a), order.key(b)
    # total and antisymmetric
    assert (ka < kb) + (ka > kb) + (ka == kb) == 1
    # transitive via key comparison is inherited from tuple order; check
    # compatibility with multiplication and minimality of 1
    w = tuple(x + y for x, y in zip(a, c))
    v = tuple(x + y for x, y in zip(b, c))
    if ka < kb:
        assert order.key(w) < order.key(v)
    assert order.key((0, 0, 0)) <= ka


# -- polynomial arithmetic -----------------------------------------------------

def test_addition_cancels():
    R = ring_qq("Y", "Z")
    y, z = R.gens()
    assert (y + z) + (-z) == y


def test_difference_of_squares():
    R = ring_qq("Y", "Z")
    y, z = R.gens()
    assert (y + z) * (y - z) == y * y - z * z


def test_characteristic_kills_multiples():
    R = PolyRing(GF(3), ("Y",))
    y = R.var(0)
    assert (y * y).scale(3).is_zero()


def test_ring_mismatch_raises():
    a = ring_qq("Y").var(0)
    b = ring_qq("Z").var(0)
    with pytest.raises(RingMismatchError):
        a + b


def random_polys(field):
    coeff = st.integers(min_value=-4, max_value=4)
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(mono, coeff, max_size=5).map(
        lambda d: PolyRing(field, ("Y", "Z")).poly(d))


@settings(max_examples=150)
@given(random_polys(QQ), random_polys(QQ), random_polys(QQ))
def test_ring_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150)
@given(random_polys(GF(7)), random_polys(GF(7)), random_polys(GF(7)))
def test_ring_axioms_prime_field(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_leading_term_and_monic():
    R = ring_qq("Y", "Z")
    y, z = R.gens()
    p = z * z - y * y * y  # lead is Y^3 under grevlex (higher degree)
    mono, coeff = p.leading()
    assert mono == (3, 0) and coeff == Fraction(-1)
    assert p.monic().leading()[1] == 1


def test_derivative():
    R = ring_qq("Y", "Z")
    y, z = R.gens()
    p = y ** 3 + z ** 2
    assert p.derivative(0) == (y * y).scale(3)
    assert p.derivative(1) == z.scale(2)


def test_compose_and_substitute():
    R = ring_qq("Y", "Z")
    y, z = R.gens()
    p = y * y - z
    assert substitute(p, {1: y * y}) == R.zero
    S = ring_qq("U")
    u = S.var(0)
    assert p.compose(S, [u, u * u]) == S.zero
