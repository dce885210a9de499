"""Presentation grammar: golden cases, error locations, and round trips."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsum import GF, QQ, PolyRing, parse_polynomial, parse_presentation, print_presentation
from artinsum.errors import ParseError


def test_basic_presentation():
    ring, gens = parse_presentation("field QQ; vars Y Z; ideal Y*Z, Y^2-Z^2")
    assert ring.field == QQ
    assert ring.names == ("Y", "Z")
    assert len(gens) == 2


def test_three_variable_example():
    ring, gens = parse_presentation(
        "field QQ; vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2, Z1^2")
    assert ring.names == ("Y1", "Z1", "Z2")
    assert len(gens) == 3
    assert gens[0] == (ring.var(0) * ring.var(1) - ring.var(2) ** 2)


def test_prime_field_presentation():
    ring, gens = parse_presentation("field GF(7); vars X; ideal X^3")
    assert ring.field == GF(7)
    assert len(gens) == 1


def test_comments_and_whitespace():
    text = """
    # a comment
    field QQ;   # trailing comment
    vars Y   Z;
    ideal
      Y*Z,     # generators may span lines
      Y^2 - Z^2;
    """
    ring, gens = parse_presentation(text)
    assert len(gens) == 2


def test_juxtaposition_and_fractions():
    ring, gens = parse_presentation("field QQ; vars Y Z; ideal 2Y^2 - 1/2 Z")
    y, z = ring.gens()
    assert gens[0] == (y * y).scale(2) + z.scale(QQ.coerce("-1/2"))


def test_syntax_error_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("field QQ;\nvars Y;\nideal Y^^2;")
    assert err.value.line == 3


def test_parse_error_survives_pickling():
    # a worker process of `analyze --jobs` hands its error back by pickle
    with pytest.raises(ParseError) as err:
        parse_presentation("field QQ;\nvars Y;\nideal Y^^2;")
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is ParseError
    assert (back.line, back.col, str(back)) == (err.value.line, err.value.col, str(err.value))


@pytest.mark.parametrize("coefficient", ["1/5", "3/10", "2/0"])
def test_a_denominator_that_is_zero_in_the_field_is_a_parse_error(coefficient):
    # over GF(5) a multiple of 5 is zero; the error points at the denominator
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_presentation(f"field GF(5);\nvars X;\nideal X^3 + {coefficient}*X^2")
    assert (err.value.line, err.value.col) == (3, 15)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial(f"{coefficient}*X", PolyRing(GF(5), ["X"]))


def test_a_denominator_that_is_a_unit_mod_p_divides():
    ring = PolyRing(GF(7), ["X"])
    assert parse_polynomial("3/10*X", ring) == ring.var(0)


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_presentation("field QQ; vars Y; ideal Y*Z")


def test_non_prime_modulus():
    with pytest.raises(ParseError, match="not prime"):
        parse_presentation("field GF(10); vars Y; ideal Y^2")


def test_zero_generators_dropped():
    _, gens = parse_presentation("field QQ; vars Y; ideal 0, Y^2")
    assert len(gens) == 1


def test_print_parse_round_trip_golden():
    ring, gens = parse_presentation("field QQ; vars Y Z; ideal Y*Z, -Y^2 + 1/3 Z^2")
    text = print_presentation(ring, gens)
    ring2, gens2 = parse_presentation(text)
    assert ring2 == ring and gens2 == gens


def _poly_strategy(field):
    coeff = st.integers(-9, 9) if field.char == 0 else st.integers(0, field.char - 1)
    mono = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    ring = PolyRing(field, ("Y1", "Z1", "Z2"))
    return st.dictionaries(mono, coeff, min_size=0, max_size=6).map(ring.poly)


@settings(max_examples=120)
@given(_poly_strategy(QQ))
def test_round_trip_rational(p):
    if p.is_zero():
        return
    assert parse_polynomial(str(p), p.ring) == p


@settings(max_examples=120)
@given(_poly_strategy(GF(101)))
def test_round_trip_prime_field(p):
    ring, gens = p.ring, [p]
    text = print_presentation(ring, [g for g in gens if not g.is_zero()])
    ring2, gens2 = parse_presentation(text)
    assert ring2 == ring
    assert gens2 == [g for g in gens if not g.is_zero()]
