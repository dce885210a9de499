"""Presentation grammar: golden cases, error locations, and round trips."""

import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, build_algebra, parse_polynomial, parse_presentation,
                      print_presentation)
from artinsum.errors import ParseError
from artinsum.parse import parse_names

from oracles import parse_polynomial_reference, parse_presentation_reference

GOLDEN = Path(__file__).resolve().parent / "golden"
LANES = [QQ, GF(5), GF(101)]


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_residue_field_presentation_round_trip(field):
    # k on no variables prints `vars ;`, which reads back; so does k presented
    # on a variable that lies in the ideal, which prints the same text
    k = build_algebra(PolyRing(field, []), [])
    text = print_presentation(k.ring, k.gb)
    assert text == f"field {field.name};\nvars ;\nideal 0;\n"
    ring, gens = parse_presentation(text)
    assert ring == k.ring and gens == []
    assert build_algebra(ring, gens).length == 1
    A = build_algebra(*parse_presentation(f"field {field.name}; vars x; ideal x;"))
    assert A.length == 1 and print_presentation(A.ring, A.gb) == text


def test_parse_names_rejects_an_empty_list():
    # the CLI's `--dual-vars` and `--ops` need a variable, where a `vars` declaration does not
    for text in ("", "  "):
        with pytest.raises(ParseError, match="expected at least one variable name"):
            parse_names(text)
    assert parse_names("w1 w2") == ["w1", "w2"]


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


# -- the one-pass parser against the character-at-a-time reference ------------

def _outcome(parse, *args):
    """A parse's polynomials as (monomial, scalar, scalar type) in dict order, or its error text."""
    try:
        result = parse(*args)
    except ParseError as exc:
        return str(exc)
    if isinstance(result, tuple):
        ring, gens = result
        return ring, [_typed_terms(g) for g in gens]
    return _typed_terms(result)


def _typed_terms(poly):
    return [(m, c, type(c)) for m, c in poly.terms.items()]


def _assert_parses_as_reference(text, ring):
    assert _outcome(parse_polynomial, text, ring) == _outcome(parse_polynomial_reference, text, ring)


def _assert_presentation_parses_as_reference(text):
    assert _outcome(parse_presentation, text) == _outcome(parse_presentation_reference, text)


def _workload_text(rng, names, degree):
    """A dual polynomial's text as the benchmark writes it, with a fraction now and then."""
    pieces = []
    for d in range(degree, 1, -1):
        for exps in PolyRing(QQ, names).monomials_of_degree(d):
            c = rng.choice([-3, -2, -1, 1, 2, 3, 5, 42, 100])
            factors = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                               for i, e in enumerate(exps) if e)
            coeff = f"{abs(c)}/{rng.randrange(1, 12)}" if rng.random() < 0.1 else str(abs(c))
            pieces.append(("-" if c < 0 else "+", f"{coeff}*{factors}"))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


@pytest.mark.parametrize("field", LANES, ids=str)
def test_parser_matches_reference_on_seeded_workload_texts(field):
    rng = random.Random(113)
    for names in (("u1",), ("u1", "u2"), ("w1", "w2", "w3")):
        ring = PolyRing(field, names)
        for degree in range(2, 6):
            for _ in range(6):
                text = _workload_text(rng, names, degree)
                _assert_parses_as_reference(text, ring)
                # a space dropped or a character changed keeps the two in step too
                at = rng.randrange(len(text))
                for edit in ("", rng.choice("*^/+- 0x\t\n#")):
                    _assert_parses_as_reference(text[:at] + edit + text[at + 1:], ring)


@pytest.mark.parametrize("lane", ["own", "swapped"])
def test_parser_matches_reference_on_every_golden_presentation(lane):
    for path in sorted(GOLDEN.glob("*.txt")):
        text = path.read_text()
        if lane == "swapped":
            other = "GF(5)" if "field QQ" in text else "QQ"
            text = re.sub(r"field [^;]*;", f"field {other};", text, count=1)
        _assert_presentation_parses_as_reference(text)


_PIECES = st.sampled_from([*"xyzß é0123456789+-*/^(),;#\t\r\n\u00b2\u0663_!",
                           "x^2", "\u00e9", " + ", " - ", "3/4", "1/5", "y*", "GF(5)", "ideal"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=14).map("".join), st.sampled_from(LANES))
def test_parser_matches_reference_on_hypothesis_texts(text, field):
    _assert_parses_as_reference(text, PolyRing(field, ("x", "y", "\u00df", "\u00e9")))
    _assert_presentation_parses_as_reference(
        f"field {field.name};\nvars x y \u00df;\t# declared\nideal {text}")


@pytest.mark.parametrize("text, column, found", [
    ("x* + y", 4, "+"), ("x*-y", 3, "-"), ("2*", 3, "end of input")])
def test_a_star_that_no_factor_follows_is_a_parse_error(text, column, found):
    # `term := factor ("*"? factor)*`: a `*` must be followed by a factor
    ring = PolyRing(QQ, ("x", "y"))
    for parse in (parse_polynomial, parse_polynomial_reference):
        with pytest.raises(ParseError) as err:
            parse(text, ring)
        assert err.value.message == f"expected a factor after '*', found {found!r}"
        assert (err.value.line, err.value.col) == (1, column)
    assert parse_polynomial("2*3x*y^2", ring) == parse_polynomial("6*x*y^2", ring)


@pytest.mark.parametrize("text, message, line, column", [
    # a tab and a carriage return are one column each
    ("field QQ;\r\nvars x;\n\t\rideal z", "unknown variable 'z'", 3, 9),
    ("field QQ; vars x;\nideal x^2,\t# then nothing\n# more\n\tz", "unknown variable 'z'", 4, 2),
    # the end of input after a trailing comment sits where the comment starts
    ("field QQ; vars x;\nideal x^2 +  # no term follows", "expected a term, found 'end of input'",
     2, 14),
    ("field QQ; vars x;\nideal x^2 +", "expected a term, found 'end of input'", 2, 12),
    ("field QQ; vars \u00e9\u00df x\u00b2;\nideal \u00e9^\u0663 + x\u00b2 + \u00b2",
     "unexpected character '\u00b2'", 2, 18),
])
def test_error_positions_count_characters_from_the_line_start(text, message, line, column):
    for parse in (parse_presentation, parse_presentation_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.line, err.value.col) == (message, line, column)


def test_unicode_letters_and_digits_read_as_the_reference_reads_them():
    ring, gens = parse_presentation("field QQ; vars \u00e9 \u00df1; ideal \u00e9^\u0663 - \u00df1^2")
    assert ring.names == ("\u00e9", "\u00df1")
    assert gens[0] == ring.var(0) ** 3 - ring.var(1) ** 2
