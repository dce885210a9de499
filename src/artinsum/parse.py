"""Parser and printer for the presentation source format.

Grammar (whitespace-insensitive, `#` starts a comment running to end of line):

    field  := "field" ("QQ" | "GF(" integer ")") ";"
    vars   := "vars" ident* ";"
    ideal  := "ideal" poly ("," poly)* ";"?
    poly   := signed sum of terms
    term   := factor ("*"? factor)*
    factor := integer ("/" integer)? | ident ("^" integer)?

Coefficients are integers or quotients `a/b`; a denominator that is zero in
the field, a multiple of p over GF(p), is a parse error, and so is a `*`
that no factor follows.  An integer is a run of decimal digits
(`str.isdecimal`), and an identifier a letter or `_` followed by letters,
digits and `_` (`str.isalpha`, `str.isalnum`).

The text is cut into tokens by one compiled pattern, each token a tuple
(integer, identifier, symbol, other) with one nonempty slot, and
(``""``,) * 4 at the end of input.  The parser walks that list by index
and collects a polynomial's terms into one dict, each exponent tuple made
once per term.  A token's line and column are read off the text only when
an error names them: the column counts characters from the start of the
line, tabs and carriage returns as one, and the end of input after a
trailing comment sits where the comment starts.
"""

import re
from itertools import islice

from .errors import NonPrimeModulusError, ParseError
from .fields import GF, QQ
from .poly import Polynomial, PolyRing

# whitespace and comments, then an integer, an ASCII identifier, a symbol,
# or anything else: an identifier that starts outside ASCII (kept when its
# first character is a letter) or an unexpected character
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*"
                    r"(?:(\d+)|([A-Za-z_]\w*)|([;,*^+\-/()])|([^\W\d]\w*|.))?", re.S)
_EOF = ("", "", "", "")


def _tokenize(text):
    """The token tuples of `text`, ending with `_EOF`; an unexpected character raises."""
    tokens = _TOKEN.findall(text)
    for i, (_, _, _, other) in enumerate(tokens):
        if other:
            if not other[0].isalpha():
                raise ParseError(f"unexpected character {other[0]!r}",
                                 *_line_col(text, _offset(text, i)))
            tokens[i] = ("", other, "", "")
    return tokens


def _offset(text, i):
    """Where token i of `text` starts; the end of input after a trailing comment is its `#`."""
    m = next(islice(_TOKEN.finditer(text), i, None), None)
    if m is not None and m.lastindex:
        return m.start(m.lastindex)
    last = text.rfind("\n") + 1
    comment = text.find("#", last)
    return len(text) if comment < 0 else comment


def _line_col(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _kind(tok):
    num, name, sym, _ = tok
    return "int" if num else "ident" if name else sym or "eof"


def _text(tok):
    return "".join(tok)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def fail(self, message, i):
        raise ParseError(message, *_line_col(self.text, _offset(self.text, i)))

    def found(self, what, i):
        self.fail(f"expected {what}, found {_text(self.tokens[i]) or 'end of input'!r}", i)

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, kind, what=None):
        i = self.pos
        self.pos += 1
        if _kind(self.tokens[i]) != kind:
            self.found(what or kind, i)
        return _text(self.tokens[i])

    def expect_keyword(self, word):
        i = self.pos
        self.pos += 1
        if self.tokens[i][1] != word:
            self.found(f"keyword {word!r}", i)

    # -- top level -----------------------------------------------------------

    def presentation(self):
        field = self.field_decl()
        names = self.vars_decl()
        ring = PolyRing(field, names)
        return ring, self.end(self.ideal_decl(ring))

    def end(self, value):
        tok = self.peek()
        if tok != _EOF:
            self.fail(f"trailing input {_text(tok)!r}", self.pos)
        return value

    def field_decl(self):
        self.expect_keyword("field")
        field = self.field_name()
        self.expect(";")
        return field

    def field_name(self):
        i = self.pos
        name = self.tokens[i][1]
        self.pos += 1
        if name == "QQ":
            return QQ
        if name == "GF":
            self.expect("(")
            at = self.pos
            p = int(self.expect("int", "a prime modulus"))
            self.expect(")")
            try:
                return GF(p)
            except NonPrimeModulusError as exc:
                message = str(exc)
            self.fail(message, at)
        self.fail(f"expected QQ or GF(p), found {_text(self.tokens[i])!r}", i)

    def vars_decl(self):
        self.expect_keyword("vars")
        names = self.var_names(empty=True)
        self.expect(";")
        return names

    def var_names(self, empty=False):
        names = []
        while (name := self.peek()[1]) and name != "ideal":
            names.append(name)
            self.pos += 1
        if not names and not empty:
            self.fail("expected at least one variable name", self.pos)
        if len(set(names)) != len(names):
            name = next(n for i, n in enumerate(names) if n in names[:i])
            self.fail(f"duplicate variable name {name!r}", self.pos)
        return names

    def ideal_decl(self, ring):
        self.expect_keyword("ideal")
        gens = [self.polynomial(ring)]
        while self.peek()[2] == ",":
            self.pos += 1
            gens.append(self.polynomial(ring))
        if self.peek()[2] == ";":
            self.pos += 1
        return [g for g in gens if not g.is_zero()]

    # -- polynomials ----------------------------------------------------------

    def polynomial(self, ring):
        """A signed sum of terms, collected into one dict of exponent tuples.

        A term's coefficient is the product of its integers and quotients,
        made a field element once, with its sign; a term that is zero in the
        field adds nothing, and a sum that cancels drops its monomial.
        """
        tokens, i = self.tokens, self.pos
        field, index, n = ring.field, ring.index, ring.nvars
        terms = {}
        sign = tokens[i][2]
        if sign == "+" or sign == "-":
            i += 1
        while True:
            start, coeff, exps = i, 1, [0] * n
            while True:
                num, name, _, _ = tokens[i]
                if num:
                    i += 1
                    value = int(num)
                    if tokens[i][2] == "/":
                        den = tokens[i + 1][0]
                        if not den:
                            self.found("a denominator", i + 1)
                        # over GF(p) a multiple of p is zero too
                        divisor = field.coerce(int(den))
                        if not divisor:
                            self.fail("zero denominator", i + 1)
                        value = field.div(field.coerce(value), divisor)
                        i += 2
                    coeff = coeff * value
                elif name:
                    v = index.get(name)
                    if v is None:
                        self.fail(f"unknown variable {name!r}", i)
                    i += 1
                    if tokens[i][2] == "^":
                        power = tokens[i + 1][0]
                        if not power:
                            self.found("an exponent", i + 1)
                        exps[v] += int(power)
                        i += 2
                    else:
                        exps[v] += 1
                else:
                    break
                if tokens[i][2] == "*":
                    i += 1
                    if not (tokens[i][0] or tokens[i][1]):
                        self.found("a factor after '*'", i)
            if i == start:
                self.found("a term", i)
            c = field.coerce(-coeff if sign == "-" else coeff)
            mono = tuple(exps)
            if mono in terms:
                c = field.add(terms[mono], c)
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
            elif c:
                terms[mono] = c
            sign = tokens[i][2]
            if sign != "+" and sign != "-":
                self.pos = i
                return Polynomial(ring, terms)
            i += 1


def parse_presentation(text):
    """Parse a presentation source into (ring, generator list)."""
    return _Parser(text).presentation()


def parse_polynomial(text, ring):
    """Parse a single polynomial expression in an existing ring."""
    parser = _Parser(text)
    return parser.end(parser.polynomial(ring))


def parse_field(text):
    """Parse a field name, QQ or GF(p), as the `field` declaration spells it."""
    parser = _Parser(text)
    return parser.end(parser.field_name())


def parse_names(text):
    """Parse variable names, as the `vars` declaration lists them, but at least one."""
    parser = _Parser(text)
    return parser.end(parser.var_names())


def print_presentation(ring, generators):
    """Canonical source text; parsing it returns equal ring and generators."""
    lines = [f"field {ring.field.name};", f"vars {' '.join(ring.names)};"]
    if generators:
        body = ",\n  ".join(str(g) for g in generators)
        lines.append(f"ideal\n  {body};")
    else:
        lines.append("ideal 0;")
    return "\n".join(lines) + "\n"
