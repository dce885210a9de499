"""Parser and printer for the presentation source format.

Grammar (whitespace-insensitive, `#` starts a comment running to end of line):

    field  := "field" ("QQ" | "GF(" integer ")") ";"
    vars   := "vars" ident* ";"
    ideal  := "ideal" poly ("," poly)* ";"?
    poly   := signed sum of terms
    term   := coeff? ("*"? ident ("^" integer)?)*

Coefficients are integers or quotients `a/b`; a denominator that is zero in
the field, a multiple of p over GF(p), is a parse error.
"""

from .errors import NonPrimeModulusError, ParseError
from .fields import GF, QQ
from .poly import PolyRing

_SYMBOLS = set(";,*^+-/()")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}:{self.col}"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            start, c0 = i, col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            tokens.append(_Token("int", text[start:i], line, c0))
        elif ch.isalpha() or ch == "_":
            start, c0 = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, c0))
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect_keyword(self, word):
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            raise ParseError(f"expected keyword {word!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    # -- top level -----------------------------------------------------------

    def presentation(self):
        field = self.field_decl()
        names = self.vars_decl()
        ring = PolyRing(field, names)
        return ring, self.end(self.ideal_decl(ring))

    def end(self, value):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return value

    def field_decl(self):
        self.expect_keyword("field")
        field = self.field_name()
        self.expect(";")
        return field

    def field_name(self):
        tok = self.next()
        if tok.kind == "ident" and tok.text == "QQ":
            field = QQ
        elif tok.kind == "ident" and tok.text == "GF":
            self.expect("(")
            ptok = self.expect("int", "a prime modulus")
            self.expect(")")
            try:
                field = GF(int(ptok.text))
            except NonPrimeModulusError as exc:
                raise ParseError(str(exc), ptok.line, ptok.col) from None
        else:
            raise ParseError(f"expected QQ or GF(p), found {tok.text!r}", tok.line, tok.col)
        return field

    def vars_decl(self):
        self.expect_keyword("vars")
        names = self.var_names(empty=True)
        self.expect(";")
        return names

    def var_names(self, empty=False):
        names = []
        while self.peek().kind == "ident" and self.peek().text != "ideal":
            names.append(self.next().text)
        if not names and not empty:
            tok = self.peek()
            raise ParseError("expected at least one variable name", tok.line, tok.col)
        if len(set(names)) != len(names):
            tok = self.peek()
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise ParseError(f"duplicate variable name {name!r}", tok.line, tok.col)
        return names

    def ideal_decl(self, ring):
        self.expect_keyword("ideal")
        gens = [self.polynomial(ring)]
        while self.peek().kind == ",":
            self.next()
            gens.append(self.polynomial(ring))
        if self.peek().kind == ";":
            self.next()
        return [g for g in gens if not g.is_zero()]

    # -- polynomials ----------------------------------------------------------

    def polynomial(self, ring):
        result = ring.zero
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            sign = -1 if tok.kind == "-" else 1
            self.next()
        while True:
            result = result + self.term(ring, sign)
            tok = self.peek()
            if tok.kind == "+":
                sign = 1
            elif tok.kind == "-":
                sign = -1
            else:
                return result
            self.next()

    def term(self, ring, sign):
        coeff = ring.field.one
        exps = [0] * ring.nvars
        saw_factor = False
        while True:
            tok = self.peek()
            if tok.kind == "int":
                self.next()
                value = int(tok.text)
                if self.peek().kind == "/":
                    self.next()
                    den = self.expect("int", "a denominator")
                    # over GF(p) a multiple of p is zero too
                    divisor = ring.field.coerce(int(den.text))
                    if divisor == ring.field.zero:
                        raise ParseError("zero denominator", den.line, den.col)
                    value = ring.field.div(ring.field.coerce(value), divisor)
                coeff = ring.field.mul(coeff, ring.field.coerce(value))
                saw_factor = True
            elif tok.kind == "ident":
                self.next()
                if tok.text not in ring.index:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
                power = 1
                if self.peek().kind == "^":
                    self.next()
                    power = int(self.expect("int", "an exponent").text)
                exps[ring.index[tok.text]] += power
                saw_factor = True
            else:
                break
            if self.peek().kind == "*":
                self.next()
                continue
        if not saw_factor:
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        if sign < 0:
            coeff = ring.field.neg(coeff)
        return ring.monomial(exps, coeff)


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
