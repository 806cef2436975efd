"""Parse and pretty-print superpolynomial expressions and ring declarations.

Grammar (whitespace insensitive):

    ring  := (('even' | 'odd') ident ['inv'] ';')*
    expr  := term (('+' | '-') term)*
    term  := factor ('*' factor)*
    factor:= atom ['^' ['-'] int]
    atom  := rational | ident | '(' expr ')' | '-' atom

Rational literals are integers or "p/q".  Implicit multiplication is not
supported.  Parsing then printing then parsing is the identity on normal
forms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DuplicateVariable,
    ExprSyntaxError,
    NegativePowerOfNonInvertible,
    NotAUnit,
    UnknownVariable,
)
from .localized import LocalizedPoly
from .ring import Parity, SuperPoly, VarSymbol

_MAX_DEPTH = 400
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


class RingDecl:
    """Ordered variable declarations; the symbol table for parsing."""

    def __init__(self, variables=()):
        self.variables = []
        self._by_name = {}
        for v in variables:
            self.add(v)

    def add(self, var: VarSymbol) -> VarSymbol:
        if var.name in self._by_name:
            raise DuplicateVariable(f"variable {var.name!r} declared twice")
        self.variables.append(var)
        self._by_name[var.name] = var
        return var

    def lookup(self, name: str) -> VarSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.variables)

    def merged(self, other: "RingDecl") -> "RingDecl":
        out = RingDecl(self.variables)
        for v in other.variables:
            if v.name not in out._by_name:
                out.add(v)
        return out


# ---------------------------------------------------------------------------
# Tokenizer


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/;":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.kind!r}", tok.line, tok.column
            )
        return self.next()


# ---------------------------------------------------------------------------
# Ring declarations


def parse_ring(text: str) -> RingDecl:
    stream = _Stream(_tokenize(text))
    ring = RingDecl()
    while stream.peek().kind != "eof":
        tok = stream.expect("ident")
        if tok.value not in ("even", "odd"):
            raise ExprSyntaxError(
                f"expected 'even' or 'odd', found {tok.value!r}",
                tok.line,
                tok.column,
            )
        parity = Parity.EVEN if tok.value == "even" else Parity.ODD
        name_tok = stream.expect("ident")
        invertible = False
        if stream.peek().kind == "ident" and stream.peek().value == "inv":
            stream.next()
            invertible = True
        stream.expect(";")
        ring.add(VarSymbol(name_tok.value, parity, invertible))
    return ring


# ---------------------------------------------------------------------------
# Expressions: AST build and evaluation


def _parse_expr(stream, depth):
    if depth > _MAX_DEPTH:
        tok = stream.peek()
        raise ExprSyntaxError("expression nested too deeply", tok.line, tok.column)
    items = [("+", _parse_term(stream, depth + 1))]
    while stream.peek().kind in ("+", "-"):
        op = stream.next().kind
        items.append((op, _parse_term(stream, depth + 1)))
    return items[0][1] if len(items) == 1 else ("sum", items)


def _parse_term(stream, depth):
    node = _parse_factor(stream, depth + 1)
    while stream.peek().kind == "*":
        stream.next()
        rhs = _parse_factor(stream, depth + 1)
        node = ("*", node, rhs)
    return node


def _parse_factor(stream, depth):
    node = _parse_atom(stream, depth + 1)
    if stream.peek().kind == "^":
        stream.next()
        sign = 1
        if stream.peek().kind == "-":
            stream.next()
            sign = -1
        tok = stream.expect("int")
        node = ("^", node, sign * tok.value)
    return node


def _parse_atom(stream, depth):
    if depth > _MAX_DEPTH:
        tok = stream.peek()
        raise ExprSyntaxError("expression nested too deeply", tok.line, tok.column)
    tok = stream.peek()
    if tok.kind == "int":
        stream.next()
        if stream.peek().kind == "/":
            stream.next()
            den_tok = stream.expect("int")
            if den_tok.value == 0:
                raise ExprSyntaxError(
                    "zero denominator in rational literal",
                    den_tok.line,
                    den_tok.column,
                )
            return ("rat", Fraction(tok.value, den_tok.value))
        return ("rat", Fraction(tok.value))
    if tok.kind == "ident":
        stream.next()
        return ("var", tok.value, tok.line, tok.column)
    if tok.kind == "(":
        stream.next()
        node = _parse_expr(stream, depth + 1)
        stream.expect(")")
        return node
    if tok.kind == "-":
        stream.next()
        return ("neg", _parse_atom(stream, depth + 1))
    raise ExprSyntaxError(
        f"expected a rational, identifier or '(', found {tok.kind!r}",
        tok.line,
        tok.column,
    )


def _parse_to_ast(text: str):
    stream = _Stream(_tokenize(text))
    tok = stream.peek()
    if tok.kind == "eof":
        raise ExprSyntaxError("empty expression", tok.line, tok.column)
    node = _parse_expr(stream, 0)
    tok = stream.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(f"trailing input {tok.kind!r}", tok.line, tok.column)
    return node


def _var_power(node, ring: RingDecl):
    """A power of an even variable as one monomial, when it is one."""
    if node[1][0] != "var":
        return None
    var, n = ring.lookup(node[1][1]), node[2]
    if var.parity is Parity.EVEN and (n >= 0 or var.invertible):
        return SuperPoly.var(var, n)
    return None


def _eval(node, ring: RingDecl, kind):
    """Evaluate an AST to a value of kind, SuperPoly or LocalizedPoly."""
    tag = node[0]
    if tag == "rat":
        return kind.promote(node[1])
    if tag == "var":
        return kind.promote(ring.lookup(node[1]))
    if tag == "neg":
        return -_eval(node[1], ring, kind)
    if tag == "sum":
        return kind.sum(_eval(sub, ring, kind) if op == "+"
                        else -_eval(sub, ring, kind) for op, sub in node[1])
    if tag == "*":
        return _eval(node[1], ring, kind) * _eval(node[2], ring, kind)
    power = _var_power(node, ring)
    if power is not None:
        return kind.promote(power)
    return _eval(node[1], ring, kind) ** node[2]


def parse_poly(text: str, ring: RingDecl) -> SuperPoly:
    try:
        return _eval(_parse_to_ast(text), ring, SuperPoly)
    except NotAUnit as exc:
        raise NegativePowerOfNonInvertible(str(exc)) from exc


def parse_localized(text: str, ring: RingDecl) -> LocalizedPoly:
    """Like parse_poly but evaluates in the localized ring: the base of a
    negative power of a parenthesized sum is read as a unit times a
    locus (NotAUnit when it is not one)."""
    return _eval(_parse_to_ast(text), ring, LocalizedPoly)


# ---------------------------------------------------------------------------
# Pretty printing


def _format_monomial(factors) -> str:
    return "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in factors)


def pretty(p: SuperPoly) -> str:
    """Deterministic textual form; parse_poly(pretty(p)) == p.

    Terms are sorted by their exponent vectors over the variable names in
    reverse order, each monomial's factors written in name order."""
    if p.is_zero():
        return "0"
    terms = p.named_terms()
    names = sorted({v.name for factors, _ in terms for v, _ in factors},
                   reverse=True)

    def term_key(term):
        exps = {v.name: e for v, e in term[0]}
        return tuple(exps.get(nm, 0) for nm in names)

    chunks = []
    for i, (factors, coeff) in enumerate(sorted(terms, key=term_key,
                                                reverse=True)):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if not factors:
            body = _format_rational(mag)
        elif mag == 1:
            body = _format_monomial(factors)
            # After a leading unary minus, '^' would bind before the sign;
            # "- 1*x^2" keeps the minus attached to the rational atom.
            if i == 0 and negative and factors[0][1] != 1:
                body = f"1*{body}"
        else:
            body = f"{_format_rational(mag)}*{_format_monomial(factors)}"
        if i == 0:
            chunks.append(f"- {body}" if negative else body)
        else:
            chunks.append(f"{'-' if negative else '+'} {body}")
    return " ".join(chunks)


def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def pretty_localized(f) -> str:
    """(num) * (L)^-e for each locus L, in the order of their texts;
    parse_localized reads it back."""
    f = LocalizedPoly.promote(f)
    if f.is_polynomial():
        return pretty(f.num)
    loci = sorted((pretty(locus.poly), e) for locus, e in f.loci.items())
    return " * ".join([f"({pretty(f.num)})"]
                      + [f"({text})^-{e}" for text, e in loci])
