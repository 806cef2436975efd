"""Parse and pretty-print superpolynomial expressions and ring declarations.

Grammar (whitespace insensitive):

    ring  := (('even' | 'odd') ident ['inv'] ';')*
    expr  := term (('+' | '-') term)*
    term  := factor ('*' factor)*
    factor:= atom ['^' ['-'] int]
    atom  := rational | ident | '(' expr ')' | '-' atom

Rational literals are integers or "p/q".  Implicit multiplication is not
supported.  Parsing then printing then parsing is the identity on normal
forms.  One regex scan splits a text into tokens; an error finds its
token's offset, line and column again only when raised.  A term is one
flat product: the monomial terms of a sum go to one
`SuperPoly.from_products` call and only other factors are multiplied.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DuplicateVariable,
    ExprSyntaxError,
    NegativePowerOfNonInvertible,
    NotAUnit,
    UnknownVariable,
)
from .localized import LocalizedPoly
from .ring import Parity, SuperPoly, VarSymbol, _product_text

_MAX_DEPTH = 400


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
        """These variables and then the new ones of other; a name other
        binds to a different symbol raises DuplicateVariable."""
        out = RingDecl(self.variables)
        for v in other.variables:
            if out._by_name.get(v.name) is not v:
                out.add(v)
        return out


# ---------------------------------------------------------------------------
# Tokenizer

# A token is an ASCII integer, an identifier or one punctuation character;
# every other character outside whitespace is an error.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
_BAD = re.compile(r"[^\s0-9A-Za-z_+\-*^()/;]")


def _kind(tok: str) -> str:
    """The kind a message names: 'int', 'ident', 'eof' or the character."""
    return ("int" if tok.isdigit() else "ident" if tok.isidentifier()
            else tok or "eof")


def _error(message: str, text: str, offset: int) -> ExprSyntaxError:
    """The error at a character offset: line and column count from 1."""
    line = text.count("\n", 0, offset) + 1
    return ExprSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


class _Stream:
    """A text's tokens as strings, ending in "" (eof); no offsets kept."""

    def __init__(self, text: str):
        bad = _BAD.search(text)
        if bad:
            raise _error(f"unexpected character {bad.group()!r}", text,
                         bad.start())
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.pos = 0

    def error(self, message: str, back: int = 0) -> ExprSyntaxError:
        """A syntax error at the next token, or `back` tokens before it."""
        offsets = [m.start() for m in _TOKEN.finditer(self.text)]
        offsets.append(len(self.text))
        return _error(message, self.text, offsets[self.pos - back])

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, tok: str) -> bool:
        """Consume the next token when it is tok."""
        if self.tokens[self.pos] != tok:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        found = _kind(self.tokens[self.pos])
        if found != kind:
            raise self.error(f"expected {kind!r}, found {found!r}")
        return self.next()


# ---------------------------------------------------------------------------
# Ring declarations


def parse_ring(text: str) -> RingDecl:
    stream = _Stream(text)
    ring = RingDecl()
    while stream.peek():
        tok = stream.expect("ident")
        if tok not in ("even", "odd"):
            raise stream.error(f"expected 'even' or 'odd', found {tok!r}", 1)
        parity = Parity.EVEN if tok == "even" else Parity.ODD
        name = stream.expect("ident")
        invertible = stream.accept("inv")
        stream.expect(";")
        ring.add(VarSymbol(name, parity, invertible))
    return ring


# ---------------------------------------------------------------------------
# Expressions: AST build and evaluation
#
# A node is an int or Fraction (a rational literal), a str (a variable
# name), ("neg", node), ("^", node, int), ("*", [factor nodes]) for a
# term, or ("+", [(sign, term node)]) with sign 1 or -1 for a sum.


def _parse_expr(stream, depth):
    if depth > _MAX_DEPTH:
        raise stream.error("expression nested too deeply")
    items = [(1, _parse_term(stream, depth + 1))]
    while stream.peek() in ("+", "-"):
        sign = -1 if stream.next() == "-" else 1
        items.append((sign, _parse_term(stream, depth + 1)))
    return items[0][1] if len(items) == 1 else ("+", items)


def _parse_term(stream, depth):
    """Every factor of a term, in one flat product node."""
    factors = []
    while True:
        node = _parse_atom(stream, depth + 2)
        if stream.accept("^"):
            sign = -1 if stream.accept("-") else 1
            node = ("^", node, sign * int(stream.expect("int")))
        factors.append(node)
        if not stream.accept("*"):
            return ("*", factors)


def _parse_atom(stream, depth):
    if depth > _MAX_DEPTH:
        raise stream.error("expression nested too deeply")
    tok = stream.peek()
    if tok.isdigit():
        stream.next()
        if not stream.accept("/"):
            return int(tok)
        den = int(stream.expect("int"))
        if not den:
            raise stream.error("zero denominator in rational literal", 1)
        return Fraction(int(tok), den)
    if tok.isidentifier():
        return stream.next()
    if stream.accept("("):
        node = _parse_expr(stream, depth + 1)
        stream.expect(")")
        return node
    if stream.accept("-"):
        return ("neg", _parse_atom(stream, depth + 1))
    raise stream.error(
        f"expected a rational, identifier or '(', found {_kind(tok)!r}")


def _parse_to_ast(text: str):
    stream = _Stream(text)
    if not stream.peek():
        raise stream.error("empty expression")
    node = _parse_expr(stream, 0)
    if stream.peek():
        raise stream.error(f"trailing input {_kind(stream.peek())!r}")
    return node


def _product(factors, ring: RingDecl, kind, coeff=1):
    """The product of a term's factors in their written order.  A run of
    monomial factors (a rational, a variable, an even variable to a power
    >= 0, an invertible one to any power) is one (coefficient, [(variable,
    exponent)]) pair, returned as it is when it is the whole term; other
    factors are evaluated and multiplied in place, giving a value of kind.
    A minus sign in front of a factor only negates the coefficient."""
    run, value = [], None
    for f in factors:
        while type(f) is tuple and f[0] == "neg":
            coeff, f = -coeff, f[1]
        if type(f) is str:
            run.append((ring.lookup(f), 1))
            continue
        if type(f) is not tuple:
            coeff *= f
            continue
        if f[0] == "^" and type(f[1]) is str:
            var, n = ring.lookup(f[1]), f[2]
            if var.parity is Parity.EVEN and (n >= 0 or var.invertible):
                run.append((var, n))
                continue
        factor = _eval(f, ring, kind)
        if run or coeff != 1:
            factor = _monomial(coeff, run, kind) * factor
        value = factor if value is None else value * factor
        coeff, run = 1, []
    if value is None:
        return coeff, run
    if run or coeff != 1:
        value = value * _monomial(coeff, run, kind)
    return value


def _monomial(coeff, run, kind):
    return kind.promote(SuperPoly.from_products([(coeff, run)]))


def _eval(node, ring: RingDecl, kind):
    """Evaluate an AST to a value of kind, SuperPoly or LocalizedPoly.  The
    monomial terms of a sum are built at once by SuperPoly.from_products."""
    if type(node) is not tuple:
        return kind.promote(ring.lookup(node) if type(node) is str else node)
    tag = node[0]
    if tag == "neg":
        return -_eval(node[1], ring, kind)
    if tag == "^":
        return _eval(node[1], ring, kind) ** node[2]
    pairs, values = [], []
    for sign, term in node[1] if tag == "+" else [(1, node)]:
        got = _product(term[1], ring, kind, sign)
        (pairs if type(got) is tuple else values).append(got)
    value = kind.promote(SuperPoly.from_products(pairs))
    return kind.sum([value, *values]) if values else value


def parse_poly(text: str, ring: RingDecl) -> SuperPoly:
    try:
        return _eval(_parse_to_ast(text), ring, SuperPoly)
    except NotAUnit as exc:
        raise NegativePowerOfNonInvertible(str(exc)) from exc


def parse_localized(text: str, ring: RingDecl) -> LocalizedPoly:
    """Like parse_poly but evaluates in the localized ring: a negative
    power is a power of `LocalizedPoly.reciprocal` of its base, whose
    body with its loci cancelled must be a unit times distinct loci, as
    `LocalizedPoly.reciprocal` says (NotAUnit otherwise)."""
    return _eval(_parse_to_ast(text), ring, LocalizedPoly)


# ---------------------------------------------------------------------------
# Pretty printing


def pretty(p: SuperPoly) -> str:
    """Deterministic textual form; parse_poly(pretty(p)) == p.

    Terms are sorted by their exponent vectors over the variable names in
    reverse order, each monomial's factors written in name order."""
    if p.is_zero():
        return "0"
    terms = p.named_terms()
    names = sorted({v.name for factors, _ in terms for v, _ in factors},
                   reverse=True)
    slot = {name: i for i, name in enumerate(names)}

    def term_key(term):
        key = [0] * len(names)
        for v, e in term[0]:
            key[slot[v.name]] = e
        return key

    chunks = []
    for i, (factors, coeff) in enumerate(sorted(terms, key=term_key,
                                                reverse=True)):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = _product_text(factors)
            # After a leading unary minus, '^' would bind before the sign;
            # "- 1*x^2" keeps the minus attached to the rational atom.
            if i == 0 and negative and factors[0][1] != 1:
                body = f"1*{body}"
        else:
            body = f"{mag}*{_product_text(factors)}"
        if i == 0:
            chunks.append(f"- {body}" if negative else body)
        else:
            chunks.append(f"{'-' if negative else '+'} {body}")
    return " ".join(chunks)


def pretty_localized(f) -> str:
    """(num) * (L)^-e for each locus L, in the order of their texts;
    parse_localized reads it back."""
    f = LocalizedPoly.promote(f)
    if f.is_polynomial():
        return pretty(f.num)
    loci = sorted((pretty(locus.poly), e) for locus, e in f.loci.items())
    return " * ".join([f"({pretty(f.num)})"]
                      + [f"({text})^-{e}" for text, e in loci])
