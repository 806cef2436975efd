"""Parse and pretty-print superpolynomial expressions and ring declarations.

Grammar (whitespace insensitive):

    ring  := (('even' | 'odd') ident ['inv'] ';')*
    expr  := term (('+' | '-') term)*
    term  := factor ('*' factor)*
    factor:= atom ['^' ['-'] int]
    atom  := rational | ident | '(' expr ')' | '-' atom

Rational literals are integers or "p/q"; a literal of more digits than
int() reads (sys.get_int_max_str_digits()) is a syntax error at its
first digit.  Implicit multiplication is not supported.  Parsing then
printing then parsing is the identity on normal forms.  One regex scan
splits a text into tokens, and a whole run of factors joined by '*'
(rationals, identifiers and their powers, spaced or not) is one token,
split by str methods; each distinct factor text is read once per parse.
An error finds its offset, line and column only when raised.  A term is
one flat product: the monomial terms of a sum go to one
`SuperPoly.from_products` call and only other factors are multiplied.
The printer lays each polynomial out once by `SuperPoly.named_rows` and
writes each (variable, exponent) text once.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import compress

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

# An expression token is a run, a power suffix '^n' or '^-n', or one
# punctuation character; a ring's is a word.  A run is a maximal sequence
# of factors joined by '*', each a rational 'n' or 'n/m' or an identifier
# with an optional power; whitespace may sit around '*', '^', '-' and '/'.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_POWER = r"\^\s*-?\s*[0-9]+"
_FACTOR = rf"(?:[0-9]+(?:\s*/\s*[0-9]+)?|{_NAME})(?:\s*{_POWER})?"
_TOKEN = re.compile(rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*|{_POWER}|\S")
_WORD = re.compile(rf"[0-9]+|{_NAME}|\S")
_BAD = re.compile(r"[^\s0-9A-Za-z_+\-*^()/;]")
_ZERO_DENOMINATOR = re.compile(r"/\s*(0+)(?![0-9])")


def _kind(tok: str) -> str:
    """The kind a message names: 'int', 'ident', 'eof' or the character,
    by the token's first character."""
    tok = tok[:1]
    return ("int" if tok.isdigit() else "ident" if tok.isidentifier()
            else tok or "eof")


def _error(message: str, text: str, offset: int) -> ExprSyntaxError:
    """The error at a character offset: line and column count from 1."""
    line = text.count("\n", 0, offset) + 1
    return ExprSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


class _Stream:
    """A text's tokens as strings, ending in "" (eof); no offsets kept."""

    def __init__(self, text: str, pattern=_TOKEN):
        bad = _BAD.search(text)
        if bad:
            raise _error(f"unexpected character {bad.group()!r}", text,
                         bad.start())
        self.text, self.pattern = text, pattern
        self.tokens = pattern.findall(text) + [""]
        self.pos = 0

    def error(self, message: str, back=0, inside=0) -> ExprSyntaxError:
        """A syntax error `inside` characters into the next token, or
        into the one `back` tokens before it."""
        offsets = [m.start() for m in self.pattern.finditer(self.text)]
        offsets.append(len(self.text))
        return _error(message, self.text, offsets[self.pos - back] + inside)

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
    stream = _Stream(text, _WORD)
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
# A node is ("*", [factors]) for a term, a factor the text of one factor of
# a run without whitespace ("3/4", "x^-2") or a node; ("neg", node) and
# ("^", node, int); or ("+", [(sign, term node)]), sign 1 or -1, a sum.


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
        tok = stream.peek()
        run = type(node) is list
        if (tok == "^" and not (run and "^" in node[-1])
                or tok == "/" and run and node[-1].isdigit()):
            # The int this lacks is not there: a run holds every
            # well-formed power and denominator, a power suffix is a token.
            if stream.next() == "^":
                stream.accept("-")
            stream.expect("int")
        if run:
            factors += node
        elif tok[:1] == "^":
            stream.next()
            factors.append(("^", node, int("".join(tok[1:].split()))))
        else:
            factors.append(node)
        if not stream.accept("*"):
            return ("*", factors)


def _parse_atom(stream, depth):
    """A run, '(' expr ')' or '-' atom.  A minus before a run negates its
    first factor before its power: a factor -1 when that power is odd."""
    if depth > _MAX_DEPTH:
        raise stream.error("expression nested too deeply")
    tok = stream.peek()
    if tok[:1].isdigit() or tok[:1].isidentifier():
        stream.next()
        zero = "/" in tok and _ZERO_DENOMINATOR.search(tok)
        if zero:
            raise stream.error("zero denominator in rational literal", 1,
                               zero.start(1))
        return "".join(tok.split()).split("*")
    if stream.accept("("):
        node = _parse_expr(stream, depth + 1)
        stream.expect(")")
        return node
    if stream.accept("-"):
        node = _parse_atom(stream, depth + 1)
        if type(node) is not list:
            return ("neg", node)
        _, caret, power = node[0].partition("^")
        return ["-1", *node] if not caret or int(power) % 2 else node
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


def _read_factor(text, ring: RingDecl, kind):
    """A rational; (variable, exponent) for a monomial factor (an odd
    variable, an even one to a power >= 0 or invertible); else of kind."""
    base, caret, power = text.partition("^")
    n = int(power) if caret else 1
    if base[0].isidentifier():
        var = ring.lookup(base)
        if n == 1 or var.parity is Parity.EVEN and (n >= 0 or var.invertible):
            return var, n
        return kind.promote(var) ** n
    num, slash, den = base.partition("/")
    value = Fraction(int(num), int(den)) if slash else int(num)
    return kind.promote(value) ** n if caret else value


def _product(factors, env, coeff=1):
    """The product of a term's factors in their written order.  Monomial
    factors and rationals gather into one (coefficient, [(variable,
    exponent)]) pair, returned as it is when it is the whole term; other
    factors are evaluated and multiplied in place, giving a value of
    kind.  A factor text is read once per parse, into env's dict.  A
    minus sign in front of a factor only negates the coefficient."""
    ring, kind, read = env
    run, value = [], None
    for f in factors:
        if type(f) is str:
            got = read.get(f)
            if got is None:
                got = read[f] = _read_factor(f, ring, kind)
            if type(got) is tuple:
                run.append(got)
                continue
            if type(got) is int or type(got) is Fraction:
                coeff *= got
                continue
        else:
            while f[0] == "neg":
                coeff, f = -coeff, f[1]
            got = _eval(f, env)
        if run or coeff != 1:
            got = _monomial(coeff, run, kind) * got
        value = got if value is None else value * got
        coeff, run = 1, []
    if value is None:
        return coeff, run
    if run or coeff != 1:
        value = value * _monomial(coeff, run, kind)
    return value


def _monomial(coeff, run, kind):
    return kind.promote(SuperPoly.from_products([(coeff, run)]))


def _eval(node, env):
    """Evaluate an AST to a value of env's kind, SuperPoly or LocalizedPoly;
    a sum's monomial terms are built at once by SuperPoly.from_products."""
    kind, tag = env[1], node[0]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "^":
        return _eval(node[1], env) ** node[2]
    pairs, values = [], []
    for sign, term in node[1] if tag == "+" else [(1, node)]:
        got = _product(term[1], env, sign)
        (pairs if type(got) is tuple else values).append(got)
    value = kind.promote(SuperPoly.from_products(pairs))
    return kind.sum([value, *values]) if values else value


def _parse(text: str, ring: RingDecl, kind):
    try:
        return _eval(_parse_to_ast(text), (ring, kind, {}))
    except ValueError:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        long = limit and re.search(
            rf"(?<![0-9A-Za-z_])[0-9]{{{limit + 1},}}", text)
        if not long:
            raise
        raise _error(f"integer literal of {long.end() - long.start()} "
                     f"digits, more than the limit of {limit}", text,
                     long.start()) from None


def parse_poly(text: str, ring: RingDecl) -> SuperPoly:
    try:
        return _parse(text, ring, SuperPoly)
    except NotAUnit as exc:
        raise NegativePowerOfNonInvertible(str(exc)) from exc


def parse_localized(text: str, ring: RingDecl) -> LocalizedPoly:
    """Like parse_poly but evaluates in the localized ring: a negative
    power is a power of `LocalizedPoly.reciprocal` of its base, whose
    body with its loci cancelled must be a unit times distinct loci, as
    `LocalizedPoly.reciprocal` says (NotAUnit otherwise)."""
    return _parse(text, ring, LocalizedPoly)


# ---------------------------------------------------------------------------
# Pretty printing


def pretty(p: SuperPoly) -> str:
    """Deterministic textual form; parse_poly(pretty(p)) == p.

    Terms are sorted by their exponent vectors over the variable names in
    reverse order, each monomial's factors written in name order; the
    text of each (variable, exponent) is made once."""
    if p.is_zero():
        return "0"
    variables, rows = p.named_rows()
    rows.sort(key=lambda row: row[0][::-1], reverse=True)
    words = [{e: v.name if e == 1 else f"{v.name}^{e}" for e in set(column)}
             for v, column in zip(variables, zip(*[exps for exps, _ in rows]))]
    chunks = []
    for exps, coeff in rows:
        mag = abs(coeff)
        if not any(exps):
            body = str(mag)
        else:
            body = "*".join(map(dict.__getitem__, compress(words, exps),
                                compress(exps, exps)))
            if mag != 1:
                body = f"{mag}*{body}"
            # After a leading unary minus, '^' would bind before the sign;
            # "- 1*x^2" keeps the minus attached to the rational atom.
            elif not chunks and coeff < 0 and next(filter(None, exps)) != 1:
                body = f"1*{body}"
        sign = "-" if coeff < 0 else "+"
        chunks.append(f"{sign} {body}" if chunks or coeff < 0 else body)
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
