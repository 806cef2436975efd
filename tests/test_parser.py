import hashlib
import random
import re
import string
from fractions import Fraction

import pytest

from superhilb.errors import (
    DuplicateVariable,
    ExprSyntaxError,
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    SuperAlgebraError,
    UnknownVariable,
)
from superhilb.parser import (
    RingDecl,
    parse_localized,
    parse_poly,
    parse_ring,
    pretty,
    pretty_localized,
)
from superhilb.ring import Parity, SuperMonomial, SuperPoly

from conftest import random_poly, standard_ring


class TestParseRing:
    def test_basic(self):
        ring = parse_ring("even x inv; odd theta;")
        x = ring.lookup("x")
        theta = ring.lookup("theta")
        assert x.parity is Parity.EVEN and x.invertible
        assert theta.parity is Parity.ODD and not theta.invertible

    def test_invertible_odd_rejected(self):
        with pytest.raises(InvertibleOddVariable):
            parse_ring("odd theta inv;")

    def test_duplicate(self):
        with pytest.raises(DuplicateVariable):
            parse_ring("even a; even a;")

    def test_chart_style_ring(self):
        ring = parse_ring("even a0; even a1; odd alpha0; odd alpha1;")
        assert [v.name for v in ring] == ["a0", "a1", "alpha0", "alpha1"]

    def test_declaration_order_preserved(self):
        ring = parse_ring("even z; even a; odd q;")
        assert [v.name for v in ring] == ["z", "a", "q"]


class TestParsePoly:
    def setup_method(self):
        self.ring = parse_ring(
            "even x inv; even a; even c1; even c2 inv; odd theta; odd alpha;"
            " odd gamma1;"
        )

    def test_point_ideal_generator(self):
        p = parse_poly("x + a + alpha*theta", self.ring)
        x = SuperPoly.var(self.ring.lookup("x"))
        a = SuperPoly.var(self.ring.lookup("a"))
        al = SuperPoly.var(self.ring.lookup("alpha"))
        th = SuperPoly.var(self.ring.lookup("theta"))
        assert p == x + a + al * th

    def test_odd_square_is_zero(self):
        assert parse_poly("theta^2", self.ring) == 0

    def test_product_expansion(self):
        got = parse_poly("(x+c1+gamma1*theta)*(x + c2^-1)", self.ring)
        x = SuperPoly.var(self.ring.lookup("x"))
        c1 = SuperPoly.var(self.ring.lookup("c1"))
        c2i = SuperPoly.var(self.ring.lookup("c2"), -1)
        g1 = SuperPoly.var(self.ring.lookup("gamma1"))
        th = SuperPoly.var(self.ring.lookup("theta"))
        expected = (x + c1 + g1 * th) * (x + c2i)
        assert got == expected

    def test_rationals(self):
        from fractions import Fraction

        assert parse_poly("3/4", self.ring) == SuperPoly.const(Fraction(3, 4))
        assert parse_poly("- 3/4*x + 2", self.ring) == (
            SuperPoly.const(Fraction(-3, 4)) * SuperPoly.var(self.ring.lookup("x")) + 2
        )

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_poly("zz + 1", self.ring)

    def test_negative_power_needs_invertible(self):
        with pytest.raises(NegativePowerOfNonInvertible):
            parse_poly("a^-1", self.ring)

    def test_positioned_error(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x +\n* 2", self.ring)
        assert err.value.line == 2

    def test_localized_inverse_of_sum(self):
        f = parse_localized("(c1 - c2)^-1", self.ring)
        c1 = SuperPoly.var(self.ring.lookup("c1"))
        c2 = SuperPoly.var(self.ring.lookup("c2"))
        assert f * (c1 - c2) == 1
        with pytest.raises(NegativePowerOfNonInvertible):
            parse_poly("(c1 - c2)^-1", self.ring)


class TestPretty:
    def test_zero(self):
        assert pretty(SuperPoly.zero()) == "0"

    def test_examples(self):
        ring = parse_ring("even x; even a0; odd alpha; odd theta;")
        x = SuperPoly.var(ring.lookup("x"))
        a0 = SuperPoly.var(ring.lookup("a0"))
        assert pretty(x * x + a0 * x) == "x^2 + a0*x"
        al = SuperPoly.var(ring.lookup("alpha"))
        th = SuperPoly.var(ring.lookup("theta"))
        assert pretty(-(al * th)) == "- alpha*theta"

    def test_round_trip_random(self):
        rng = random.Random(99)
        ring = RingDecl(list(standard_ring().values()))
        for _ in range(1000):
            p = random_poly(rng)
            assert parse_poly(pretty(p), ring) == p

    def test_round_trip_localized(self):
        ring = parse_ring("even a1; even a2; odd alpha1; odd alpha2;")
        f = parse_localized("(alpha1*alpha2) * (a2 - a1)^-1", ring)
        assert parse_localized(pretty_localized(f), ring) == f


class TestLongSums:
    """Sums are read iteratively: a sum of thousands of terms parses like
    a short one (nesting depth stays bounded by parentheses)."""

    def setup_method(self):
        self.ring = parse_ring("even u; even v inv; odd eta;")
        u, v, eta = (self.ring.lookup(n) for n in ("u", "v", "eta"))
        terms = {}
        for i in range(60):
            for j in range(-25, 25):
                mono = SuperMonomial.make({u: i, v: j, eta: (i + j) % 2})
                sign = -1 if j % 2 else 1
                terms[mono] = Fraction(sign * (i + 1), abs(j) + 1)
        self.poly = SuperPoly(terms)
        assert len(self.poly.terms) == 3000

    def test_parse_poly_round_trip(self):
        assert parse_poly(pretty(self.poly), self.ring) == self.poly

    def test_parse_localized_round_trip(self):
        back = parse_localized(pretty(self.poly), self.ring)
        assert back.is_polynomial() and back.num == self.poly

    def test_monomial_terms_make_no_products(self, monkeypatch):
        """Each printed term is built straight into the normal form, so
        reading back a sum of monomials multiplies nothing."""
        text = pretty(self.poly)
        products = []

        def counted(a, b):
            products.append(1)
            return mul(a, b)

        mul = SuperPoly.__mul__
        monkeypatch.setattr(SuperPoly, "__mul__", counted)
        monkeypatch.setattr(SuperPoly, "__rmul__", counted)
        assert parse_poly(text, self.ring) == self.poly
        assert parse_localized(text, self.ring).num == self.poly
        assert products == []


class TestTermFolding:
    """A term is read as the product of its factors in the written order,
    whether its monomial factors are folded into one term or not."""

    RING = "even x inv; even a; odd theta; odd alpha; odd beta;"

    def factor(self, rng, ring):
        """(text, value) of one random factor."""
        V = SuperPoly.var
        x, a, theta, alpha, beta = (V(ring.lookup(name)) for name in
                                    ("x", "a", "theta", "alpha", "beta"))
        kind = rng.randrange(6)
        if kind == 0:
            q = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            text = str(abs(q))
            return ("-" + text if q < 0 else text), SuperPoly.const(q)
        if kind == 1:
            e = rng.randint(-3, 3)
            return f"x^{e}", V(ring.lookup("x"), e)
        if kind == 2:
            e = rng.randint(0, 3)
            return f"a^{e}", V(ring.lookup("a"), e)
        if kind in (3, 4):
            name = rng.choice(["theta", "alpha", "beta"])
            return name, V(ring.lookup(name))
        return rng.choice([
            ("(a - 2*beta*theta)", a - 2 * beta * theta),
            ("(x^-1 + alpha)", V(ring.lookup("x"), -1) + alpha),
            ("(3/2 + theta*x)", Fraction(3, 2) + theta * x),
        ])

    def test_terms_equal_their_products(self):
        rng = random.Random(5150)
        ring = parse_ring(self.RING)
        total_text, total = [], SuperPoly.zero()
        for _ in range(400):
            texts, value = [], SuperPoly.one()
            for _ in range(rng.randint(1, 6)):
                text, factor = self.factor(rng, ring)
                texts.append(text)
                value = value * factor
            text = "*".join(texts)
            if rng.random() < 0.4:
                # "- x^2" reads as (-x)^2, so the printer's "- 1*x^2"
                lead = "- 1*" if "^" in texts[0] else "- "
                text, value = lead + text, -value
            assert parse_poly(text, ring) == value, text
            assert parse_localized(text, ring) == value, text
            total_text.append(text)
            total = total + value
        text = " + ".join(f"({t})" if t.startswith("-") else t
                          for t in total_text)
        assert parse_poly(text, ring) == total
        assert parse_localized(text, ring) == total


class TestFuzz:
    ALPHABET = string.ascii_lowercase[:6] + "0123456789 +-*/^();\n_"

    def test_no_crashes(self):
        rng = random.Random(431)
        ring = parse_ring("even a; even b inv; odd c;")
        for _ in range(100_000):
            n = rng.randint(0, 24)
            text = "".join(rng.choice(self.ALPHABET) for _ in range(n))
            try:
                parse_poly(text, ring)
            except SuperAlgebraError:
                pass

    def test_arbitrary_bytes(self):
        rng = random.Random(77)
        ring = parse_ring("even a;")
        for _ in range(2000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 12)))
            try:
                parse_poly(blob.decode("latin1"), ring)
            except SuperAlgebraError:
                pass

    def test_deep_nesting_is_an_error_not_a_crash(self):
        ring = parse_ring("even a;")
        with pytest.raises(ExprSyntaxError):
            parse_poly("(" * 100_000 + "a" + ")" * 100_000, ring)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _outcomes(text, ring):
    """What parse_poly and parse_localized make of a text: the printed
    value, or the error's type and message (line and column included)."""
    out = []
    for parse, show in ((parse_poly, pretty),
                        (parse_localized, pretty_localized)):
        try:
            out.append(show(parse(text, ring)))
        except (SuperAlgebraError, ValueError) as exc:
            # ValueError: a coefficient past str()'s 4300-digit limit
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# A factor of a printed term: a rational or a variable to a power.
_FACTOR = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_]\w*(?:\^-?[0-9]+)?")


def _perturbed(rng, text):
    """text with one factor in parentheses, a leading '-', and whitespace
    around '*', '^' and '/', each applied or not by rng."""
    if rng.random() < 0.5:
        factors = list(_FACTOR.finditer(text))
        if factors:
            m = rng.choice(factors)
            text = f"{text[:m.start()]}({m.group()}){text[m.end():]}"
    if rng.random() < 0.3:
        text = rng.choice(["-", "- ", "-\n"]) + text
    if rng.random() < 0.6:
        pads = ["", "", " ", "  ", "\n", " \n ", "\t", "\xa0"]
        text = re.sub(r"[*^/]", lambda m: (rng.choice(pads) + m.group()
                                           + rng.choice(pads)), text)
    return text


class TestGoldenParser:
    """Pinned sha256 digests of what the parser makes of seeded texts,
    values and errors alike: any change to the reader must keep its
    results, messages and error positions."""

    def test_fuzz_texts(self):
        rng = random.Random(2718)
        ring = parse_ring("even a; even b inv; odd c;")
        lines = []
        for _ in range(20_000):
            n = rng.randint(0, 24)
            text = "".join(rng.choice(TestFuzz.ALPHABET) for _ in range(n))
            lines.extend(_outcomes(text, ring))
        assert _digest(lines) == (
            "b3b6247e5ad6816306111731d9f8769accfd6b8c775957e1e180e7117a07fdcd")

    def test_perturbed_printed_texts(self):
        rng = random.Random(1618)
        ring = RingDecl(standard_ring().values())
        lines = []
        for _ in range(2000):
            text = _perturbed(rng, pretty(random_poly(rng)))
            lines.extend(_outcomes(text, ring))
        assert _digest(lines) == (
            "d4a61b877fa21e041885d43646b1f9fb19494f4caabd2b78e7e38bcd6cf81017")


class TestGoldenPrinter:
    """Pinned sha256 digests of pretty and of named_terms over seeded
    polynomials with Laurent exponents, Fraction coefficients and leading
    negative terms whose first factor is a power (the "- 1*x^2" rule)."""

    @staticmethod
    def polys():
        rng = random.Random(3141)
        ring = standard_ring()
        a, b, x = (SuperPoly.var(ring[n]) for n in ("a", "b", "x"))
        lead = [-(x ** 4), -Fraction(3, 2) * a ** 2 * x ** 4,
                -(b ** -2) * x ** 5, -(a * x ** 4)]
        for i in range(1000):
            p = random_poly(rng, max_terms=rng.randint(1, 8))
            yield p + lead[i % 4] if i % 3 == 0 else p

    def test_pretty(self):
        assert _digest(pretty(p) for p in self.polys()) == (
            "a57397d2e1dbc818479da3027107b327bcb84c13f45033aaa4befbab9fa97a45")

    def test_named_terms(self):
        assert _digest(repr(sorted(p.named_terms(), key=repr))
                       for p in self.polys()) == (
            "0bc0ac3ab33508729f8f5f0c4959173b6b1a13065c055008608fe4f0bf036fa0")


class TestErrorPositions:
    """Every syntax error names its token by message, line and column;
    a column counts characters, a tab or a non-ASCII space as one."""

    RING = "even x inv; even a; odd theta;"
    CASES = [
        ("x +\n  a ?", "unexpected character '?'", 2, 5),
        ("x\n\t$", "unexpected character '$'", 2, 2),
        ("x\n\xa0\xa0@", "unexpected character '@'", 2, 3),
        ("x +\n a\u2003\xe9", "unexpected character '\xe9'", 2, 4),
        ("x\r\n\u2028 ?", "unexpected character '?'", 2, 3),
        ("x +\n  * a", "expected a rational, identifier or '(', found '*'",
         2, 3),
        ("x *\n\t", "expected a rational, identifier or '(', found 'eof'",
         2, 2),
        ("(x\n + a) * (\n  )",
         "expected a rational, identifier or '(', found ')'", 3, 3),
        ("(x +\n a", "expected ')', found 'eof'", 2, 3),
        ("x\n + a^", "expected 'int', found 'eof'", 2, 6),
        ("x^-\n y", "expected 'int', found 'ident'", 2, 2),
        ("1/\n x", "expected 'int', found 'ident'", 2, 2),
        ("x * (a\n + 1))", "trailing input ')'", 2, 6),
        ("x\n  a", "trailing input 'ident'", 2, 3),
        ("x\n  3", "trailing input 'int'", 2, 3),
        ("(x)^-2^3", "trailing input '^'", 1, 7),
        ("3/0", "zero denominator in rational literal", 1, 3),
        ("x*3/0*y", "zero denominator in rational literal", 1, 5),
        ("x^2^3", "trailing input '^'", 1, 4),
        ("a*b^-", "expected 'int', found 'eof'", 1, 6),
        ("1 +\n 2/0", "zero denominator in rational literal", 2, 4),
        ("2\n/0", "zero denominator in rational literal", 2, 2),
        ("", "empty expression", 1, 1),
        ("  \n \t", "empty expression", 2, 3),
        ("(" * 402 + "x", "expression nested too deeply", 1, 101),
        ("x *\n " + "-" * 500 + "x", "expression nested too deeply", 2, 400),
        ("-" * 500 + "x", "expression nested too deeply", 1, 399),
    ]

    @pytest.mark.parametrize("text, message, line, column", CASES)
    def test_expression_errors(self, text, message, line, column):
        ring = parse_ring(self.RING)
        for parse in (parse_poly, parse_localized):
            with pytest.raises(ExprSyntaxError) as err:
                parse(text, ring)
            assert (err.value.line, err.value.column) == (line, column)
            assert str(err.value) == (
                f"{message} (line {line}, column {column})")

    @pytest.mark.parametrize("text, digits, line, column", [
        ("9" * 5000, 5000, 1, 1),
        ("x +\n  2*" + "9" * 4301, 4301, 2, 5),
        ("a^" + "1" * 5000, 5000, 1, 3),
        ("(x)^-" + "1" * 5000, 5000, 1, 6),
        ("-a^\n" + "2" * 5000, 5000, 2, 1),
        ("x*1/ " + "3" * 4400, 4400, 1, 6),
    ], ids=["literal", "second-line", "power", "suffix", "odd-power",
            "denominator"])
    def test_literal_beyond_the_digit_limit(self, text, digits, line, column):
        """int() refuses text of more than 4,300 digits; such a literal
        is a syntax error at its first digit.  A name's digits are not a
        literal."""
        ring = parse_ring(self.RING)
        for parse in (parse_poly, parse_localized):
            with pytest.raises(ExprSyntaxError) as err:
                parse(text, ring)
            assert str(err.value) == (
                f"integer literal of {digits} digits, more than the limit of "
                f"4300 (line {line}, column {column})")
        with pytest.raises(UnknownVariable):
            parse_poly("x + a" + "1" * 5000, ring)
        assert parse_poly("7" * 4300, ring) == SuperPoly.const(int("7" * 4300))

    @pytest.mark.parametrize("text, message, line, column", [
        ("even x;\n  ood y;", "expected 'even' or 'odd', found 'ood'", 2, 3),
        ("even x;\nodd", "expected 'ident', found 'eof'", 2, 4),
        ("even x\n odd y;", "expected ';', found 'ident'", 2, 2),
        ("even 3;", "expected 'ident', found 'int'", 1, 6),
        ("even x;\n\todd y ?", "unexpected character '?'", 2, 8),
    ])
    def test_ring_errors(self, text, message, line, column):
        with pytest.raises(ExprSyntaxError) as err:
            parse_ring(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{message} (line {line}, column {column})"
