import random
from fractions import Fraction
from functools import lru_cache

import pytest

from superhilb.charts import atlas_from_text, atlas_to_text, hilb21_atlas
from superhilb.errors import NotAUnit
from superhilb.localized import LocalizedPoly, PowerTable
from superhilb.parser import parse_localized, parse_ring, pretty_localized
from superhilb.ring import SuperPoly

V = SuperPoly.var


@lru_cache(maxsize=None)
def atlas(k):
    return hilb21_atlas(k)


class TestLargeTwists:
    @pytest.mark.parametrize("k", [63, -63, 64, 200, -200])
    def test_v1_v4_rules_are_laurent(self, k):
        for pair in (("V1", "V4"), ("V4", "V1")):
            rules = atlas(k).transition(*pair).rules
            assert all(rule.is_polynomial() for rule in rules.values())

    def test_text_round_trip_k63(self):
        text = atlas_to_text(atlas(63))
        assert atlas_to_text(atlas_from_text(text)) == text


class TestLocusForm:
    ring = parse_ring("even a1 inv; even a2 inv; even b1 inv; even b2 inv; "
                      "odd alpha1; odd alpha2; odd s1; odd s2;")

    def parse(self, text):
        return parse_localized(text, self.ring)

    def test_soul_series_inverse(self):
        base = self.parse("a1 - a2 + alpha1*alpha2")
        inverse = self.parse("(a1 - a2 + alpha1*alpha2)^-1")
        product = (inverse * base).simplified()
        assert product.is_polynomial() and product.num == SuperPoly.one()

    @pytest.mark.parametrize("n", [Fraction(1, 2), 1.5, 2.0],
                             ids=["fraction", "float", "integral-float"])
    def test_non_integer_exponent_raises(self, n):
        """A bool counts as an int exponent; no other non-int does."""
        value = self.parse("(a1 - a2)^-1")
        with pytest.raises(TypeError, match="exponent is not an int"):
            value ** n
        assert value ** True == value

    def test_as_poly_refuses_loci(self):
        value = self.parse("a1*(a1 - a2)^-1")
        with pytest.raises(NotAUnit, match="is not a unit"):
            value.as_poly()

    @pytest.mark.parametrize("text, what", [
        ("alpha1*(a1 - a2)^-1", "cannot invert an odd element"),
        ("alpha1*alpha2*(a1 - a2)^-1", "cannot invert a nilpotent element"),
    ], ids=["odd", "nilpotent"])
    def test_reciprocal_refuses_non_units(self, text, what):
        with pytest.raises(NotAUnit, match=what):
            self.parse(text).reciprocal()

    def test_division_is_the_reciprocal_product(self):
        num = self.parse("a1 + alpha1*alpha2")
        den = self.parse("(a1 - a2)*(b1*b2 - 1)^-1 + s1*s2")
        quotient = num / den
        assert quotient == num * den.reciprocal()
        assert quotient * den == num
        assert num / 2 == num * Fraction(1, 2)

    def test_negative_power_is_repeated_reciprocal(self):
        once = self.parse("(a1 - a2)^-1")
        thrice = self.parse("(a1 - a2)^-3")
        assert thrice == once * once * once
        assert pretty_localized(thrice) == "(1) * (- a2 + a1)^-3"

    @pytest.mark.parametrize("text", [
        "1 + s1*s2*(a1 - a2)^-2",
        "(a1 - a2)*(b1*b2 - 1)*(a1 - a2)^-1",
        "(a1 - a2)^2*(a1 - a2)^-1 + s1*s2*(a1 - a2)^-1",
        "(b1*b2 - 1)*(a1 - a2)*(a1 - a2)^-3 + s1*s2",
    ])
    def test_unit_whose_body_cancels_against_its_loci(self, text):
        """The numerator's body alone is no unit times a locus; with the
        value's own loci cancelled it is."""
        value = self.parse(text)
        inverse = value.reciprocal()
        assert value * inverse == 1
        assert value ** -1 == inverse
        assert self.parse(f"({text})^-1") == inverse

    @pytest.mark.parametrize("text", [
        "(a1 - a2)*(b1*b2 - 1)",
        "3*a1*(a1 - a2)*(b1*b2 - 1)",
        "(a1 - a2)*(b1*b2 - 1) + s1*s2",
    ])
    def test_product_of_distinct_loci_inverts(self, text):
        base = self.parse(text)
        inverse = self.parse(f"({text})^-1")
        assert inverse * base == 1
        assert LocalizedPoly(1, base.num) == inverse
        if text == "(a1 - a2)*(b1*b2 - 1)":
            assert pretty_localized(inverse) == pretty_localized(
                self.parse("(a1 - a2)^-1*(b1*b2 - 1)^-1"))

    @pytest.mark.parametrize("text", [
        "(a1 - a2)^2*(b1*b2 - 1)",
        "(a1 - a2)*(a1 + a2)",
    ], ids=["repeated", "non-linear"])
    def test_repeated_or_non_linear_factor_is_refused(self, text):
        with pytest.raises(NotAUnit):
            self.parse(f"({text})^-1")

    def test_denominator_without_pivot_is_refused(self):
        with pytest.raises(NotAUnit):
            self.parse("(a1^2 + a2^2)^-1")

    def test_monomial_content_moves_to_numerator(self):
        a1, a2 = (self.ring.lookup(n) for n in ("a1", "a2"))
        value = LocalizedPoly(V(a1), V(a2, 3) - V(a1) * V(a2, 2))
        assert pretty_localized(value) == "(- a1*a2^-2) * (- a2 + a1)^-1"

    def test_comparison_with_non_polynomials_is_false(self):
        a1 = self.ring.lookup("a1")
        value = LocalizedPoly(V(a1))
        assert value != "a1" and not value == None  # noqa: E711
        assert value != object()
        assert value == V(a1) and value == a1 and LocalizedPoly(1) == 1

    @pytest.mark.parametrize("k", [-3, 0, 2, 7])
    def test_hilb21_loci_are_removed_loci(self, k):
        a = atlas(k)
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (
            a.chart(name).evens for name in ("V1", "V2", "V3", "V4")
        )
        removed = [V(a1) - V(a2), V(d1) - V(d2), V(b1) * V(b2) - 1,
                   V(c1) * V(c2) - 1]
        for tmap in a.transitions.values():
            for rule in tmap.rules.values():
                assert all(locus.poly in removed for locus in rule.loci)


class TestSoulPowers:
    """Seeded random units B + N: B a rational times a Laurent monomial
    and N an even soul over (a1 - a2)^e, in two odd variables, or in four
    with N^2 nonzero."""

    ring = parse_ring("even a1 inv; even a2 inv; odd s1; odd s2; odd s3; "
                      "odd s4;")

    def units(self):
        rng = random.Random(6113)
        a1, a2 = (self.ring.lookup(n) for n in ("a1", "a2"))
        odds = [self.ring.lookup(f"s{i}") for i in range(1, 5)]
        locus = LocalizedPoly(1, V(a1) - V(a2))
        drawn = []
        while len(drawn) < 16:
            e, width = len(drawn) % 2 + 1, 2 + 2 * (len(drawn) // 8)
            body = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
            body *= V(a1, rng.randint(-2, 2)) * V(a2, rng.randint(-2, 2))
            soul = SuperPoly.sum(
                rng.choice((-3, -1, 1, 2)) * V(rng.choice((a1, a2)),
                                                rng.randint(0, 2))
                * V(x) * V(y) for x, y in (rng.sample(odds[:width], 2)
                                           for _ in range(rng.randint(1, 4))))
            nonzero = 0  # the powers N^j, j >= 1, that are nonzero
            while not (soul ** (nonzero + 1)).is_zero():
                nonzero += 1
            if nonzero == width // 2:
                value = LocalizedPoly(body) + LocalizedPoly(soul) * locus ** e
                drawn.append((value, e, nonzero))
        return drawn

    @staticmethod
    def product(value, n):
        """The |n|-fold product of value, or of its reciprocal for n < 0."""
        base, out = value if n >= 0 else value.reciprocal(), LocalizedPoly(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    @staticmethod
    def exponents(e):
        """n in -4..12 for both locus exponents e."""
        return range(-4, 13)

    def test_power_is_the_product(self):
        for value, e, _ in self.units():
            for n in self.exponents(e):
                assert value ** n == self.product(value, n), (value, n)

    def test_table_powers_match_pow(self):
        a1 = self.ring.lookup("a1")
        for value, e, _ in self.units():
            table = PowerTable({a1: value})
            for n in self.exponents(e):
                power, expected = table.power(a1, n), value ** n
                assert (power.num, power.loci) == (expected.num, expected.loci)

    def test_loci_do_not_grow_with_the_exponent(self):
        """Every locus exponent of v^n stays at most e times the number
        of nonzero powers of N, for n >= 0, and for n < 0 at most that
        number times the exponent of 1/v; the n-fold exponent is n*e."""
        for value, e, nonzero in self.units():
            for n in range(13):
                assert max((value ** n).loci.values(), default=0) <= e * nonzero
            inverse = max(value.reciprocal().loci.values())
            for n in range(-4, 0):
                top = max((value ** n).loci.values())
                assert top <= inverse * nonzero, (value, n)

    def test_body_with_the_locus_keeps_the_product_exponent(self):
        a1, a2, s1, s2 = (self.ring.lookup(n) for n in ("a1", "a2", "s1",
                                                         "s2"))
        value = LocalizedPoly(V(a1) + V(s1) * V(s2), V(a1) - V(a2))
        (locus, one), = value.loci.items()
        assert one == 1
        table = PowerTable({a1: value})
        for n in range(2, 7):
            assert (value ** n).loci == {locus: n}
            assert table.power(a1, n).loci == {locus: n}


class TestSharedTable:
    ring = TestLocusForm.ring

    def test_locus_image_is_made_once_per_table(self, monkeypatch):
        """Two values over the locus a1 - a2, substituted through one
        table, apply it to that locus once and give what a fresh table
        per value gives."""
        look = self.ring.lookup
        a1, a2, b1, b2, alpha1, s1 = (look(n) for n in (
            "a1", "a2", "b1", "b2", "alpha1", "s1"))
        values = [parse_localized(text, self.ring) for text in (
            "b1*(a1 - a2)^-1", "(b1*b2 + alpha1*s1)*(a1 - a2)^-1")]
        assignment = {a1: V(a1) * V(b2), b1: V(b1) + V(alpha1) * V(s1)}
        expected = [value.substitute(assignment) for value in values]

        locus = V(a1) - V(a2)
        applied = []
        apply = PowerTable.apply

        def counted(self, p):
            applied.append(p == locus)
            return apply(self, p)

        monkeypatch.setattr(PowerTable, "apply", counted)
        table = PowerTable(assignment)
        shared = [value.substitute(table) for value in values]
        assert sum(applied) == 1, applied
        assert [(v.num, v.loci) for v in shared] == [
            (v.num, v.loci) for v in expected]
