from functools import lru_cache

import pytest

from superhilb.charts import atlas_from_text, atlas_to_text, hilb21_atlas
from superhilb.errors import NotAUnit
from superhilb.localized import LocalizedPoly
from superhilb.parser import parse_localized, parse_ring, pretty_localized
from superhilb.ring import SuperPoly

V = SuperPoly.var


@lru_cache(maxsize=None)
def atlas(k):
    return hilb21_atlas(k)


class TestLargeTwists:
    @pytest.mark.parametrize("k", [63, -63, 64])
    def test_v1_v4_rules_are_laurent(self, k):
        for pair in (("V1", "V4"), ("V4", "V1")):
            rules = atlas(k).transition(*pair).rules
            assert all(rule.is_polynomial() for rule in rules.values())

    def test_text_round_trip_k63(self):
        text = atlas_to_text(atlas(63))
        assert atlas_to_text(atlas_from_text(text)) == text


class TestLocusForm:
    ring = parse_ring("even a1 inv; even a2 inv; odd alpha1; odd alpha2;")

    def parse(self, text):
        return parse_localized(text, self.ring)

    def test_soul_series_inverse(self):
        base = self.parse("a1 - a2 + alpha1*alpha2")
        inverse = self.parse("(a1 - a2 + alpha1*alpha2)^-1")
        product = (inverse * base).simplified()
        assert product.is_polynomial() and product.num == SuperPoly.one()

    def test_negative_power_is_repeated_reciprocal(self):
        once = self.parse("(a1 - a2)^-1")
        thrice = self.parse("(a1 - a2)^-3")
        assert thrice == once * once * once
        assert pretty_localized(thrice) == "(1) * (- a2 + a1)^-3"

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
