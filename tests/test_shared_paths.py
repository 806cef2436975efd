"""SuperPoly and LocalizedPoly share one substitution engine, one power
routine, one soul-series inverse and one parser evaluator; these tests
check that both value types agree through them."""

from fractions import Fraction

import pytest

from superhilb.localized import LocalizedPoly, substitute_localized
from superhilb.parser import RingDecl, parse_localized, parse_poly, pretty
from superhilb.ring import Parity, SuperMonomial, SuperPoly, invert

from conftest import random_poly, standard_ring


def graded(p, parity):
    """The part of p of the given parity."""
    return SuperPoly({m: c for m, c in p.terms.items() if m.parity() is parity})


def random_unit(rng, ring):
    """A nonzero rational times a Laurent monomial, plus an even soul."""
    body = (SuperPoly.var(ring["x"], rng.choice([-2, -1, 1, 2]))
            * SuperPoly.var(ring["b"], rng.choice([-1, 0, 1]))
            * rng.choice([Fraction(-3), Fraction(2), Fraction(1, 2)]))
    soul = graded(random_poly(rng, ring, max_terms=3), Parity.EVEN).soul()
    return body + soul


def random_assignment(rng, ring):
    """Units for the invertible evens, Laurent and nilpotent values for
    the others; beta and gamma stay unassigned."""
    return {
        ring["x"]: random_unit(rng, ring),
        ring["b"]: random_unit(rng, ring),
        ring["a"]: graded(random_poly(rng, ring, max_terms=3), Parity.EVEN),
        ring["theta"]: graded(random_poly(rng, ring, max_terms=3), Parity.ODD),
        ring["alpha"]: graded(random_poly(rng, ring, max_terms=3), Parity.ODD),
    }


class TestSubstitution:
    def test_both_types_agree(self, rng):
        ring = standard_ring()
        for _ in range(30):
            p = random_poly(rng, ring, max_terms=4)
            values = random_assignment(rng, ring)
            localized = substitute_localized(p, values)
            assert p.substitute(values) == localized.as_poly()

    def test_terms_are_summed_in_one_pass(self, monkeypatch):
        """The number of SuperPoly additions in a substitution does not
        grow with the number of terms (one per term would be quadratic
        in the size of the result)."""
        ring = standard_ring()
        x, b = ring["x"], ring["b"]
        values = {x: SuperPoly.var(x) * 2}
        polys = [SuperPoly({SuperMonomial.make({x: i, b: j}): 1
                            for i in range(rows) for j in range(15)})
                 for rows in (20, 40)]
        assert len(polys[0].terms) >= 300
        calls = [0]
        add = SuperPoly.__add__

        def counted(self, other):
            calls[0] += 1
            return add(self, other)

        monkeypatch.setattr(SuperPoly, "__add__", counted)
        monkeypatch.setattr(SuperPoly, "__radd__", counted)
        counts = []
        for p in polys:
            calls[0] = 0
            p.substitute(values)
            counts.append(calls[0])
        assert counts[0] == counts[1], counts


class TestParsing:
    def test_both_types_agree_on_locus_free_texts(self, rng):
        ring = standard_ring()
        decl = RingDecl(ring.values())
        for _ in range(30):
            p, q = (random_poly(rng, ring, max_terms=3) for _ in range(2))
            unit = pretty(random_unit(rng, ring))
            n = rng.randint(0, 4)
            for text in (pretty(p), f"({pretty(p)})^{n}", f"({unit})^-{n}",
                         f"{pretty(p)} * ({unit})^-1 - ({pretty(q)})"):
                localized = parse_localized(text, decl)
                assert parse_poly(text, decl) == localized.as_poly()


class TestPowers:
    @pytest.mark.parametrize("n", range(10))
    def test_power_is_repeated_product(self, rng, n):
        for _ in range(10):
            p = random_poly(rng, max_terms=3)
            product = SuperPoly.one()
            for _ in range(n):
                product = product * p
            assert p ** n == product

    @pytest.mark.parametrize("n", range(1, 10))
    def test_negative_power_of_a_unit(self, rng, n):
        ring = standard_ring()
        for _ in range(5):
            unit = random_unit(rng, ring)
            inverse = invert(unit)
            assert unit * inverse == 1
            assert LocalizedPoly(unit).reciprocal().as_poly() == inverse
            assert unit ** -n == inverse ** n
            assert unit ** -n * unit ** n == 1
