import random
from fractions import Fraction

import pytest

from superhilb.errors import NotAUnit, ParityMismatch
from superhilb.ring import (
    ParityClass,
    SuperMonomial,
    SuperPoly,
    even,
    invert,
    odd,
)

from conftest import random_poly, standard_ring


def P(v):
    return SuperPoly.var(v)


class TestBasics:
    def test_add_identity(self):
        ring = standard_ring()
        p = P(ring["x"]) + 3
        assert p + SuperPoly.zero() == p

    def test_odd_inverse_cancels(self):
        theta = odd("theta")
        assert P(theta) + (-P(theta)) == 0

    def test_cross_terms_cancel(self):
        r = standard_ring()
        x, alpha, theta = P(r["x"]), P(r["alpha"]), P(r["theta"])
        assert (x + alpha * theta) + (x - alpha * theta) == 2 * x

    def test_odd_squares_to_zero(self):
        theta = P(odd("theta"))
        assert theta * theta == 0

    def test_anticommutation(self):
        a, b = P(odd("alpha")), P(odd("beta"))
        assert a * b + b * a == 0

    def test_mixed_product(self):
        r = standard_ring()
        x, alpha, theta = P(r["x"]), P(r["alpha"]), P(r["theta"])
        assert (x + alpha * theta) * (x - alpha * theta) == x * x

    def test_parity_classes(self):
        r = standard_ring()
        assert SuperPoly.zero().parity_class() is ParityClass.EVEN
        assert P(r["x"]).parity_class() is ParityClass.EVEN
        assert P(r["alpha"]).parity_class() is ParityClass.ODD
        assert (P(r["alpha"]) * P(r["beta"])).parity_class() is ParityClass.EVEN
        assert (P(r["x"]) + P(r["alpha"])).parity_class() is ParityClass.MIXED

    def test_koszul_sign_normalization(self):
        alpha, theta = odd("alpha"), odd("theta")
        # theta*alpha stores as -alpha*theta
        m = P(theta) * P(alpha)
        assert m == -(P(alpha) * P(theta))

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            SuperMonomial.make({odd("alpha"): 2})


class TestInvert:
    def test_monomial(self):
        x = even("x", invertible=True)
        assert invert(P(x)) == SuperPoly.var(x, -1)

    def test_neumann_two_terms(self):
        a, b = P(odd("alpha")), P(odd("beta"))
        p = SuperPoly.one() + a * b
        assert invert(p) == SuperPoly.one() - a * b

    def test_invertible_variable_with_soul(self):
        b1 = even("b1", invertible=True)
        beta1, beta2 = odd("beta1"), odd("beta2")
        p = P(b1) + P(beta1) * P(beta2)
        expected = SuperPoly.var(b1, -1) - SuperPoly.var(b1, -2) * P(beta1) * P(beta2)
        got = invert(p)
        assert got == expected
        assert p * got == 1
        assert got * p == 1

    def test_not_a_unit(self):
        r = standard_ring()
        with pytest.raises(NotAUnit):
            invert(P(r["a"]))  # not declared invertible
        with pytest.raises(NotAUnit):
            invert(P(r["x"]) + 1)  # two non-nilpotent terms
        with pytest.raises(NotAUnit):
            invert(P(r["alpha"]))  # nilpotent


class TestSubstitute:
    def test_identity_assignment(self):
        r = standard_ring()
        p = P(r["x"]) + P(r["a"]) + P(r["alpha"]) * P(r["theta"])
        assert p.substitute({r["x"]: P(r["x"])}) == p

    def test_twist_pullback(self):
        x = even("x", invertible=True)
        theta, psi = odd("theta"), odd("psi")
        got = P(psi).substitute({psi: SuperPoly.var(x, -2) * P(theta)})
        assert got == SuperPoly.var(x, -2) * P(theta)

    def test_inverse_substitution_clears(self):
        x = even("x", invertible=True)
        c2 = even("c2", invertible=True)
        y = even("y", invertible=True)
        p = P(y) + P(c2)
        q = p.substitute({y: SuperPoly.var(x, -1)})
        assert P(x) * q == 1 + P(c2) * P(x)

    def test_parity_mismatch(self):
        r = standard_ring()
        with pytest.raises(ParityMismatch):
            P(r["x"]).substitute({r["x"]: P(r["alpha"])})

    def test_homomorphism_on_products(self, rng):
        r = standard_ring()
        x, a = r["x"], r["a"]
        repl = {x: P(a) + 1 + P(r["alpha"]) * P(r["theta"])}
        # x is invertible but the replacement is applied only at nonneg powers
        for _ in range(25):
            p = random_poly(rng, allow_laurent=False)
            q = random_poly(rng, allow_laurent=False)
            lhs = (p * q).substitute(repl)
            rhs = p.substitute(repl) * q.substitute(repl)
            assert lhs == rhs

    def test_substitution_composes(self, rng):
        r = standard_ring()
        a, b = r["a"], r["b"]
        sigma = {a: P(b) + 2}
        tau = {b: P(a) * P(a)}
        for _ in range(25):
            p = random_poly(rng, allow_laurent=False)
            once = p.substitute(sigma).substitute(tau)
            composed = {
                a: sigma[a].substitute(tau),
                b: tau[b],
            }
            assert once == p.substitute(composed)


class TestCoeff:
    def test_simple_extraction(self):
        r = standard_ring()
        x, theta = r["x"], r["theta"]
        a0, beta0 = even("a0"), odd("beta0")
        p = P(x) ** 2 + P(a0) * P(x) + P(beta0) * P(theta)
        split = {x, theta}
        assert p.coeff_of(SuperMonomial.make({x: 2}), split) == 1
        assert p.coeff_of(SuperMonomial.make({theta: 1}), split) == P(beta0)
        assert p.coeff_of(SuperMonomial.make({x: 1}), split) == P(a0)

    def test_reassembly(self, rng):
        r = standard_ring()
        split = {r["x"], r["theta"]}
        for _ in range(40):
            p = random_poly(rng)
            total = SuperPoly.zero()
            for sub, coeff in p.as_coeff_map(split).items():
                total = total + coeff * SuperPoly({sub: Fraction(1)})
            assert total == p


class TestRandomizedAxioms:
    def test_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(300):
            p = random_poly(rng)
            q = random_poly(rng)
            s = random_poly(rng)
            assert (p + q) + s == p + (q + s)
            assert p * (q * s) == (p * q) * s
            assert p * (q + s) == p * q + p * s

    def test_supercommutativity(self):
        rng = random.Random(11)
        checked = 0
        while checked < 150:
            p = random_poly(rng)
            q = random_poly(rng)
            pc, qc = p.parity_class(), q.parity_class()
            if ParityClass.MIXED in (pc, qc):
                continue
            sign = -1 if (pc is ParityClass.ODD and qc is ParityClass.ODD) else 1
            assert p * q == sign * (q * p)
            checked += 1

    def test_nilpotency_bound(self):
        rng = random.Random(13)
        for _ in range(60):
            p = random_poly(rng)
            n = p.soul()
            bound = len(n.odd_variables()) + 1
            acc = SuperPoly.one()
            for _ in range(bound):
                acc = acc * n
            assert acc == 0


class TestDiff:
    def test_power_rule(self):
        x = even("x", invertible=True)
        p = SuperPoly.var(x, 3) + 2 * SuperPoly.var(x, -1)
        assert p.diff(x) == 3 * SuperPoly.var(x, 2) - 2 * SuperPoly.var(x, -2)

    def test_odd_rejected(self):
        with pytest.raises(ParityMismatch):
            SuperPoly.one().diff(odd("alpha"))
