import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from superhilb.errors import (ExponentOverflow, NegativePowerOfNonInvertible,
                              NotAUnit, ParityMismatch)
from superhilb.ideals import super_divmod
from superhilb.localized import LocalizedPoly
from superhilb.parser import RingDecl, parse_poly, pretty
from superhilb.ring import (
    EXPONENT_LIMIT,
    ParityClass,
    PowerTable,
    SuperMonomial,
    SuperPoly,
    even,
    invert,
    odd,
)

from conftest import random_poly, run_optimized, standard_ring


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
        with pytest.raises(NotAUnit, match=r"unit part a\*x\^2 involves"):
            invert(P(r["x"]) * P(r["a"]) * P(r["x"]))  # factors by name
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

    def test_integral_coefficients_are_ints(self):
        x, theta = even("x", invertible=True), odd("theta")
        p = (Fraction(1, 2) * SuperPoly.var(x, 2)
             + Fraction(1, 3) * SuperPoly.var(x, -3) * P(theta)
             + Fraction(1, 4) * SuperPoly.var(x, 3))
        expected = (SuperPoly.var(x) - SuperPoly.var(x, -4) * P(theta)
                    + Fraction(3, 4) * SuperPoly.var(x, 2))
        assert _typed(p.diff(x)) == _typed(expected)


class TestSymbolComparison:
    def test_polynomial_equals_its_symbol(self):
        r = standard_ring()
        for v in (r["x"], r["a"], r["alpha"]):
            assert P(v) == v
            assert v == P(v)
            assert not P(v) != v
        assert P(r["x"]) != r["a"]
        assert r["a"] != P(r["x"])
        assert P(r["x"]) + 1 != r["x"]

    def test_symbol_times_polynomial_keeps_the_order(self):
        alpha, beta = odd("alpha"), odd("beta")
        assert alpha * P(beta) == P(alpha) * P(beta)
        assert alpha * LocalizedPoly(P(beta)) == P(alpha) * P(beta)
        assert 2 * P(beta) == P(beta) * 2


class TestMixedOperands:
    def test_polynomial_defers_to_a_localized_operand(self):
        """SuperPoly operators return NotImplemented for a LocalizedPoly,
        so its reflected operators run, in the written order."""
        alpha, beta, x = odd("alpha"), odd("beta"), even("x")
        ab = P(alpha) * P(beta)
        assert P(alpha) * LocalizedPoly(P(beta)) == ab
        assert P(beta) * LocalizedPoly(P(alpha)) == -ab
        assert P(x) + LocalizedPoly(P(alpha)) == P(x) + P(alpha)
        assert P(x) - LocalizedPoly(P(alpha)) == P(x) - P(alpha)
        assert isinstance(P(x) * LocalizedPoly(P(x)), LocalizedPoly)

    def test_an_inexact_operand_is_refused(self):
        with pytest.raises(TypeError):
            P(even("x")) * 0.5
        with pytest.raises(TypeError):
            0.5 + P(even("x"))


# Run in a fresh interpreter so that zeta is interned before alpha: the
# kernel then stores alpha*zeta in the opposite order to the names.
_OUT_OF_NAME_ORDER = """
    import json, random
    from fractions import Fraction
    from superhilb.parser import RingDecl, parse_poly, pretty
    from superhilb.ring import SuperMonomial, SuperPoly, even, odd

    zeta, mu, alpha = odd("zeta"), odd("mu"), odd("alpha")
    y, b = even("y"), even("b", invertible=True)
    ODD = {"zeta", "mu", "alpha"}
    ring = RingDecl([zeta, mu, alpha, y, b])

    def named(p):
        return {tuple((v.name, e) for v, e in m.factors): c
                for m, c in p.terms.items()}

    def reference_product(p, q):
        # monomials sorted by name, with the Koszul sign of the merge
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                o1 = [n for n, _ in m1 if n in ODD]
                o2 = [n for n, _ in m2 if n in ODD]
                if set(o1) & set(o2):
                    continue
                sign = (-1) ** sum(u > v for u in o1 for v in o2)
                exps = dict(m1)
                for n, e in m2:
                    exps[n] = exps.get(n, 0) + e
                m = tuple(sorted((n, e) for n, e in exps.items() if e))
                out[m] = out.get(m, 0) + sign * c1 * c2
        return {m: c for m, c in out.items() if c}

    rng = random.Random(17)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = {v: 1 for v in (zeta, mu, alpha) if rng.random() < 0.5}
            exps[y] = rng.randint(0, 2)
            exps[b] = rng.randint(-2, 2)
            terms[SuperMonomial.make(exps)] = Fraction(rng.randint(-5, 5), 2)
        return SuperPoly(terms)

    Z, A = SuperPoly.var(zeta), SuperPoly.var(alpha)
    mismatches = round_trips = 0
    for _ in range(300):
        p, q = random_poly(), random_poly()
        s = p + q
        for lhs, rhs, got in ((p, q, p * q), (s, p, s * p), (q, s, q * s)):
            mismatches += named(got) != reference_product(named(lhs),
                                                          named(rhs))
            round_trips += parse_poly(pretty(got), ring) != got
    print(json.dumps({
        "indices": [zeta.index, alpha.index],
        "zeta*alpha": pretty(Z * A), "alpha*zeta": pretty(A * Z),
        "terms": [[repr(m), str(c)] for m, c in (Z * A).terms.items()],
        "sum": pretty((Z + A) * (Z - A) + 3 * Z * A),
        "mismatches": mismatches, "round_trips": round_trips,
    }))
"""


class TestNameOrderSigns:
    def test_intern_order_differs_from_name_order(self):
        done = run_optimized(_OUT_OF_NAME_ORDER)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got["indices"] == [0, 2]
        assert got["zeta*alpha"] == "- alpha*zeta"
        assert got["alpha*zeta"] == "alpha*zeta"
        assert got["terms"] == [["alpha*zeta", "-1"]]
        # (z + a)(z - a) + 3za = -za + az + 3za = za = -alpha*zeta
        assert got["sum"] == "- alpha*zeta"
        assert got["mismatches"] == 0
        assert got["round_trips"] == 0


class TestSharedNames:
    """Two distinct variables of one name have no name order: every view
    that orders by name raises on a value holding both, while arithmetic,
    which goes by symbol, is exact on it."""

    def test_product_of_two_symbols_with_one_name_raises(self):
        """The products form; their name-ordered views raise."""
        c, c_inv = even("c"), even("c", invertible=True)
        for product in (P(c) * P(c_inv), (P(c_inv) + 1) * (P(c) ** 2 - 3)):
            with pytest.raises(ValueError, match="share the name 'c'"):
                pretty(product)
            with pytest.raises(ValueError, match="share the name 'c'"):
                product.named_terms()

    def test_viewing_a_term_holding_both_raises(self):
        c, c_inv = even("c"), even("c", invertible=True)
        term = SuperPoly.from_products([(1, [(c_inv, 1), (c, 2)])])
        views = (term.named_rows, term.named_terms, lambda: list(term.terms),
                 lambda: pretty(term),
                 lambda: term.as_coeff_map([c, c_inv]),
                 lambda: SuperPoly({SuperMonomial.make({c: 2, c_inv: 1}): 1}))
        for view in views:
            with pytest.raises(ValueError, match="share the name 'c'"):
                view()

    def test_printing_a_sum_holding_both_raises(self):
        c, c_inv = even("c"), even("c", invertible=True)
        with pytest.raises(ValueError, match="share the name 'c'"):
            pretty(P(c) + P(c_inv))
        assert "share the name 'c'" in repr(P(c) + P(c_inv))

    def test_arithmetic_on_both_is_exact(self):
        c, c_inv = even("c"), even("c", invertible=True)
        product = P(c) * P(c_inv)
        assert product.coefficients((c, c_inv)) == {(1, 1): SuperPoly.one()}
        assert product.coefficients((c_inv,)) == {(1,): P(c)}
        assert product.substitute({c: 2}) == 2 * P(c_inv)
        assert product.substitute({c: 2, c_inv: 3}) == 6
        assert product * SuperPoly.var(c_inv, -1) == P(c)

    def test_products_scan_no_support_with_a_clash_interned(self, monkeypatch):
        c, c_inv = even("c"), even("c", invertible=True)
        support, calls = SuperPoly._support, [0]

        def counted(self):
            calls[0] += 1
            return support(self)

        monkeypatch.setattr(SuperPoly, "_support", counted)
        p, q = P(c) + 1, P(c_inv) - 2
        for _ in range(50):
            p * q
            SuperPoly.dot([(p, q)])
        assert calls[0] == 0

    def test_each_symbol_alone_still_multiplies(self):
        c, c_inv = even("c"), even("c", invertible=True)
        assert P(c) * P(c) == SuperPoly.var(c, 2)
        assert P(c_inv) * SuperPoly.var(c_inv, -1) == 1
        assert (P(c) + P(c_inv)).variables() == {c, c_inv}


class TestExponentRange:
    @pytest.mark.parametrize("n", [Fraction(1, 2), 1.5, 2.0],
                             ids=["fraction", "float", "integral-float"])
    def test_non_integer_exponent_raises(self, n):
        """A power refuses a non-int exponent, as a product refuses an
        inexact coefficient; a bool counts as an int."""
        x = P(even("x", invertible=True))
        with pytest.raises(TypeError, match="exponent is not an int"):
            x ** n
        assert x ** True == x

    def test_negative_power_needs_invertible(self):
        x = even("x")
        with pytest.raises(NegativePowerOfNonInvertible, match="variable x"):
            SuperPoly.var(x, -1)

    def test_power_beyond_the_range_raises(self):
        x = even("x", invertible=True)
        with pytest.raises(ExponentOverflow):
            SuperPoly.var(x, 2 ** 40)
        with pytest.raises(ExponentOverflow):
            SuperMonomial.make({x: -2 ** 40})
        with pytest.raises(ExponentOverflow):
            parse_poly("x^1099511627776", RingDecl([x]))

    def test_square_past_the_range_raises(self):
        x = even("x", invertible=True)
        assert SuperPoly.var(x, 16000) ** 2 == SuperPoly.var(x, 32000)
        with pytest.raises(ExponentOverflow):
            SuperPoly.var(x, 2 ** 14) ** 2
        with pytest.raises(ExponentOverflow):
            SuperPoly.var(x, -20000) * SuperPoly.var(x, -20000)

    def test_content_range_is_each_variables_spread(self):
        """The exponents left after dividing out the content reach each
        variable's largest minus its least exponent, which must fit."""
        x = even("x", invertible=True)
        exps, rest = (SuperPoly.var(x, 20000) + SuperPoly.var(x, -100)).content()
        assert exps == {x: -100}
        assert rest == SuperPoly.var(x, 20100) + 1
        with pytest.raises(ExponentOverflow):
            (SuperPoly.var(x, 30000) + SuperPoly.var(x, -30000)).content()

    def test_product_range_uses_each_variables_exponents(self):
        """Past the limit the check sums each variable's least and largest
        exponents, so exponents of opposite signs cancel and fit."""
        x, y = even("x", invertible=True), even("y", invertible=True)
        ring = RingDecl([x, y])
        fits = SuperPoly.var(x, 30000) * SuperPoly.var(x, -29000)
        assert fits == SuperPoly.var(x, 1000)
        assert parse_poly("x^30000*x^-29000", ring) == SuperPoly.var(x, 1000)
        mixed = (SuperPoly.var(x, 30000) + SuperPoly.var(y, -30000)) * (
            SuperPoly.var(x, -30000) + SuperPoly.var(y, 30000))
        assert mixed == 2 + SuperPoly.var(x, 30000) * SuperPoly.var(
            y, 30000) + SuperPoly.var(x, -30000) * SuperPoly.var(y, -30000)
        with pytest.raises(ExponentOverflow):
            SuperPoly.var(x, 2 ** 14) * SuperPoly.var(x, 2 ** 14)
        with pytest.raises(ExponentOverflow):
            parse_poly("x^16384*x^16384", ring)
        with pytest.raises(ExponentOverflow):
            (SuperPoly.var(x, -30000) + 1) * (SuperPoly.var(x, -3000) + y)

    def test_range_is_checked_on_exact_exponents(self):
        x = even("x", invertible=True)
        top = SuperPoly.var(x, EXPONENT_LIMIT)
        # a cancelled sum keeps a loose bound; the product goes through
        # once the exact exponents are seen to fit
        shrunk = (top + 1) - top
        assert shrunk * top == top
        assert top.diff(x) == EXPONENT_LIMIT * SuperPoly.var(
            x, EXPONENT_LIMIT - 1)
        with pytest.raises(ExponentOverflow):
            SuperPoly.var(x, -EXPONENT_LIMIT).diff(x)


def _typed(p):
    """The normal form with each coefficient's type, which == ignores."""
    return {m: {k: (type(c), c) for k, c in part.items()}
            for m, part in p._parts.items()}


def _outcome(compute):
    """The typed result of compute(), or the type of the error it raised."""
    try:
        return _typed(compute())
    except (ExponentOverflow, ValueError) as exc:
        return type(exc)


def _printed(p):
    """pretty(p), or the type of the error it raised."""
    try:
        return pretty(p)
    except ValueError as exc:
        return type(exc)


class TestDot:
    # interned here, in the opposite order to their names
    ODDS = [odd(f"dot_o{c}") for c in "zyxw"]
    Y, T = even("dot_y"), even("dot_t", invertible=True)

    def random_poly(self, rng):
        """Up to four terms over the odds, y^0..2 and t^-3..3, with
        coefficients over denominators 1, 2, 3, 5 and 12, or zero."""
        terms = []
        for _ in range(rng.randint(0, 4)):
            factors = [(v, 1) for v in rng.sample(self.ODDS, rng.randint(0, 3))]
            factors += [(self.Y, rng.randint(0, 2)), (self.T, rng.randint(-3, 3))]
            c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 12)))
            terms.append((c, factors))
        return SuperPoly.from_products(terms)

    def test_equals_the_sum_of_products(self):
        rng = random.Random(4417)
        for _ in range(300):
            pairs = [(self.random_poly(rng), self.random_poly(rng))
                     for _ in range(rng.randint(0, 5))]
            expected = SuperPoly.sum(a * b for a, b in pairs)
            got = SuperPoly.dot(pairs)
            assert _typed(got) == _typed(expected)
            # operands already scaled once give the same sum again
            assert _typed(SuperPoly.dot(pairs)) == _typed(expected)

    def test_edge_operands(self):
        ys, t = P(self.Y), P(self.T)
        half = Fraction(1, 2) * ys
        assert _typed(SuperPoly.dot([])) == {}
        assert _typed(SuperPoly.dot([(0, ys), (ys, SuperPoly.zero())])) == {}
        # Fractions whose products are integral give int coefficients
        got = SuperPoly.dot([(half, 2 * t), (Fraction(1, 3), 3)])
        assert _typed(got) == _typed(ys * t + 1)
        assert SuperPoly.dot([(half, half), (t, Fraction(3, 4) * ys)]) == (
            Fraction(1, 4) * ys * ys + Fraction(3, 4) * t * ys)
        # terms that cancel across pairs leave no key and no empty mask
        w = P(self.ODDS[0])
        assert _typed(SuperPoly.dot([(half * w, t), (-t, w * half)])) == {}

    def test_raises_where_a_product_would(self):
        x = even("dot_x", invertible=True)
        c, c_inv = even("dot_c"), even("dot_c", invertible=True)
        big, tiny = SuperPoly.var(x, 20000), SuperPoly.var(x, -20000)
        cases = [
            [(big, big)],
            [(P(c), 1), (Fraction(1, 3) * big, big)],
            [(big, tiny), (tiny + 1, tiny)],
            [(big, SuperPoly.zero()), (SuperPoly.zero(), big)],
            [(P(c), Fraction(1, 2) * P(c_inv))],
            [(P(c), P(c)), (P(c_inv), P(c_inv) + 1)],
            [(big, big), (P(c), P(c_inv))],
            [(P(c), P(c_inv)), (big, big)],
        ]
        outcomes = []
        for pairs in cases:
            expected = _outcome(lambda: SuperPoly.sum(a * b for a, b in pairs))
            assert _outcome(lambda: SuperPoly.dot(pairs)) == expected
            if isinstance(expected, type):
                outcomes.append(expected)
                continue
            # a product of dot_c and invertible dot_c forms, and the text
            # of the sum raises as that of the products' sum does
            text = _printed(SuperPoly.dot(pairs))
            assert text == _printed(SuperPoly.sum(a * b for a, b in pairs))
            outcomes.append(text if isinstance(text, type) else dict)
        assert outcomes == [ExponentOverflow, ExponentOverflow, ExponentOverflow,
                            dict, ValueError, ValueError, ExponentOverflow,
                            ExponentOverflow]


class TestAddition:
    """`+` and `-` are `SuperPoly.sum` of the operands (the second one
    negated), coefficient types included, and leave both operands as
    they were."""

    ODDS, Y, T = TestDot.ODDS, TestDot.Y, TestDot.T
    random_poly = TestDot.random_poly

    def test_matches_sum_and_keeps_operands(self):
        rng = random.Random(2613)
        zero = SuperPoly.zero()
        pairs = [(self.random_poly(rng), self.random_poly(rng))
                 for _ in range(300)]
        a = self.random_poly(rng) + P(self.ODDS[0]) * Fraction(1, 2)
        pairs += [(a, -a), (a, a), (a, zero), (zero, a), (zero, zero)]
        for a, b in pairs:
            before = (_typed(a), a._bound, _typed(b), b._bound)
            for got, expected in ((a + b, SuperPoly.sum((a, b))),
                                  (a - b, SuperPoly.sum((a, -b)))):
                assert _typed(got) == _typed(expected)
                assert got._bound == expected._bound
            assert (_typed(a), a._bound, _typed(b), b._bound) == before


class TestKernelLoops:
    def test_arithmetic_builds_no_boundary_monomials(self, monkeypatch, rng):
        """Products, sums, substitution, powers, derivatives, inverses and
        the normal form run on packed keys; `SuperMonomial` is built only
        by the name-ordered views."""
        r = standard_ring()
        polys = [random_poly(rng, max_terms=5) for _ in range(30)]
        table = PowerTable({r["a"]: P(r["b"]) + 2,
                            r["theta"]: P(r["alpha"]) * P(r["x"])})
        unit = 3 * P(r["x"]) + P(r["alpha"]) * P(r["beta"])
        divisor = SuperPoly.var(r["a"], 2) + P(r["b"]) * P(r["gamma"])
        built = []
        monkeypatch.setattr(SuperMonomial, "__init__",
                            lambda self, factors: built.append(factors))
        for p, q in zip(polys, polys[1:]):
            p * q, p + q, p - q, SuperPoly.sum((p, q, p)), p ** 3
            SuperPoly.dot(((p, q), (q, p)))
            p.substitute(table), p.diff(r["x"]), invert(unit + p.soul())
            super_divmod(p * SuperPoly.var(r["a"], 3), divisor, r["a"])
        assert built == []

    def test_engines_build_no_boundary_monomials(self, monkeypatch):
        """Atlases, cocycle checks, coboundary decisions, coordinate
        changes, strata and the atlas text round trip read polynomials
        through `coefficients` and build them with `from_products`; the
        name-ordered views serve only printing, tests and the public API.
        The term count `len(p.terms)` builds no monomial, and neither does
        a family whose leading coefficient is not a unit."""
        from superhilb.charts import (Ambient, IdealOnChart, SuperChart,
                                      atlas_from_text, atlas_to_text,
                                      canonicalize, hilb21_atlas,
                                      verify_cocycle)
        from superhilb.errors import NotCanonicalizable
        from superhilb.ideals import (raw_to_canonical,
                                      stratification_generators)
        from superhilb.obstruction import is_coboundary

        amb = Ambient.fresh(0)
        c = even("cnc")  # not invertible: the lead c*x + 1 is no unit
        x, theta = amb.coords("x")
        family = IdealOnChart(SuperChart("C", (c,), ()), "x", (
            (P(c) * P(x) + 1) * (P(x) + 1), (P(c) * P(x) + 1) * P(theta)))
        built, init = [], SuperMonomial.__init__

        def counted(self, factors):
            built.append(factors)
            init(self, factors)

        monkeypatch.setattr(SuperMonomial, "__init__", counted)
        for k in (-3, 0, 4):
            atlas = hilb21_atlas(k)
            assert verify_cocycle(atlas) == (True, None)
            assert is_coboundary(k, atlas).split == (k == 0)
        raw_to_canonical(3, 1)
        stratification_generators(3, 2)
        with pytest.raises(NotCanonicalizable):
            canonicalize(family, 2, 1, amb)
        text = atlas_to_text(atlas)
        assert atlas_to_text(atlas_from_text(text)) == text
        assert all(len(rule.num.terms) for tmap in atlas.transitions.values()
                   for rule in tmap.rules.values())
        assert len(built) == 0, len(built)


class TestInterning:
    def test_concurrent_interning_gives_distinct_indices(self):
        """Eight threads intern overlapping odd names at a short switch
        interval; each name gets one symbol, and no two symbols one bit."""
        names = [f"stress{i}" for i in range(40)]
        got = [[] for _ in range(8)]

        def work(out, offset):
            for i in range(len(names)):
                out.append(odd(names[(i + offset) % len(names)]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out, 5 * j))
                       for j, out in enumerate(got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        symbols = {v.name: v for out in got for v in out}
        assert all(len(out) == len(names) for out in got)
        assert all(v is symbols[v.name] for out in got for v in out)
        assert len({v.index for v in symbols.values()}) == len(names)
