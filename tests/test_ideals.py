import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

import superhilb.ideals as ideals
from conftest import assert_certificate_fails, run_optimized
from superhilb.errors import (NonMonicDivisor, RankOrderViolation,
                              UnknownVariable)
from superhilb.ideals import (
    CanonicalIdeal,
    RawIdeal,
    _first_witness_expansion,
    _poly_from_coeffs,
    _verify_change,
    canonical_pair,
    kernel_witnesses,
    membership,
    raw_to_canonical,
    reduce_to_basis,
    stratification_generators,
    super_divmod,
)
from superhilb.parser import pretty
from superhilb.ring import SuperPoly, even, odd

V = SuperPoly.var


def basis_expansion(vec, ideal):
    """sum(evens_i x^i) + sum(odds_j x^j) * theta of a BasisVector."""
    return (_poly_from_coeffs(vec.evens, ideal.x)
            + _poly_from_coeffs(vec.odds, ideal.x) * V(ideal.theta))


def verify_reduction(poly, vec, ideal):
    """The reduction's identity: poly equals the basis expansion plus
    cofactor_f * f + cofactor_g * g."""
    recomposed = (
        basis_expansion(vec, ideal)
        + vec.cofactor_f * ideal.f
        + vec.cofactor_g * ideal.g
    )
    return recomposed == poly


def serialize(ideal):
    """The generator pair of a CanonicalIdeal as `f = ...` and `g = ...`
    lines."""
    return f"f = {pretty(ideal.f)}\ng = {pretty(ideal.g)}\n"


class TestSuperDivmod:
    def setup_method(self):
        self.x = even("x")
        self.theta = odd("theta")

    def test_self_division(self):
        ideal = CanonicalIdeal.generic(2, 1)
        bq = V(ideal.x) + V(ideal.b[0])
        quo, rem = super_divmod(bq, bq, ideal.x, ideal.theta)
        assert quo == 1 and rem == 0

    def test_cubic_by_linear(self):
        x = self.x
        quo, rem = super_divmod(V(x, 3), V(x) + 1, x, self.theta)
        assert quo == V(x, 2) - V(x) + 1
        assert rem == SuperPoly.const(-1)
        assert (V(x) + 1) * quo + rem == V(x, 3)

    def test_raw_f_decomposition_shape(self):
        raw = RawIdeal.generic(2, 1)
        divisor = V(raw.x) + V(raw.b[0])
        quo, rem = super_divmod(raw.f, divisor, raw.x, raw.theta)
        assert divisor * quo + rem == raw.f
        assert rem.degree_in(raw.x) in (None, 0)

    def test_multiply_back_random(self, rng):
        x, theta = self.x, self.theta
        u = even("u")
        mu = odd("mu")
        for _ in range(40):
            divisor = V(x, 2) + V(u) * V(x) + V(mu) * V(theta) * 0 + 1
            dividend = SuperPoly.zero()
            for e in range(rng.randint(0, 5)):
                c = Fraction(rng.randint(-4, 4))
                dividend = dividend + c * V(x, e)
                if rng.random() < 0.4:
                    dividend = dividend + V(mu) * V(x, e) * V(theta)
            quo, rem = super_divmod(dividend, divisor, x, theta)
            assert divisor * quo + rem == dividend
            assert (rem.degree_in(x) or 0) < 2

    def test_non_monic_rejected(self):
        x, theta = self.x, self.theta
        with pytest.raises(NonMonicDivisor):
            super_divmod(V(x, 2), 2 * V(x) + 1, x, theta)
        with pytest.raises(NonMonicDivisor):
            super_divmod(V(x), V(x) + V(theta), x, theta)

    def test_zero_divisor_rejected(self):
        with pytest.raises(NonMonicDivisor, match="divisor is zero"):
            super_divmod(V(self.x), SuperPoly.zero(), self.x, self.theta)

    def test_normal_form_of_negative_powers_rejected(self):
        """super_divmod shifts negative powers out first; the normal
        form itself refuses them."""
        x = even("xn", invertible=True)
        with pytest.raises(NonMonicDivisor,
                           match="dividend has negative x-powers"):
            ideals._normal_form(V(x, -1), x, V(x) - 1, 1)

    def test_degree_far_beyond_divisor(self):
        x = self.x
        quo, rem = super_divmod(V(x, 3000), V(x) - 1, x, self.theta)
        assert rem == 1
        assert len(quo.terms) == 3000
        assert (V(x) - 1) * quo + rem == V(x, 3000)


class TestRawToCanonical:
    def test_rank_one_zero(self):
        ch = raw_to_canonical(1, 0)
        raw = ch.raw
        # f = x + a0, g = theta + alpha0 after the (trivial) change
        assert ch.f_canonical == V(ch.x) + V(ch.a[0])
        assert ch.g_canonical == V(ch.theta) + V(ch.alpha[0])
        assert ch.c_poly == 0 and ch.gamma_poly == 0
        assert ch.forward[raw.a[0]] == V(ch.a[0])
        assert ch.forward[raw.beta[0]] == V(ch.alpha[0])

    def test_rank_one_one(self):
        ch = raw_to_canonical(1, 1)
        raw = ch.raw
        assert ch.f_canonical == V(ch.x) + V(ch.b[0]) + V(ch.beta[0]) * V(ch.theta)
        assert ch.g_canonical == (V(ch.x) + V(ch.b[0])) * V(ch.theta)
        assert ch.forward[raw.a[0]] == V(ch.b[0]) + V(ch.c[0])
        assert ch.forward[raw.b[0]] == V(ch.b[0])
        assert ch.forward[raw.alpha[0]] == V(ch.beta[0])
        assert ch.forward[raw.beta[0]] == V(ch.gamma[0])

    def test_zero_parameters_base_point(self):
        for p, q in [(1, 0), (2, 1), (3, 2), (2, 2)]:
            ch = raw_to_canonical(p, q)
            zeros = {s: SuperPoly.zero() for s in ch.backward}
            f0 = ch.f_canonical.substitute(zeros)
            g0 = ch.g_canonical.substitute(zeros)
            assert f0 == V(ch.x, p)
            assert g0 == V(ch.x, q) * V(ch.theta)

    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                     (3, 1), (3, 2), (4, 2), (4, 4)])
    def test_change_verifies(self, p, q):
        # raw_to_canonical asserts both substitution identities internally
        raw_to_canonical(p, q)

    def test_rank_violation(self):
        with pytest.raises(RankOrderViolation):
            raw_to_canonical(1, 2)

    def test_canonical_ideal_of_rank_zero(self):
        with pytest.raises(RankOrderViolation,
                           match="canonical ideals need p >= 1"):
            CanonicalIdeal.generic(0, 0)

    def test_golden_maps(self):
        """name=pretty(value) over forward and then backward, in dict
        order, for every rank (p|q) with p <= 6."""
        digest = hashlib.sha256()
        for p in range(7):
            for q in range(p + 1):
                ch = raw_to_canonical(p, q)
                for table in (ch.forward, ch.backward):
                    for s, value in table.items():
                        digest.update(f"{s.name}={pretty(value)}\n".encode())
        assert digest.hexdigest() == (
            "8903d86e1875669118a797dc05c552b8279f108cac2dc10345771299414bd08e")


class TestReduceToBasis:
    def test_high_power_needs_no_step_cap(self):
        ideal = CanonicalIdeal.generic(1, 0)
        poly = V(ideal.x, 3000)
        vec = reduce_to_basis(poly, ideal)
        assert vec.evens == (V(ideal.a[0], 3000),)
        assert verify_reduction(poly, vec, ideal)

    def test_generator_above_its_lead_rejected(self):
        x, theta = even("x"), odd("theta")
        ideal = CanonicalIdeal(
            2, 1, x, theta, (), (), (), (), V(x, 2) + V(x, 3), V(x) * V(theta)
        )
        with pytest.raises(NonMonicDivisor):
            reduce_to_basis(V(x, 5), ideal)

    def test_reduce_one(self):
        ideal = CanonicalIdeal.generic(2, 1)
        vec = reduce_to_basis(SuperPoly.one(), ideal)
        assert vec.evens[0] == 1 and vec.evens[1] == 0 and vec.odds[0] == 0
        assert verify_reduction(SuperPoly.one(), vec, ideal)

    def test_monomial_ideal_case(self):
        ideal = CanonicalIdeal.generic(2, 1)
        zeros = {
            s: SuperPoly.zero()
            for s in (*ideal.a, *ideal.b, *ideal.alpha, *ideal.beta)
        }
        base = ideal.with_values(zeros)
        assert reduce_to_basis(V(ideal.x, 3), base).is_zero()
        vec = reduce_to_basis(V(ideal.theta), base)
        assert vec.odds[0] == 1 and vec.evens == (SuperPoly.zero(),) * 2

    def test_with_values_drops_the_assigned_parameters(self):
        ideal = CanonicalIdeal.generic(4, 2)
        assert ideal.with_values({}) == ideal
        a0, b1, beta0 = ideal.a[0], ideal.b[1], ideal.beta[0]
        values = {b1: V(a0), beta0: SuperPoly.zero(), a0: SuperPoly.const(2)}
        fixed = ideal.with_values(values)
        assert (fixed.a, fixed.b, fixed.alpha, fixed.beta) == (
            ideal.a[1:], ideal.b[:1], ideal.alpha, ideal.beta[1:])
        assert fixed.f == ideal.f.substitute(values)
        assert fixed.g == ideal.g.substitute(values)

    @pytest.mark.parametrize("name", ["x", "theta", "c"])
    def test_with_values_refuses_a_non_parameter(self, name):
        ideal = CanonicalIdeal.generic(2, 1)
        symbol = {"x": ideal.x, "theta": ideal.theta, "c": even("c")}[name]
        with pytest.raises(UnknownVariable, match="not a parameter of the "
                           r"\(2\|1\) ideal"):
            ideal.with_values({symbol: SuperPoly.one()})

    def test_symbolic_reduction_with_certificate(self):
        ideal = CanonicalIdeal.generic(2, 1)
        poly = V(ideal.x) * ideal.g
        vec = reduce_to_basis(poly, ideal)
        assert verify_reduction(poly, vec, ideal)
        names = {v.name for e in (*vec.evens, *vec.odds) for v in e.variables()}
        assert names <= {"a0", "b0", "alpha0", "beta0"}

    def test_base_point_truncation(self, rng):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_poly

        x = even("x")
        theta = odd("theta")
        f0, g0 = canonical_pair(3, 1, x, theta, [0, 0], [0], [0, 0], [0])
        base = CanonicalIdeal(3, 1, x, theta, (), (), (), (), f0, g0)
        ring = {"x": x, "theta": theta, "u": even("u"), "mu": odd("mu")}
        for _ in range(25):
            p = random_poly(rng, ring=ring, allow_laurent=False)
            vec = reduce_to_basis(p, base)
            assert verify_reduction(p, vec, base)
            expect = SuperPoly(
                {
                    m: c
                    for m, c in p.terms.items()
                    if (m.exponent(theta) and m.exponent(x) < 1)
                    or (not m.exponent(theta) and m.exponent(x) < 3)
                }
            )
            assert basis_expansion(vec, base) == expect

    def test_linearity(self, rng):
        ideal = CanonicalIdeal.generic(2, 1)
        lam = V(even("lam"))
        mu = V(ideal.b[0])
        for e1 in range(4):
            p = V(ideal.x, e1)
            q = V(ideal.x, e1) * V(ideal.theta)
            combo = lam * p + mu * q
            vec = reduce_to_basis(combo, ideal)
            vp = reduce_to_basis(p, ideal)
            vq = reduce_to_basis(q, ideal)
            for i in range(2):
                assert vec.evens[i] == lam * vp.evens[i] + mu * vq.evens[i]
            assert vec.odds[0] == lam * vp.odds[0] + mu * vq.odds[0]

    def test_membership(self):
        ideal = CanonicalIdeal.generic(2, 1)
        assert membership(ideal.f, ideal)
        assert membership(ideal.g, ideal)
        assert not membership(SuperPoly.one(), ideal)
        alpha_p = V(ideal.alpha[0])
        witness = ideal.g * (V(ideal.theta) + alpha_p)
        assert membership(witness, ideal)

    def test_random_combinations_reduce_to_zero(self, rng):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_poly

        ideal = CanonicalIdeal.generic(2, 1)
        ring = {
            "x": ideal.x,
            "theta": ideal.theta,
            "a0": ideal.a[0],
            "alpha0": ideal.alpha[0],
        }
        for _ in range(20):
            u = random_poly(rng, ring=ring, allow_laurent=False, max_exp=2)
            v = random_poly(rng, ring=ring, allow_laurent=False, max_exp=2)
            combo = u * ideal.f + v * ideal.g
            assert membership(combo, ideal)


class TestKernelWitnesses:
    def test_two_one_pattern(self):
        h, k = kernel_witnesses(2, 1)
        c0 = V(even("c0"))
        gamma0 = V(odd("gamma0"))
        a0 = V(even("a0"))
        alpha0 = V(odd("alpha0"))
        assert h.odds[0] == c0
        assert h.evens[0] == c0 * alpha0 - a0 * gamma0
        assert h.evens[1] == -gamma0
        assert k.odds[0] == gamma0
        assert k.evens[0] == gamma0 * alpha0
        assert k.evens[1] == 0

    def test_zero_parameters_zero_witnesses(self):
        h, k = kernel_witnesses(3, 2)
        zeros = {}
        for vec in (h, k):
            for entry in (*vec.evens, *vec.odds):
                for v in entry.variables():
                    zeros[v] = SuperPoly.zero()
        for vec in (h, k):
            for entry in (*vec.evens, *vec.odds):
                assert entry.substitute(zeros) == 0

    def test_three_two_support(self):
        h, k = kernel_witnesses(3, 2)
        allowed = {"c0", "c1", "gamma0", "gamma1"}
        for vec in (h, k):
            for entry in (*vec.evens, *vec.odds):
                for mono in entry.terms:
                    assert any(v.name in allowed for v in mono.variables())

    def test_rank_violation(self):
        with pytest.raises(RankOrderViolation):
            kernel_witnesses(2, 0)


class TestStratification:
    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in range(0, 5) for q in range(0, p + 1)]
    )
    def test_counts_and_dimension(self, p, q):
        gens = stratification_generators(p, q)
        assert len(gens) == 2 * q
        names = sorted(str(list(g.terms)[0]) for g in gens)
        expected = sorted(
            [f"c{i}" for i in range(q)] + [f"gamma{i}" for i in range(q)]
        )
        assert names == expected

    def test_one_one(self):
        gens = stratification_generators(1, 1)
        assert len(gens) == 2

    def test_one_zero_empty(self):
        assert stratification_generators(1, 0) == []

    def test_rank_violation(self):
        with pytest.raises(RankOrderViolation):
            stratification_generators(1, 2)

    def test_one_coordinate_change(self, monkeypatch):
        import superhilb.ideals as ideals

        calls = []
        build = ideals.raw_to_canonical

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(ideals, "raw_to_canonical", counted)
        stratification_generators(2, 1)
        assert len(calls) == 1, calls

    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_no_basis_reduction(self, monkeypatch, p, q):
        """The certified first witness expansion shows both witnesses in
        (c, gamma), so the strata reduce nothing onto the basis."""
        calls = []
        reduce = ideals.reduce_to_basis

        def counted(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(ideals, "reduce_to_basis", counted)
        stratification_generators(p, q)
        assert calls == []

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_no_second_witness_expansion(self, monkeypatch, p, q):
        """The strata certify the first witness expansion only, so they
        never multiply g by theta + A."""
        change = raw_to_canonical(p, q)
        g = change.g_canonical + change.gamma_poly
        theta_a = V(change.theta) + _poly_from_coeffs(change.alpha, change.x)
        products = []
        mul = SuperPoly.__mul__

        def recorded(self, other):
            products.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(SuperPoly, "__mul__", recorded)
        stratification_generators(p, q)
        assert products and (g, theta_a) not in products


# The ranks of the benchmark's ideals-algebra workload.
RANKS = ((1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (6, 3), (8, 4), (12, 6),
         (12, 12))


class TestImpliedIdentities:
    """The identities that a certified one implies, so that the package
    does not check them again, computed here on every rank of RANKS."""

    @pytest.mark.parametrize("p,q", RANKS)
    def test_forward_o_backward(self, p, q):
        """Implied by backward o forward = identity, which makes forward
        onto, hence injective."""
        change = raw_to_canonical(p, q)
        to_raw = ideals.PowerTable(change.backward)
        raw = change.raw
        for s in (*raw.a, *raw.b, *raw.alpha, *raw.beta):
            assert change.forward[s].substitute(to_raw) == V(s), s.name

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in RANKS if q >= 1])
    def test_second_kernel_witness_expansion(self, p, q):
        """g(theta + A) = gamma(theta + A) follows from the first
        expansion, as x^(p-q) + a is monic."""
        change = raw_to_canonical(p, q)
        theta_a = V(change.theta) + _poly_from_coeffs(change.alpha, change.x)
        g = change.g_canonical + change.gamma_poly
        assert g * theta_a == change.gamma_poly * theta_a

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in RANKS if q >= 1])
    def test_kernel_witness_vanishes_on_the_stratum(self, p, q):
        """Each basis coordinate of both reduced witnesses vanishes at
        c = gamma = 0."""
        change = raw_to_canonical(p, q)
        residual = (*change.c, *change.gamma)
        free = (0,) * len(residual)
        for vec in kernel_witnesses(p, q):
            for entry in (*vec.evens, *vec.odds):
                assert free not in entry.coefficients(residual)


class TestSerialization:
    def test_canonical_serialize_round_trip(self):
        from superhilb.parser import RingDecl, parse_poly

        ideal = CanonicalIdeal.generic(2, 1)
        text = serialize(ideal)
        lines = [ln for ln in text.splitlines() if ln.strip()]
        ring = RingDecl(
            [ideal.x, ideal.theta, *ideal.a, *ideal.b, *ideal.alpha, *ideal.beta]
        )
        parsed = {}
        for ln in lines:
            name, expr = ln.split("=", 1)
            parsed[name.strip()] = parse_poly(expr.strip(), ring)
        assert parsed["f"] == ideal.f
        assert parsed["g"] == ideal.g


class TestLeadingCoefficients:
    def test_canonical_leads_are_one(self):
        from superhilb.ring import SuperMonomial

        for p, q in [(1, 0), (2, 1), (3, 2), (4, 4)]:
            ideal = CanonicalIdeal.generic(p, q)
            split = {ideal.x, ideal.theta}
            assert ideal.f.coeff_of(
                SuperMonomial.make({ideal.x: p}), split
            ) == 1
            assert ideal.g.coeff_of(
                SuperMonomial.make({ideal.x: q, ideal.theta: 1}), split
            ) == 1


class TestCertificatesUnderOptimize:
    def test_tampered_coordinate_change_raises(self):
        """The coordinate-change identities are real checks: python -O
        keeps them."""
        done = run_optimized("""
            from superhilb.errors import CertificateError
            from superhilb.ideals import _verify_change, raw_to_canonical

            change = raw_to_canonical(2, 1)
            s = change.raw.a[0]
            change.forward[s] = change.forward[s] + 1
            try:
                _verify_change(change)
            except CertificateError as exc:
                print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("CertificateError")
        assert "even generator image" in done.stdout


class TestEachCertificateFires:
    """Each certificate of the coordinate change, the kernel witnesses
    and the strata raises CertificateError on a tampered step; see
    `assert_certificate_fails`."""

    def test_odd_generator_image(self, monkeypatch):
        change = raw_to_canonical(2, 1)
        s = change.raw.beta[0]  # a coefficient of the odd generator only
        monkeypatch.setitem(change.forward, s,
                            change.forward[s] + V(change.gamma[0]))
        assert_certificate_fails("odd generator image", _verify_change,
                                 change)

    def test_backward_o_forward(self, monkeypatch):
        change = raw_to_canonical(2, 1)
        a0 = change.a[0]
        monkeypatch.setitem(change.backward, a0, change.backward[a0] + 1)
        assert_certificate_fails("backward o forward is the identity on a0",
                                 _verify_change, change)

    def test_first_kernel_witness_expansion(self):
        change = raw_to_canonical(2, 1)
        tampered = replace(change, f_canonical=change.f_canonical + 1)
        assert_certificate_fails("first kernel witness expansion",
                                 _first_witness_expansion, tampered)

    def test_witness_lies_in_the_basis_span(self, monkeypatch):
        reduce = ideals.reduce_to_basis
        monkeypatch.setattr(
            ideals, "reduce_to_basis",
            lambda poly, ideal: replace(reduce(poly, ideal),
                                        cofactor_f=V(ideal.x)))
        assert_certificate_fails("witness lies in the basis span",
                                 kernel_witnesses, 2, 1)
