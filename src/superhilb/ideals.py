"""Canonical ideals of 0-dimensional families on the (1|1) affine
superline, super long division, reduction onto the (p|q) monomial basis,
and the flattening-stratification generators.

A rank-(p|q) family with q <= p has the canonical presentation

    f = (x^q + b)(x^{p-q} + a) + B (theta + A)
    g = (x^q + b)(theta + A)

with a = sum a_i x^i (i < p-q), b = sum b_i x^i (i < q), A = sum
alpha_i x^i (i < p-q) odd, B = sum beta_i x^i (i < q) odd.  The raw
presentation (general coefficients on x^i and x^i*theta) reduces to this
shape plus residual terms sum c_i x^i and sum gamma_i x^i; the residuals
cut out the locus where the family really is flat of rank (p|q).

Long division, basis reduction and the pair reduction behind chart
canonicalization all run through one normal-form sweep, `_normal_form`,
which terminates for every input degree without a step cap.  A failed
construction identity raises CertificateError, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CertificateError, NonMonicDivisor, RankOrderViolation,
                     UnknownVariable)
from .ring import PowerTable, SuperPoly, VarSymbol, even, odd


def _check_rank(p: int, q: int):
    if not (0 <= q <= p):
        raise RankOrderViolation(f"need 0 <= q <= p, got (p, q) = ({p}, {q})")


def _certify(holds: bool, what: str):
    """Raise CertificateError unless the identity holds; a real check,
    kept under python -O."""
    if not holds:
        raise CertificateError(f"certificate failed: {what}")


def _poly_from_coeffs(coeffs, x: VarSymbol) -> SuperPoly:
    return SuperPoly.sum(SuperPoly.promote(c) * SuperPoly.var(x, i)
                         for i, c in enumerate(coeffs))


def coeff_list(poly: SuperPoly, x: VarSymbol, length: int):
    """Coefficients of 1, x, ..., x^{length-1}; fails if higher powers remain."""
    out = [SuperPoly.zero()] * length
    for (e,), coeff in poly.coefficients((x,)).items():
        if e >= length or e < 0:
            raise ValueError(f"unexpected x-degree {e}")
        out[e] = coeff
    return out


# ---------------------------------------------------------------------------
# Normal form modulo monic generators


def _split(poly: SuperPoly, x, theta):
    """{(x-degree, theta-exponent, odd degree of the term): coefficient},
    split on x alone when theta is None."""
    out = {}
    for exps, coeff in poly.coefficients((x,) if theta is None
                                         else (x, theta)).items():
        e, eps = exps if theta is not None else (exps[0], 0)
        for d, part in coeff.by_odd_degree().items():
            out[(e, eps, d)] = part
    return out


def _merge_levels(buckets):
    """{(e, eps, d): c} -> {(e, eps): sum over d}; the parts share no term."""
    out = {}
    for (e, eps, _), coeff in buckets.items():
        out.setdefault((e, eps), []).append(coeff)
    return {key: SuperPoly.sum(parts) for key, parts in out.items()}


def _join(buckets, x, theta) -> SuperPoly:
    """The sum of coeff * x^e theta^eps over {(e, eps): coeff}."""
    def monomial(e, eps):
        power = SuperPoly.var(x, e)
        return power * SuperPoly.var(theta) if eps else power

    return SuperPoly.sum(coeff * monomial(e, eps)
                         for (e, eps), coeff in buckets.items())


def _normal_form(dividend: SuperPoly, x: VarSymbol, f: SuperPoly, p: int,
                 g: SuperPoly | None = None, theta: VarSymbol | None = None,
                 q: int = 0):
    """Normal form of dividend modulo f (lead x^p) alone, or modulo the
    pair f (lead x^p) and g (lead x^q theta).

    Returns ({(e, eps): c}, cofactors) with one cofactor per generator and
    dividend = sum(c * x^e theta^eps) + sum(cofactor * generator).  With
    f alone the split is on x only and theta stays in the coefficients.

    Buckets (e, eps, d), d the odd degree of a coefficient term, rank by
    (-d, e + eps*(p - q), 1 - eps).  The sweep takes d = 0, 1, ... in turn
    and the weights from the top down to p, clearing each reducible bucket
    with one multiple c*x^s of its generator.  No step cap is needed:
    every non-leading bucket of a generator must rank below its lead
    (NonMonicDivisor otherwise; d >= 1 always does, as products add odd
    degrees), so a multiple writes only into buckets ranked below the one
    it clears, each bucket is cleared once, and d is bounded by the
    number of odd variables.
    """
    split_theta = None if g is None else theta
    gens = []
    for gen, (lead_e, lead_eps) in ((f, (p, 0)), (g, (q, 1))):
        if gen is None:
            continue
        tail = _split(gen, x, split_theta)
        if tail.pop((lead_e, lead_eps, 0), None) != SuperPoly.one():
            raise NonMonicDivisor("leading coefficient is not 1")
        lead_rank = (p, 1 - lead_eps)
        if any(e < 0 or (d == 0 and (e + eps * (p - q), 1 - eps) >= lead_rank)
               for e, eps, d in tail):
            raise NonMonicDivisor("a non-leading term outranks the lead")
        gens.append((lead_eps, tail.items(), {}))
    rem = _split(dividend, x, split_theta)
    if any(e < 0 for e, _, _ in rem):
        raise NonMonicDivisor("dividend has negative x-powers")

    level = 0
    while any(d >= level for _, _, d in rem):
        top = max((e + eps * (p - q) for e, eps, d in rem if d == level),
                  default=p)
        for weight in range(top, p - 1, -1):
            s = weight - p  # the shift x^s is the same for both generators
            for eps, tail, quotient in gens:
                c = rem.pop((weight - eps * (p - q), eps, level), None)
                if c is None:
                    continue
                quotient[(s, 0, level)] = c
                for (e, eps2, d), coeff in tail:
                    key = (s + e, eps2, level + d)
                    value = rem.get(key, SuperPoly.zero()) - c * coeff
                    if value.is_zero():
                        rem.pop(key, None)
                    else:
                        rem[key] = value
        level += 1

    return _merge_levels(rem), [
        _join(_merge_levels(quotient), x, theta) for _, _, quotient in gens
    ]


def super_divmod(dividend: SuperPoly, divisor: SuperPoly, x: VarSymbol,
                 theta: VarSymbol | None = None):
    """Divide by a divisor monic in x whose coefficients are free of x
    (and of theta when given).  Returns (quotient, remainder) with the
    remainder of x-degree strictly below the divisor's.  Negative powers
    of an invertible x in the dividend are shifted out by a power of x
    and shifted back into the quotient and the remainder."""
    deg = divisor.degree_in(x)
    if deg is None:
        raise NonMonicDivisor("divisor is zero")
    if theta is not None and divisor.degree_in(theta):
        raise NonMonicDivisor("divisor coefficients involve theta")
    low = dividend.min_degree_in(x) or 0
    if low < 0:
        quotient, rem = super_divmod(dividend * SuperPoly.var(x, -low),
                                     divisor, x, theta)
        back = SuperPoly.var(x, low)
        return quotient * back, rem * back
    rem, (quotient,) = _normal_form(dividend, x, divisor, deg)
    return quotient, _join(rem, x, theta)


# ---------------------------------------------------------------------------
# Ideal presentations


@dataclass(frozen=True)
class RawIdeal:
    """Generators x^p + sum a_i x^i + sum alpha_i x^i theta and
    x^q theta + sum b_i x^i theta + sum beta_i x^i, with free coefficients."""

    p: int
    q: int
    x: VarSymbol
    theta: VarSymbol
    a: tuple  # p even symbols
    b: tuple  # q even symbols
    alpha: tuple  # q odd symbols
    beta: tuple  # p odd symbols
    f: SuperPoly
    g: SuperPoly

    @staticmethod
    def generic(p: int, q: int) -> "RawIdeal":
        _check_rank(p, q)
        x = even("x")
        theta = odd("theta")
        a = tuple(even(f"at{i}") for i in range(p))
        b = tuple(even(f"bt{i}") for i in range(q))
        alpha = tuple(odd(f"alphat{i}") for i in range(q))
        beta = tuple(odd(f"betat{i}") for i in range(p))
        f = (SuperPoly.var(x, p) + _poly_from_coeffs(a, x)
             + _poly_from_coeffs(alpha, x) * SuperPoly.var(theta))
        g = ((SuperPoly.var(x, q) + _poly_from_coeffs(b, x))
             * SuperPoly.var(theta) + _poly_from_coeffs(beta, x))
        return RawIdeal(p, q, x, theta, a, b, alpha, beta, f, g)


def _parameters(p: int, q: int):
    """The canonical parameter symbols (a, b, alpha, beta) of rank (p|q)."""
    return (tuple(even(f"a{i}") for i in range(p - q)),
            tuple(even(f"b{i}") for i in range(q)),
            tuple(odd(f"alpha{i}") for i in range(p - q)),
            tuple(odd(f"beta{i}") for i in range(q)))


def canonical_pair(p, q, x, theta, a_vals, b_vals, alpha_vals, beta_vals):
    """Build (f, g) of the canonical shape from coefficient values."""
    _check_rank(p, q)
    bq = SuperPoly.var(x, q) + _poly_from_coeffs(b_vals, x)
    apq = SuperPoly.var(x, p - q) + _poly_from_coeffs(a_vals, x)
    theta_a = SuperPoly.var(theta) + _poly_from_coeffs(alpha_vals, x)
    beta_poly = _poly_from_coeffs(beta_vals, x)
    f = bq * apq + beta_poly * theta_a
    g = bq * theta_a
    return f, g


@dataclass(frozen=True)
class CanonicalIdeal:
    p: int
    q: int
    x: VarSymbol
    theta: VarSymbol
    a: tuple
    b: tuple
    alpha: tuple
    beta: tuple
    f: SuperPoly
    g: SuperPoly

    @staticmethod
    def generic(p: int, q: int) -> "CanonicalIdeal":
        _check_rank(p, q)
        if p < 1:
            raise RankOrderViolation("canonical ideals need p >= 1")
        x, theta, params = even("x"), odd("theta"), _parameters(p, q)
        f, g = canonical_pair(p, q, x, theta, *params)
        return CanonicalIdeal(p, q, x, theta, *params, f, g)

    def with_values(self, values) -> "CanonicalIdeal":
        """This ideal with the parameters in `values` replaced by the given
        polynomials and dropped from a, b, alpha and beta, the others kept
        in order.  A key that is not a parameter raises UnknownVariable."""
        params = (self.a, self.b, self.alpha, self.beta)
        for s in values:
            if not any(s in group for group in params):
                raise UnknownVariable(f"'{s.name}' is not a parameter of the "
                                      f"({self.p}|{self.q}) ideal")
        kept = (tuple(s for s in group if s not in values) for group in params)
        return CanonicalIdeal(self.p, self.q, self.x, self.theta, *kept,
                              self.f.substitute(values),
                              self.g.substitute(values))


# ---------------------------------------------------------------------------
# Reduction onto the monomial basis


@dataclass(frozen=True)
class BasisVector:
    """Coordinates over 1, x, ..., x^{p-1}, theta, x theta, ...,
    x^{q-1} theta, plus the cofactors certifying the reduction."""

    evens: tuple
    odds: tuple
    cofactor_f: SuperPoly
    cofactor_g: SuperPoly

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.evens) and all(
            o.is_zero() for o in self.odds
        )

    def __eq__(self, other):
        if not isinstance(other, BasisVector):
            return NotImplemented
        return self.evens == other.evens and self.odds == other.odds


def reduce_to_basis(poly: SuperPoly, ideal: CanonicalIdeal) -> BasisVector:
    """Normal form of poly modulo (f, g) on the monomial basis.

    theta-terms of x-degree >= q fall to g (monic x^q theta), even terms
    of x-degree >= p fall to f (monic x^p); the returned cofactors
    satisfy poly = sum(evens_i x^i) + sum(odds_j x^j theta)
    + cofactor_f * f + cofactor_g * g exactly.
    """
    p, q = ideal.p, ideal.q
    rem, (u, v) = _normal_form(poly, ideal.x, ideal.f, p, ideal.g,
                               ideal.theta, q)
    zero = SuperPoly.zero()
    evens = tuple(rem.get((i, 0), zero) for i in range(p))
    odds = tuple(rem.get((j, 1), zero) for j in range(q))
    return BasisVector(evens, odds, u, v)


def membership(poly: SuperPoly, ideal: CanonicalIdeal) -> bool:
    return reduce_to_basis(poly, ideal).is_zero()


# ---------------------------------------------------------------------------
# Coordinate change raw -> canonical


def _canonical_from_raw_coeffs(p, q, x, theta, a_t, b_t, alpha_t, beta_t):
    """Run the division-based derivation on raw coefficient values.

    Returns (a, b, alpha, beta, c, gamma) coefficient lists such that

        x^p + sum a_t x^i + (sum alpha_t x^i) theta
            = (x^q + b)(x^{p-q} + a) + c + B(theta + A)
        x^q theta + (sum b_t x^i) theta + sum beta_t x^i
            = (x^q + b)(theta + A) + gamma

    with B = sum beta_i x^i and A = sum alpha_i x^i.
    """
    _check_rank(p, q)
    b_vals = [SuperPoly.promote(v) for v in b_t]
    bq = SuperPoly.var(x, q) + _poly_from_coeffs(b_vals, x)

    beta_raw_poly = _poly_from_coeffs(beta_t, x)
    delta, eps = super_divmod(beta_raw_poly, bq, x, theta)
    alpha_vals = coeff_list(delta, x, p - q)
    gamma_vals = coeff_list(eps, x, q)

    even_raw = SuperPoly.var(x, p) + _poly_from_coeffs(a_t, x)
    cprime_full, dprime = super_divmod(even_raw, bq, x, theta)

    beta_vals = [SuperPoly.promote(v) for v in alpha_t]
    beta_poly = _poly_from_coeffs(beta_vals, x)
    residual_even = dprime - beta_poly * delta
    e_quo, r = super_divmod(residual_even, bq, x, theta)
    a_full = cprime_full + e_quo - SuperPoly.var(x, p - q)
    a_vals = coeff_list(a_full, x, p - q)
    c_vals = coeff_list(r, x, q)
    return a_vals, b_vals, alpha_vals, beta_vals, c_vals, gamma_vals


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible parameter substitution between raw and canonical
    coordinates, with the residual stratification coefficients."""

    p: int
    q: int
    raw: RawIdeal
    x: VarSymbol
    theta: VarSymbol
    a: tuple
    b: tuple
    alpha: tuple
    beta: tuple
    c: tuple
    gamma: tuple
    forward: dict  # raw symbol -> SuperPoly in canonical+residual symbols
    backward: dict  # canonical/residual symbol -> SuperPoly in raw symbols
    f_canonical: SuperPoly
    g_canonical: SuperPoly
    c_poly: SuperPoly
    gamma_poly: SuperPoly


def raw_to_canonical(p: int, q: int) -> CoordinateChange:
    """Coordinate change taking the raw generators to canonical shape
    plus residuals.  Each raw coefficient maps to its coefficient in
    f_can + c or g_can + gamma, read off at the same power of x and
    theta; the generator images and backward o forward = identity are
    verified as exact identities, which make the two maps inverse."""
    _check_rank(p, q)
    raw = RawIdeal.generic(p, q)
    x, theta = raw.x, raw.theta
    a, b, alpha, beta = _parameters(p, q)
    c = tuple(even(f"c{i}") for i in range(q))
    gamma = tuple(odd(f"gamma{i}") for i in range(q))

    values = _canonical_from_raw_coeffs(p, q, x, theta, raw.a, raw.b,
                                        raw.alpha, raw.beta)
    backward = {s: val for symbols, vals in zip((a, b, alpha, beta, c, gamma),
                                                 values)
                for s, val in zip(symbols, vals)}

    f_can, g_can = canonical_pair(p, q, x, theta, a, b, alpha, beta)
    c_p = _poly_from_coeffs(c, x)
    gamma_p = _poly_from_coeffs(gamma, x)
    f_map = (f_can + c_p).coefficients((x, theta))
    g_map = (g_can + gamma_p).coefficients((x, theta))
    zero = SuperPoly.zero()
    slots = ((raw.a, f_map, 0), (raw.b, g_map, 1), (raw.alpha, f_map, 1),
             (raw.beta, g_map, 0))
    forward = {s: image.get((i, eps), zero)
               for symbols, image, eps in slots for i, s in enumerate(symbols)}

    change = CoordinateChange(
        p, q, raw, x, theta, a, b, alpha, beta, c, gamma,
        forward, backward, f_can, g_can, c_p, gamma_p,
    )
    _verify_change(change)
    return change


def _verify_change(ch: CoordinateChange):
    """The generator images and backward o forward = identity, as exact
    identities substituted through one power table of the forward map."""
    raw = ch.raw
    to_canonical = PowerTable(ch.forward)
    f_image = raw.f.substitute(to_canonical)
    g_image = raw.g.substitute(to_canonical)
    _certify(f_image == ch.f_canonical + ch.c_poly, "even generator image")
    _certify(g_image == ch.g_canonical + ch.gamma_poly,
             "odd generator image")
    for s in (*ch.a, *ch.b, *ch.alpha, *ch.beta, *ch.c, *ch.gamma):
        _certify(ch.backward[s].substitute(to_canonical) == SuperPoly.var(s),
                 f"backward o forward is the identity on {s.name}")
    # This makes forward onto.  Both rings are free on (1+p+q | 1+p+q)
    # generators, and an onto endomorphism of a Noetherian ring is
    # injective, so forward o backward = identity needs no check.


# ---------------------------------------------------------------------------
# Kernel witnesses and stratification


def kernel_witnesses(p: int, q: int):
    """The two relations among the basis generators that hold modulo the
    raw ideal, f(theta + A) - g(x^{p-q} + a) and g(theta + A), reduced
    onto the monomial basis of the canonical ideal.

    Both expansions carry only residual (c, gamma) coefficients, and the
    reduction certifies that each lies inside the basis span.
    """
    _check_rank(p, q)
    if q < 1:
        raise RankOrderViolation("kernel witnesses need q >= 1")
    ch = raw_to_canonical(p, q)
    ideal = CanonicalIdeal(
        p, q, ch.x, ch.theta, ch.a, ch.b, ch.alpha, ch.beta,
        ch.f_canonical, ch.g_canonical,
    )
    h_expansion, theta_a = _first_witness_expansion(ch)
    # Times theta + A the first expansion gives (g - gamma)(theta + A)
    # (x^{p-q} + a) = 0, and the monic x^{p-q} + a is no zero divisor:
    # so the second, g(theta + A) = gamma(theta + A), needs no check.
    g_expansion = (ch.g_canonical + ch.gamma_poly) * theta_a
    vecs = tuple(reduce_to_basis(expansion, ideal)
                 for expansion in (h_expansion, g_expansion))
    for vec in vecs:
        _certify(vec.cofactor_f.is_zero() and vec.cofactor_g.is_zero(),
                 "witness lies in the basis span")
    return vecs


def _first_witness_expansion(ch: CoordinateChange):
    """(f(theta + A) - g(x^{p-q} + a), theta + A) for f and g the raw
    generators in the canonical coordinates of ch, with q >= 1; the
    expansion is certified to equal c(theta + A) - gamma(x^{p-q} + a)."""
    p, q, x, theta = ch.p, ch.q, ch.x, ch.theta
    f_full = ch.f_canonical + ch.c_poly
    g_full = ch.g_canonical + ch.gamma_poly
    theta_a = SuperPoly.var(theta) + _poly_from_coeffs(ch.alpha, x)
    xpq_a = SuperPoly.var(x, p - q) + _poly_from_coeffs(ch.a, x)
    h_expansion = f_full * theta_a - g_full * xpq_a
    _certify(h_expansion == ch.c_poly * theta_a - ch.gamma_poly * xpq_a,
             "first kernel witness expansion")
    return h_expansion, theta_a


def stratification_generators(p: int, q: int):
    """The residual coefficients (c_0..c_{q-1}, gamma_0..gamma_{q-1}),
    modulo which the kernel witnesses vanish.  The generators' leads x^p,
    x^q theta and degree bounds hold by `canonical_pair`."""
    _check_rank(p, q)
    if p == 0:
        return []
    ch = raw_to_canonical(p, q)
    if q >= 1:
        # The witnesses, c(theta + A) - gamma(x^{p-q} + a) as certified
        # there and gamma(theta + A), lie in (c, gamma) term by term.
        _first_witness_expansion(ch)
    return [SuperPoly.var(s) for s in (*ch.c, *ch.gamma)]
