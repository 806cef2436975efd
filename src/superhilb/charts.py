"""Chart atlases for rank-(1|1) and rank-(2|1) point families on the
parity-reversed line bundle of twist k over the projective line.

The rank-(2|1) atlas is built from one layout table, HILB21_LAYOUT: it
says on which affine patch each chart's (1|1)-point and (1|0)-point sit.
A chart with both points on one patch is canonical (V1 over the x-side,
V4 over the y-side); V2 and V3 are products with the points on opposite
patches (with the diagonal removed).  Maps out of a product chart move
the point factors across the patches, and into a canonical chart also
multiply the ideals and canonicalize; maps into the product charts are
the exact inverses of those maps, and carry denominators supported on
the removed loci.  Canonicalization reads the canonical coefficients off
the normal forms of x^p and x^q theta modulo the monicized generator
pair (the normal form of `superhilb.ideals`); a zero stratification
residue makes the two ideals equal.  A failed certificate raises
CertificateError, also under python -O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ChartMismatch, HigherOrderTerms, NotAUnit,
                     NotCanonicalizable, ParityMismatch)
from .ideals import (_canonical_from_raw_coeffs, _certify, _normal_form,
                     super_divmod)
from .localized import LocalizedPoly, PowerTable
from .ring import Parity, SuperPoly, VarSymbol, even, invert, odd

V = SuperPoly.var


# ---------------------------------------------------------------------------
# Charts, transitions, atlases


@dataclass(frozen=True)
class SuperChart:
    name: str
    evens: tuple
    odds: tuple
    units: tuple = ()  # loci invertible on this chart

    def __post_init__(self):
        names = [v.name for v in self.coordinates]
        if len(set(names)) != len(names):
            raise ChartMismatch(f"duplicate coordinate names on {self.name}")

    @property
    def coordinates(self):
        return self.evens + self.odds


@dataclass(frozen=True)
class TransitionMap:
    """Rules give each target coordinate as an expression in source
    coordinates, regular on the overlap."""

    target: SuperChart
    source: SuperChart
    rules: dict  # VarSymbol (target coord) -> LocalizedPoly (source coords)

    def __post_init__(self):
        for coord in self.target.coordinates:
            if coord not in self.rules:
                raise ChartMismatch(f"missing rule for {coord.name}")
        for coord in self.rules:
            if coord not in self.target.coordinates:
                raise ChartMismatch(
                    f"rule for {coord.name}, not a coordinate of "
                    f"{self.target.name}")
        rules = {
            coord: LocalizedPoly.promote(value).simplified()
            for coord, value in self.rules.items()
        }
        object.__setattr__(self, "rules", rules)
        for coord, value in rules.items():
            if value.is_zero():
                continue
            want = "even" if coord.parity is Parity.EVEN else "odd"
            if value.parity_class().value != want:
                raise ParityMismatch(
                    f"rule for {coord.name} has parity "
                    f"{value.parity_class().value}"
                )

    def rule(self, coord: VarSymbol) -> LocalizedPoly:
        return self.rules[coord]


@dataclass
class Atlas:
    name: str
    twist: int
    charts: tuple
    transitions: dict  # (target name, source name) -> TransitionMap

    def chart(self, name: str) -> SuperChart:
        for ch in self.charts:
            if ch.name == name:
                return ch
        raise ChartMismatch(f"no chart named {name}")

    def transition(self, target: str, source: str) -> TransitionMap:
        return self.transitions[(target, source)]


def compose_rules(outer: TransitionMap, inner: TransitionMap) -> dict:
    """Rules of outer with its source coordinates replaced through inner.

    The composites are not simplified: `==` aligns locus exponents, and
    `TransitionMap` simplifies the rules it stores."""
    return _composite(outer, inner, PowerTable(inner.rules))


def _composite(outer: TransitionMap, inner: TransitionMap,
               table: PowerTable) -> dict:
    """compose_rules through a power table of inner's rules."""
    if outer.source.name != inner.target.name:
        raise ChartMismatch(
            f"cannot compose {outer.source.name} with {inner.target.name}"
        )
    return {coord: value.substitute(table)
            for coord, value in outer.rules.items()}


def rules_equal(lhs: dict, rhs: dict) -> bool:
    if set(lhs) != set(rhs):
        return False
    return all(LocalizedPoly.promote(lhs[c]) == LocalizedPoly.promote(rhs[c])
               for c in lhs)


def verify_cocycle(atlas: Atlas):
    """Check every ordered composite against the stored transition.

    Triples (i, j, i) check inverse consistency; (i, j, l) with distinct
    charts check transitivity.  The composites through one inner
    transition (j, l) share one power table, dropped before the next.
    Returns (True, None) or (False, witness) where the witness names the
    first failing triple, in that order, and coordinate.
    """
    names = [ch.name for ch in atlas.charts]
    for j in names:
        for l in names:
            if l == j or (j, l) not in atlas.transitions:
                continue
            t_jl = atlas.transitions[(j, l)]
            table = PowerTable(t_jl.rules)
            for i in names:
                if i == j or (i, j) not in atlas.transitions:
                    continue
                t_ij = atlas.transitions[(i, j)]
                if l == i:
                    expected = {c: V(c) for c in atlas.chart(i).coordinates}
                else:
                    expected = atlas.transitions[(i, l)].rules
                for coord, value in _composite(t_ij, t_jl, table).items():
                    if value != expected[coord]:
                        return False, (i, j, l, coord.name)
    return True, None


# ---------------------------------------------------------------------------
# Ideals on charts


@dataclass(frozen=True)
class IdealOnChart:
    chart: SuperChart
    side: str  # "x" or "y": which affine patch the generators live on
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.parity_class().value == "mixed":
                raise ChartMismatch("generators must have definite parity")


def product_ideal(lhs: IdealOnChart, rhs: IdealOnChart) -> IdealOnChart:
    if lhs.chart.name != rhs.chart.name or lhs.side != rhs.side:
        raise ChartMismatch("product requires a common chart and patch")
    gens = tuple(
        a * b for a in lhs.generators for b in rhs.generators
    )
    return IdealOnChart(lhs.chart, lhs.side, gens)


# ---------------------------------------------------------------------------
# Ambient patches x/y with the twist-k gluing


@dataclass(frozen=True)
class Ambient:
    k: int
    x: VarSymbol
    y: VarSymbol
    theta: VarSymbol
    psi: VarSymbol

    @staticmethod
    def fresh(k: int) -> "Ambient":
        return Ambient(
            k,
            even("x", invertible=True),
            even("y", invertible=True),
            odd("theta"),
            odd("psi"),
        )

    def coords(self, side: str):
        return (self.x, self.theta) if side == "x" else (self.y, self.psi)

    def pullback_to(self, side: str) -> dict:
        """Substitution rewriting the other patch's coordinates."""
        if side == "x":
            return {
                self.y: V(self.x, -1),
                self.psi: V(self.x, -self.k) * V(self.theta),
            }
        return {
            self.x: V(self.y, -1),
            self.theta: V(self.y, -self.k) * V(self.psi),
        }


def transport_point(amb: Ambient, rank: str, to_side: str, sgn: int,
                    u: SuperPoly, v: SuperPoly):
    """Move a single-point family across the patch gluing.

    rank "11": the family  s + sgn*(u + v*t)  on the patch opposite
    to_side; rank "10": the pair  (s + sgn*u, t + sgn*v).  Returns the
    parameters (u', v') of the same shape on to_side.  Times the unit
    w/(sgn*u), the pulled even generator is certified as w + sgn*u'; c
    is its t'-part ("11"), or the t'-free part of the odd generator times
    w^k ("10").  v' = sgn*c at w = -sgn*u', with a certified cofactor.
    """
    u, v = SuperPoly.promote(u), SuperPoly.promote(v)
    s, t = amb.coords("y" if to_side == "x" else "x")
    w, tp = amb.coords(to_side)
    pull = amb.pullback_to(to_side)
    sg = SuperPoly.const(sgn)
    zero, one = SuperPoly.zero(), SuperPoly.one()
    m_unit = V(w) * invert(sg * u)

    # pulled = head + c * tail; the transported generator is head + c' * tail
    if rank == "11":
        pulled = (V(s) + sg * (u + v * V(t))).substitute(pull) * m_unit
        split = pulled.coefficients((tp,))
        even_gen, c = split.get((0,), zero), split.get((1,), zero)
        head, tail = even_gen, V(tp)
    elif rank == "10":
        even_gen = (V(s) + sg * u).substitute(pull) * m_unit
        pulled = (V(t) + sg * v).substitute(pull) * V(w, amb.k)
        split = pulled.coefficients((tp,))
        _certify(split.get((1,), zero) == one, "odd generator leads with 1")
        c = split.get((0,), zero)
        head, tail = V(tp), one
    else:
        raise ValueError(f"unknown rank {rank!r}")

    u_new = invert(u)
    _certify(even_gen == V(w) + sg * u_new, "normalized point generator")
    c_final = c.substitute({w: -sg * u_new})
    # the identity below holds only if this division is exact
    quo, _ = super_divmod(c - c_final, even_gen, w, tp)
    _certify(head + c_final * tail == pulled - even_gen * quo * tail,
             f"transported ({rank[0]}|{rank[1]}) generator")
    return u_new, sg * c_final


# ---------------------------------------------------------------------------
# Canonicalization of a two-generator family on a patch


def _leading_unit(by_degree):
    """(degree, inverse of leading coefficient) for a {w-degree: coeff}
    view of a generator part; the lead must be a unit on the chart."""
    if not by_degree:
        raise NotCanonicalizable("zero generator")
    deg = max(by_degree)
    try:
        lead_inv = invert(by_degree[deg])
    except NotAUnit:
        raise NotCanonicalizable(
            "leading coefficient is not a unit on this chart"
        ) from None
    return deg, lead_inv


def _clear_laurent(poly: SuperPoly, w: VarSymbol) -> SuperPoly:
    low = poly.min_degree_in(w)
    if low is None or low >= 0:
        return poly
    return poly * V(w, -low)


def canonicalize(ideal: IdealOnChart, p: int, q: int, amb: Ambient):
    """Match a two-generator family against the canonical (p|q) shape.

    Returns {"a0": .., "b0": .., "alpha0": .., "beta0": .., ...}: the
    unique canonical coefficients generating the same localized ideal,
    read off the normal forms of x^p and x^q theta modulo the monicized
    pair; a zero stratification residue makes the two ideals equal.
    Failure of any leading coefficient to be a unit means the family
    leaves the chart and raises NotCanonicalizable.
    """
    w, tp = amb.coords(ideal.side)
    # IdealOnChart admits only even and odd generators, so this also
    # checks that there are two
    evens_ = [g for g in ideal.generators if g.parity_class().value == "even"]
    odds_ = [g for g in ideal.generators if g.parity_class().value == "odd"]
    if len(evens_) != 1 or len(odds_) != 1:
        raise NotCanonicalizable("expected one even and one odd generator")
    f_in = _clear_laurent(evens_[0], w)
    g_in = _clear_laurent(odds_[0], w)

    f_even = {e: c for (e, t), c in f_in.coefficients((w, tp)).items()
              if not t}
    d_f, f_lead_inv = _leading_unit(f_even)
    if d_f != p:
        raise NotCanonicalizable(f"even generator has rank {d_f}, expected {p}")
    f_hat = f_lead_inv * f_in

    g_theta = {e: c for (e, t), c in g_in.coefficients((w, tp)).items()
               if t}
    d_g, g_lead_inv = _leading_unit(g_theta)
    if d_g != q:
        raise NotCanonicalizable(f"odd generator has rank {d_g}, expected {q}")
    g_hat = g_lead_inv * g_in

    # f_hat is even and g_hat odd, so every term above a lead has an odd
    # coefficient and the normal form's termination check always passes.
    red_x, _ = _normal_form(V(w, p), w, f_hat, p, g_hat, tp, q)
    red_t, _ = _normal_form(V(w, q) * V(tp), w, f_hat, p, g_hat, tp, q)
    zero = SuperPoly.zero()
    a_t = [-red_x.get((e, 0), zero) for e in range(p)]
    alpha_t = [-red_x.get((e, 1), zero) for e in range(q)]
    b_t = [-red_t.get((e, 1), zero) for e in range(q)]
    beta_t = [-red_t.get((e, 0), zero) for e in range(p)]

    a_v, b_v, alpha_v, beta_v, c_v, gamma_v = _canonical_from_raw_coeffs(
        p, q, w, tp, a_t, b_t, alpha_t, beta_t
    )
    if not all(v.is_zero() for v in (*c_v, *gamma_v)):
        raise NotCanonicalizable("nonzero stratification residue: the family "
                                 "is not flat of this rank")
    # The ideals are then equal with no check: x^p - NF(x^p) and
    # x^q theta - NF(x^q theta) lie in (f_hat, g_hat), and are the
    # canonical generators (f_can + c and g_can + gamma, by
    # `_canonical_from_raw_coeffs`).  Their cofactors are the identity
    # plus nilpotents, so invertible: at odd degree 0 only the leads
    # reduce, as the theta-terms of f_hat and theta-free terms of g_hat
    # are odd.
    return {f"{name}{i}": value
            for name, values in (("a", a_v), ("b", b_v), ("alpha", alpha_v),
                                 ("beta", beta_v))
            for i, value in enumerate(values)}


# ---------------------------------------------------------------------------
# The second-order split and transition inversion


@dataclass(frozen=True)
class SecondOrder:
    """A transition read to second order in the source odds s_n: each
    even rule is bosonic + wedge * s1*s2, each odd rule sum_n H[m][n] s_n.
    Every part is a LocalizedPoly in source coordinates over the loci of
    its rule.  det H and J, the Jacobian of the bosonic parts in the
    source evens, are computed when read."""

    bosonic: dict  # target even -> bosonic part
    wedge: dict  # target even -> s1*s2 coefficient (zero for one odd)
    odd_block: tuple  # H: one row per target odd, one entry per source odd
    source_evens: tuple  # the source chart's evens, in chart order

    @property
    def det(self) -> LocalizedPoly:
        """det H; NotCanonicalizable unless H is square of size 1 or 2."""
        h = self.odd_block
        if len(h) not in (1, 2) or any(len(row) != len(h) for row in h):
            raise NotCanonicalizable("det needs a square odd block of size "
                                     "1 or 2")
        if len(h) == 1:
            return h[0][0]
        return h[0][0] * h[1][1] - h[0][1] * h[1][0]

    @property
    def jacobian(self) -> tuple:
        """J[m][n]: bosonic part m differentiated by source even n."""
        return tuple(tuple(bos.diff(s) for s in self.source_evens)
                     for bos in self.bosonic.values())


def second_order(tmap: TransitionMap) -> SecondOrder:
    """Read each rule of tmap once by its monomials in the source odds,
    taken in chart order: the wedge is the coefficient of s1*s2.

    An even rule with an odd part other than the wedge of exactly two
    source odds, or an odd rule that is not linear in them, raises
    HigherOrderTerms."""
    odds = tmap.source.odds
    n = len(odds)
    even_subs = ((0,) * n,) + (((1, 1),) if n == 2 else ())
    odd_subs = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def parts(coord, subs):
        rule = tmap.rule(coord)
        coeffs = rule.num.coefficients(odds)
        if not coeffs.keys() <= set(subs):
            raise HigherOrderTerms(
                f"rule for {coord.name} has odd terms beyond second order")
        return [rule.with_num(coeffs.get(sub, SuperPoly.zero()))
                for sub in subs]

    bosonic, wedge = {}, {}
    for coord in tmap.target.evens:
        bosonic[coord], *rest = parts(coord, even_subs)
        wedge[coord] = rest[0] if rest else LocalizedPoly(SuperPoly.zero())
    odd_block = tuple(tuple(parts(coord, odd_subs))
                      for coord in tmap.target.odds)
    return SecondOrder(bosonic, wedge, odd_block, tmap.source.evens)


def _single_term_rule(poly: SuperPoly):
    """(variable, exponent, coefficient) of a one-term Laurent rule."""
    terms = poly.named_terms()
    if len(terms) != 1:
        raise NotCanonicalizable(f"bosonic rule is not a monomial: {poly!r}")
    factors, coeff = terms[0]
    if len(factors) != 1:
        raise NotCanonicalizable(f"bosonic rule is not a single power: {poly!r}")
    var, exp = factors[0]
    if exp not in (1, -1):
        raise NotCanonicalizable(f"bosonic rule has exponent {exp}")
    return var, exp, coeff


def invert_transition(tmap: TransitionMap) -> TransitionMap:
    """Exact inverse of a chart transition, read off its second-order
    split.

    Bosonic parts must be single powers c*s^(+-1) of distinct source
    coordinates and rules may carry no loci (NotAUnit); the odd block is
    a square matrix over the bosonic ring inverted through its adjugate,
    and the wedge corrections to the even rules follow by differentiating
    the bosonic inverse (exact, since the corrections square to zero).
    The composite inverse o tmap = identity is checked before returning;
    it implies tmap o inverse = identity.
    """
    target, source = tmap.target, tmap.source
    odds_s = source.odds
    odds_t = target.odds
    if len(odds_s) != len(odds_t) or len(odds_s) not in (1, 2):
        raise NotCanonicalizable("transition inversion needs matching odd "
                                 "ranks 1 or 2")
    if len(target.evens) != len(source.evens):
        raise NotCanonicalizable("transition inversion needs matching even "
                                 "ranks")
    if not all(rule.is_polynomial() for rule in tmap.rules.values()):
        raise NotAUnit("transition inversion needs rules without loci")
    split = second_order(tmap)

    bos_inv = {}
    matched = {}
    for t_coord, bos in split.bosonic.items():
        var, exp, coeff = _single_term_rule(bos.num)
        if var in bos_inv:
            raise NotCanonicalizable("two even rules share a source variable")
        if exp == 1:
            bos_inv[var] = V(t_coord) * (Fraction(1) / coeff)
        else:
            bos_inv[var] = SuperPoly.var(t_coord, -1) * coeff
        matched[t_coord] = var
    if set(bos_inv) != set(source.evens):
        raise NotCanonicalizable("even rules do not cover the source chart")

    # odd block: tau_m = sum_n H[m][n] sigma_n, inverted by its adjugate
    h, det = split.odd_block, split.det
    if len(odds_s) == 1:
        adj = ((LocalizedPoly(SuperPoly.one()),),)
    else:
        adj = ((h[1][1], -h[0][1]), (-h[1][0], h[0][0]))
    bos_table = PowerTable(bos_inv)
    det_inv = det.substitute(bos_table).reciprocal()

    rules = {}
    for n, s_odd in enumerate(odds_s):
        total = LocalizedPoly(SuperPoly.zero())
        for m, t_odd in enumerate(odds_t):
            entry = adj[n][m].substitute(bos_table) * det_inv
            total = total + entry * LocalizedPoly(V(t_odd))
        rules[s_odd] = total

    for t_coord, var in matched.items():
        base = LocalizedPoly(bos_inv[var])
        wedge = split.wedge[t_coord]
        if wedge.is_zero():
            rules[var] = base
            continue
        tau_frame = LocalizedPoly(V(odds_t[0]) * V(odds_t[1]))
        deriv = LocalizedPoly(bos_inv[var].diff(t_coord))
        correction = (deriv * wedge.substitute(bos_table) * tau_frame
                      * det_inv)
        rules[var] = base - correction

    inverse = TransitionMap(target=source, source=target, rules=rules)
    ident_s = {c: LocalizedPoly(V(c)) for c in source.coordinates}
    # This composite can raise NotAUnit; once it holds, the pullback by
    # tmap is onto, and it is injective: modulo the odds it is the
    # bijection above, and det H is a unit (the inverse function theorem
    # for superdomains).  So tmap o inverse = identity needs no check.
    _certify(rules_equal(compose_rules(inverse, tmap), ident_s),
             f"inverse composition on {source.name}")
    return inverse


# ---------------------------------------------------------------------------
# Atlases


def pi_v_atlas(k: int) -> Atlas:
    """The two-chart atlas of the (1|1)-supercurve itself: patches
    (x|theta) and (y|psi) glued by y = 1/x, psi = x^-k theta."""
    amb = Ambient.fresh(k)
    u0 = SuperChart("U0", (amb.x,), (amb.theta,))
    u1 = SuperChart("U1", (amb.y,), (amb.psi,))
    t10 = TransitionMap(
        target=u1,
        source=u0,
        rules={
            amb.y: LocalizedPoly(V(amb.x, -1)),
            amb.psi: LocalizedPoly(V(amb.x, -k) * V(amb.theta)),
        },
    )
    return Atlas("pi_v", k, (u0, u1),
                 {("U1", "U0"): t10, ("U0", "U1"): invert_transition(t10)})


def _point_chart_symbols():
    return {
        "a": even("a", invertible=True),
        "b": even("b", invertible=True),
        "alpha": odd("alpha"),
        "beta": odd("beta"),
    }


def hilb11_atlas(k: int) -> Atlas:
    """Rank-(1|1) families: one point with its odd direction.

    Chart A parameterizes the family located at x = a + alpha*theta
    (generator x - a - alpha*theta), chart B its mirror over y.  The
    map B<-A is computed by moving the generator across the gluing, and
    comes out as b = 1/a, beta = -a^(k-2) alpha; A<-B is its exact
    inverse, whose certified composite and the one it implies are the
    whole cocycle condition of a two-chart atlas.
    """
    amb = Ambient.fresh(k)
    syms = _point_chart_symbols()
    a, b = syms["a"], syms["b"]
    alpha, beta = syms["alpha"], syms["beta"]
    chart_a = SuperChart("A", (a,), (alpha,))
    chart_b = SuperChart("B", (b,), (beta,))

    u_ba, v_ba = transport_point(amb, "11", "y", -1, V(a), V(alpha))
    t_ba = TransitionMap(
        target=chart_b,
        source=chart_a,
        rules={b: LocalizedPoly(u_ba), beta: LocalizedPoly(v_ba)},
    )
    expected_beta = -SuperPoly.var(a, k - 2) * V(alpha)
    _certify(t_ba.rule(b) == LocalizedPoly(V(a, -1)), "hilb11 rule b = 1/a")
    _certify(t_ba.rule(beta) == LocalizedPoly(expected_beta),
             "hilb11 rule beta = -a^(k-2) alpha")
    return Atlas(
        "hilb11", k, (chart_a, chart_b),
        {("B", "A"): t_ba, ("A", "B"): invert_transition(t_ba)},
    )


# chart -> (even letter, odd letter, patch of the (1|1)-point, patch of
# the (1|0)-point), in atlas order; the chart's coordinates are the
# letters numbered 1 for the (1|1)-point and 2 for the (1|0)-point
HILB21_LAYOUT = {
    "V1": ("a", "alpha", "x", "x"),
    "V2": ("b", "beta", "y", "x"),
    "V3": ("c", "gamma", "x", "y"),
    "V4": ("d", "delta", "y", "y"),
}


def _is_product(name: str) -> bool:
    """The chart's two points sit on opposite patches."""
    _, _, patch11, patch10 = HILB21_LAYOUT[name]
    return patch11 != patch10


def _layout_chart(name: str) -> SuperChart:
    even_letter, odd_letter, _, _ = HILB21_LAYOUT[name]
    e1, e2 = (even(f"{even_letter}{i}", invertible=True) for i in (1, 2))
    units = (V(e1) * V(e2) - 1,) if _is_product(name) else ()
    return SuperChart(name, (e1, e2),
                      (odd(f"{odd_letter}1"), odd(f"{odd_letter}2")), units)


def _moved_points(amb: Ambient, source: SuperChart) -> tuple:
    """The (1|1)- and (1|0)-point factors of the product chart `source`,
    each transported once to the patch opposite its own, as (u, v)."""
    return tuple(
        transport_point(amb, rank, "y" if here == "x" else "x", 1,
                        V(u), V(v))
        for rank, u, v, here in zip(("11", "10"), source.evens, source.odds,
                                    HILB21_LAYOUT[source.name][2:])
    )


def _map_out_of_product(amb: Ambient, target: SuperChart,
                        source: SuperChart, moved: tuple) -> TransitionMap:
    """Move each point factor of the product chart `source` to its patch
    on `target`, reading a factor that changes patch from `moved`, the
    `_moved_points` of `source`.  A product target reads its coordinates
    off the moved factors; a canonical target multiplies the factor
    ideals on its patch and canonicalizes."""
    patches = HILB21_LAYOUT[target.name][2:]
    (u11, v11), (u10, v10) = (
        (V(u), V(v)) if here == there else point
        for u, v, here, there, point in zip(
            source.evens, source.odds, HILB21_LAYOUT[source.name][2:],
            patches, moved)
    )
    if _is_product(target.name):
        values = (u11, u10, v11, v10)
    else:
        side = patches[0]
        w, tp = amb.coords(side)
        lhs = IdealOnChart(source, side, (V(w) + u11 + v11 * V(tp),))
        rhs = IdealOnChart(source, side, (V(w) + u10, V(tp) + v10))
        slots = canonicalize(product_ideal(lhs, rhs), 2, 1, amb)
        values = (slots["b0"], slots["a0"], slots["beta0"], slots["alpha0"])
    return TransitionMap(
        target=target,
        source=source,
        rules={coord: LocalizedPoly(value)
               for coord, value in zip(target.coordinates, values)},
    )


def _expected_13(k, v1, v3):
    c1, c2 = v3.evens
    g1, g2 = v3.odds
    a1, a2 = v1.evens
    al1, al2 = v1.odds
    sign = Fraction(-1) ** k
    mc2k = sign * V(c2, -k)  # (-c2)^(-k) expanded
    return {
        a1: LocalizedPoly(V(c1) - V(g1) * V(g2) * mc2k),
        a2: LocalizedPoly(V(c2, -1)),
        al1: LocalizedPoly(V(g1) * (V(c2, -1) - V(c1))),
        al2: LocalizedPoly(V(g2) * mc2k),
    }


def _expected_12(k, v1, v2):
    b1, b2 = v2.evens
    be1, be2 = v2.odds
    a1, a2 = v1.evens
    al1, al2 = v1.odds
    sign = Fraction(-1) ** (k - 2)
    mb1k2 = sign * V(b1, k - 2)  # (-b1)^(k-2) expanded
    return {
        a1: LocalizedPoly(V(b1, -1) + V(be1) * V(be2) * mb1k2),
        a2: LocalizedPoly(V(b2)),
        al1: LocalizedPoly(-V(be1) * mb1k2 * (V(b2) - V(b1, -1))),
        al2: LocalizedPoly(V(be2)),
    }


def hilb21_atlas(k: int) -> Atlas:
    """The four-chart atlas of rank-(2|1) families, built from
    HILB21_LAYOUT.

    Every map out of a product chart moves the point factors across the
    patches (into a canonical chart it also multiplies and
    canonicalizes); each product chart's two point factors are
    transported once per build and shared by its three maps.  The maps
    into the product charts are their exact inverses, and the maps
    between the canonical charts are composites through the first
    product chart.  The V1<-V3 and V1<-V2 maps are checked against their
    closed forms.
    """
    amb = Ambient.fresh(k)
    charts = {name: _layout_chart(name) for name in HILB21_LAYOUT}
    products = [name for name in charts if _is_product(name)]
    canonical = [name for name in charts if not _is_product(name)]

    transitions = {}
    for source in products:
        moved = _moved_points(amb, charts[source])
        for target in charts:
            if target != source:
                transitions[(target, source)] = _map_out_of_product(
                    amb, charts[target], charts[source], moved
                )

    v1, v2, v3 = charts["V1"], charts["V2"], charts["V3"]
    _certify(rules_equal(transitions[("V1", "V3")].rules,
                         _expected_13(k, v1, v3)), "V1<-V3 closed form")
    _certify(rules_equal(transitions[("V1", "V2")].rules,
                         _expected_12(k, v1, v2)), "V1<-V2 closed form")

    for target in canonical:
        for source in products:
            transitions[(source, target)] = invert_transition(
                transitions[(target, source)]
            )

    via = products[0]
    for target in canonical:
        for source in canonical:
            if target != source:
                transitions[(target, source)] = TransitionMap(
                    target=charts[target],
                    source=charts[source],
                    rules=compose_rules(transitions[(target, via)],
                                        transitions[(via, source)]),
                )

    return Atlas("hilb21", k, tuple(charts.values()), transitions)


# ---------------------------------------------------------------------------
# Atlas serialization


def atlas_to_text(atlas: Atlas) -> str:
    from .parser import pretty, pretty_localized

    lines = [f"atlas {atlas.name} twist {atlas.twist}"]
    for ch in atlas.charts:
        lines.append(f"chart {ch.name}")
        for v in ch.evens:
            inv = " inv" if v.invertible else ""
            lines.append(f"  even {v.name}{inv};")
        for v in ch.odds:
            lines.append(f"  odd {v.name};")
        for unit in ch.units:
            lines.append(f"  unit {pretty(unit)};")
        lines.append("end")
    for (target, source), tmap in sorted(atlas.transitions.items()):
        lines.append(f"transition {target} {source}")
        for coord in tmap.target.coordinates:
            lines.append(f"  {coord.name} := {pretty_localized(tmap.rule(coord))};")
        lines.append("end")
    return "\n".join(lines) + "\n"


def _block(lines: list, start: int):
    """(body, index after its end) of the block whose header line is
    lines[start]."""
    try:
        end = lines.index("end", start + 1)
    except ValueError:
        raise ChartMismatch(f"no end after {lines[start]}") from None
    return lines[start + 1:end], end + 1


def atlas_from_text(text: str) -> Atlas:
    from .parser import RingDecl, parse_localized, parse_poly, parse_ring

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    first = lines[0] if lines else ""
    head = re.fullmatch(r"atlas\s+(\S+)\s+twist\s+(-?\d+)", first)
    if head is None:
        raise ChartMismatch(f"missing or malformed atlas header: {first!r}")
    try:
        name, twist = head[1], int(head[2])
    except ValueError:  # more digits than Python converts
        raise ChartMismatch(
            f"atlas twist of {len(head[2])} characters is too long") from None
    charts = {}
    transitions = {}
    ring = RingDecl()
    i = 1
    while i < len(lines):
        header = lines[i]
        kind, *args = header.split()
        if (kind, len(args)) not in (("chart", 1), ("transition", 2)):
            raise ChartMismatch(f"unexpected line: {header}")
        body, i = _block(lines, i)
        if kind == "chart":
            if args[0] in charts:
                raise ChartMismatch(f"duplicate block: {header}")
            units = [ln for ln in body if ln.startswith("unit ")]
            decls = [ln for ln in body if not ln.startswith("unit ")]
            chart_ring = parse_ring(" ".join(decls))
            for v in chart_ring:
                if v.name in ring and ring.lookup(v.name) is not v:
                    raise ChartMismatch(
                        f"{header} redeclares variable {v.name!r}")
            ring = ring.merged(chart_ring)
            charts[args[0]] = SuperChart(
                args[0],
                tuple(v for v in chart_ring if v.parity is Parity.EVEN),
                tuple(v for v in chart_ring if v.parity is Parity.ODD),
                tuple(parse_poly(u[len("unit "):].rstrip(";"), ring)
                      for u in units),
            )
            continue
        if not all(n in charts for n in args):
            raise ChartMismatch(f"undeclared chart in {header}")
        if tuple(args) in transitions:
            raise ChartMismatch(f"duplicate block: {header}")
        target, source = (charts[n] for n in args)
        coords = {c.name: c for c in target.coordinates}
        rules = {}
        for item in body:
            coord_name, sep, expr = item.partition(":=")
            coord = coords.get(coord_name.strip())
            if not sep or coord is None:
                raise ChartMismatch(f"bad rule in {header}: {item}")
            if coord in rules:
                raise ChartMismatch(f"duplicate rule in {header}: {item}")
            rules[coord] = parse_localized(expr.strip().rstrip(";"), ring)
        transitions[tuple(args)] = TransitionMap(target, source, rules)
    return Atlas(name, twist, tuple(charts.values()), transitions)
