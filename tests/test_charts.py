import hashlib
from fractions import Fraction

import pytest

from conftest import assert_certificate_fails, run_optimized
from superhilb import charts
from superhilb.charts import (
    Ambient,
    IdealOnChart,
    SuperChart,
    TransitionMap,
    atlas_from_text,
    atlas_to_text,
    canonicalize,
    compose_rules,
    hilb11_atlas,
    hilb21_atlas,
    invert_transition,
    pi_v_atlas,
    product_ideal,
    rules_equal,
    second_order,
    transport_point,
    verify_cocycle,
)
from superhilb.errors import (ChartMismatch, HigherOrderTerms, NotAUnit,
                              NotCanonicalizable)
from superhilb.ideals import _normal_form, canonical_pair
from superhilb.localized import LocalizedPoly, PowerTable
from superhilb.ring import SuperMonomial, SuperPoly, even, invert, odd

V = SuperPoly.var


class TestPiVAtlas:
    def test_trivial_twist(self):
        atlas = pi_v_atlas(0)
        t10 = atlas.transition("U1", "U0")
        amb_psi = atlas.chart("U1").odds[0]
        theta = atlas.chart("U0").odds[0]
        assert t10.rule(amb_psi) == LocalizedPoly(V(theta))

    def test_twist_two(self):
        atlas = pi_v_atlas(2)
        t10 = atlas.transition("U1", "U0")
        psi = atlas.chart("U1").odds[0]
        x = atlas.chart("U0").evens[0]
        theta = atlas.chart("U0").odds[0]
        assert t10.rule(psi) == LocalizedPoly(V(x, -2) * V(theta))

    @pytest.mark.parametrize("k", [-2, 0, 1, 3])
    def test_round_trip_composition(self, k):
        atlas = pi_v_atlas(k)
        ok, witness = verify_cocycle(atlas)
        assert ok, witness


class TestHilb11Atlas:
    @pytest.mark.parametrize("k", range(-2, 7))
    def test_closed_form(self, k):
        atlas = hilb11_atlas(k)
        t_ba = atlas.transition("B", "A")
        a = atlas.chart("A").evens[0]
        alpha = atlas.chart("A").odds[0]
        b = atlas.chart("B").evens[0]
        beta = atlas.chart("B").odds[0]
        assert t_ba.rule(b) == LocalizedPoly(V(a, -1))
        assert t_ba.rule(beta) == LocalizedPoly(-V(a, k - 2) * V(alpha))

    def test_bosonic_part_is_projective_line(self):
        atlas = hilb11_atlas(3)
        t_ba = atlas.transition("B", "A")
        alpha = atlas.chart("A").odds[0]
        b = atlas.chart("B").evens[0]
        bos = t_ba.rule(b).num.substitute({alpha: SuperPoly.zero()})
        a = atlas.chart("A").evens[0]
        assert bos == V(a, -1)

    def test_odd_transition_degree(self):
        # Laurent degree of the odd coefficient is k - 2
        for k in (-1, 0, 2, 4):
            atlas = hilb11_atlas(k)
            t_ba = atlas.transition("B", "A")
            beta = atlas.chart("B").odds[0]
            alpha = atlas.chart("A").odds[0]
            a = atlas.chart("A").evens[0]
            coeff = t_ba.rule(beta).as_poly().coeff_of(
                SuperMonomial.make({alpha: 1}), {alpha}
            )
            assert coeff == -V(a, k - 2)
            assert coeff.degree_in(a) == k - 2


class TestTransportPoint:
    @pytest.mark.parametrize("k", [-2, 0, 3])
    @pytest.mark.parametrize("sgn", [1, -1])
    def test_rank10_round_trip(self, sgn, k):
        amb = Ambient.fresh(k)
        u = even("u", invertible=True)
        mu = odd("mu")
        u1, v1 = transport_point(amb, "10", "y", sgn, V(u), V(mu))
        u2, v2 = transport_point(amb, "10", "x", sgn, u1, v1)
        assert u2 == V(u)
        assert v2 == V(mu)

    @pytest.mark.parametrize("k", [-2, 0, 3])
    @pytest.mark.parametrize("sgn", [1, -1])
    def test_rank11_round_trip(self, sgn, k):
        amb = Ambient.fresh(k)
        u = even("u", invertible=True)
        mu = odd("mu")
        u1, v1 = transport_point(amb, "11", "y", sgn, V(u), V(mu))
        u2, v2 = transport_point(amb, "11", "x", sgn, u1, v1)
        assert u2 == V(u)
        assert v2 == V(mu)

    def test_unknown_rank_raises(self):
        amb = Ambient.fresh(1)
        u = even("u", invertible=True)
        with pytest.raises(ValueError):
            transport_point(amb, "12", "y", 1, V(u), V(odd("mu")))

    def test_tampered_quotient_raises(self):
        """The transported-generator certificate is a real check with the
        quotient as its cofactor: python -O keeps it for both ranks."""
        done = run_optimized("""
            import superhilb.charts as charts
            from superhilb.errors import CertificateError
            from superhilb.ring import SuperPoly, even, odd

            divmod_ = charts.super_divmod

            def tampered(*args):
                quo, rem = divmod_(*args)
                return quo + 1, rem

            charts.super_divmod = tampered
            amb = charts.Ambient.fresh(2)
            u = SuperPoly.var(even("u", invertible=True))
            mu = SuperPoly.var(odd("mu"))
            for rank in ("11", "10"):
                try:
                    charts.transport_point(amb, rank, "y", -1, u, mu)
                except CertificateError as exc:
                    print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2, done.stdout
        assert all(line.startswith("CertificateError") for line in lines)
        assert "transported (1|1) generator" in lines[0]
        assert "transported (1|0) generator" in lines[1]


class TestProductIdeal:
    def setup_method(self):
        self.amb = Ambient.fresh(2)
        self.chart = SuperChart(
            "C", (even("c1", invertible=True), even("c2", invertible=True)),
            (odd("gamma1"), odd("gamma2")),
        )

    def test_unit_factor(self):
        x, theta = self.amb.coords("x")
        gen = V(x) + V(self.chart.evens[0])
        lhs = IdealOnChart(self.chart, "x", (gen,))
        rhs = IdealOnChart(self.chart, "x", (SuperPoly.one(),))
        prod = product_ideal(lhs, rhs)
        assert prod.generators == (gen,)

    def test_bosonic_reduction(self):
        x, theta = self.amb.coords("x")
        c1, c2 = self.chart.evens
        lhs = IdealOnChart(self.chart, "x", (V(x) + V(c1),))
        rhs = IdealOnChart(self.chart, "x", (V(x) + V(c2, -1), V(theta)))
        prod = product_ideal(lhs, rhs)
        assert prod.generators[0] == (V(x) + V(c1)) * (V(x) + V(c2, -1))
        assert prod.generators[1] == (V(x) + V(c1)) * V(theta)

    def test_chart_mismatch(self):
        x, theta = self.amb.coords("x")
        other = SuperChart("D", (even("d1"),), (odd("delta1"),))
        lhs = IdealOnChart(self.chart, "x", (V(x),))
        rhs = IdealOnChart(other, "x", (V(x),))
        with pytest.raises(ChartMismatch):
            product_ideal(lhs, rhs)


class TestCanonicalize:
    def test_monomial_ideal(self):
        amb = Ambient.fresh(0)
        chart = SuperChart("C", (), ())
        x, theta = amb.coords("x")
        ideal = IdealOnChart(chart, "x", (V(x) ** 2, V(x) * V(theta)))
        slots = canonicalize(ideal, 2, 1, amb)
        assert all(v == 0 for v in slots.values())

    def test_round_trip_random_even_params(self, rng):
        from superhilb.ideals import canonical_pair

        amb = Ambient.fresh(1)
        x, theta = amb.coords("x")
        alpha0 = odd("alpha0r")
        beta0 = odd("beta0r")
        chart = SuperChart("C", (), (alpha0, beta0))
        for _ in range(10):
            a_val = SuperPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            b_val = SuperPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            f, g = canonical_pair(
                2, 1, x, theta, [a_val], [b_val], [V(alpha0)], [V(beta0)]
            )
            slots = canonicalize(IdealOnChart(chart, "x", (f, g)), 2, 1, amb)
            assert slots["a0"] == a_val
            assert slots["b0"] == b_val
            assert slots["alpha0"] == V(alpha0)
            assert slots["beta0"] == V(beta0)

    def test_not_canonicalizable_when_leading_not_unit(self):
        amb = Ambient.fresh(0)
        c = even("cnc")  # not invertible: the family leaves the chart
        chart = SuperChart("C", (c,), ())
        x, theta = amb.coords("x")
        f = (V(c) * V(x) + 1) * (V(x) + 1)
        g = (V(c) * V(x) + 1) * V(theta)
        with pytest.raises(
                NotCanonicalizable,
                match="leading coefficient is not a unit on this chart"):
            canonicalize(IdealOnChart(chart, "x", (f, g)), 2, 1, amb)


def _chart_syms(atlas, name):
    ch = atlas.chart(name)
    return ch.evens + ch.odds


class TestHilb21Atlas:
    def test_glue_product_matches_closed_form_k2(self):
        # built-in assertions already compare against the closed forms;
        # spot-check the k=2 rules explicitly
        atlas = hilb21_atlas(2)
        a1, a2, al1, al2 = _chart_syms(atlas, "V1")
        c1, c2, g1, g2 = _chart_syms(atlas, "V3")
        t13 = atlas.transition("V1", "V3")
        assert t13.rule(a1) == LocalizedPoly(
            V(c1) - V(g1) * V(g2) * V(c2, -2)
        )
        assert t13.rule(a2) == LocalizedPoly(V(c2, -1))
        assert t13.rule(al1) == LocalizedPoly(V(g1) * (V(c2, -1) - V(c1)))
        assert t13.rule(al2) == LocalizedPoly(V(g2) * V(c2, -2))

    def test_on13_at_k1_signs(self):
        atlas = hilb21_atlas(1)
        a1, a2, al1, al2 = _chart_syms(atlas, "V1")
        c1, c2, g1, g2 = _chart_syms(atlas, "V3")
        t13 = atlas.transition("V1", "V3")
        assert t13.rule(a1) == LocalizedPoly(
            V(c1) + V(g1) * V(g2) * V(c2, -1)
        )
        assert t13.rule(al2) == LocalizedPoly(-V(g2) * V(c2, -1))

    def test_on12_at_k3(self):
        atlas = hilb21_atlas(3)
        a1, a2, al1, al2 = _chart_syms(atlas, "V1")
        b1, b2, be1, be2 = _chart_syms(atlas, "V2")
        t12 = atlas.transition("V1", "V2")
        assert t12.rule(a1) == LocalizedPoly(
            V(b1, -1) - V(be1) * V(be2) * V(b1, 1)
        )
        assert t12.rule(a2) == LocalizedPoly(V(b2))
        assert t12.rule(al1) == LocalizedPoly(
            V(be1) * V(b1, 1) * (V(b2) - V(b1, -1))
        )
        assert t12.rule(al2) == LocalizedPoly(V(be2))

    def test_bosonic_two_point_gluing(self):
        atlas = hilb21_atlas(4)
        a1, a2, al1, al2 = _chart_syms(atlas, "V1")
        b1, b2, be1, be2 = _chart_syms(atlas, "V2")
        t12 = atlas.transition("V1", "V2")
        kill = {be1: SuperPoly.zero(), be2: SuperPoly.zero()}
        assert t12.rule(a1).num.substitute(kill) == V(b1, -1)
        assert t12.rule(a2).num.substitute(kill) == V(b2)

    def test_v24_restriction_pattern(self):
        # second-axis restriction: freeze the first point at the origin
        atlas = hilb21_atlas(0)
        d1, d2, de1, de2 = _chart_syms(atlas, "V4")
        b1, b2, be1, be2 = _chart_syms(atlas, "V2")
        t42 = atlas.transition("V4", "V2")
        at_origin = {b1: SuperPoly.zero()}
        delta1 = t42.rule(de1).as_poly().substitute(at_origin)
        assert delta1 == V(be1) * V(b2, -1)
        prod = (t42.rule(de1).as_poly() * t42.rule(de2).as_poly()).substitute(
            at_origin
        )
        # the wedge-square data -beta1*beta2*(-b2)^(-k-1) at k = 0
        assert prod == V(be1) * V(be2) * V(b2, -1)

    @pytest.mark.parametrize("k", [-2, 0, 3])
    def test_cocycle(self, k):
        atlas = hilb21_atlas(k)
        ok, witness = verify_cocycle(atlas)
        assert ok, witness

    def test_negative_control_flipped_sign(self):
        atlas = hilb21_atlas(1)
        t13 = atlas.transition("V1", "V3")
        a1 = atlas.chart("V1").evens[0]
        bad_rules = dict(t13.rules)
        bad_rules[a1] = -bad_rules[a1]
        atlas.transitions[("V1", "V3")] = TransitionMap(
            target=t13.target, source=t13.source, rules=bad_rules
        )
        ok, witness = verify_cocycle(atlas)
        assert not ok
        assert witness is not None

    def test_inverse_composition_exact(self):
        atlas = hilb21_atlas(2)
        t12 = atlas.transition("V1", "V2")
        t21 = atlas.transition("V2", "V1")
        composed = compose_rules(t12, t21)
        ident = {
            c: LocalizedPoly(V(c)) for c in atlas.chart("V1").coordinates
        }
        assert rules_equal(composed, ident)

    def test_hard_direction_has_diagonal_denominator(self):
        atlas = hilb21_atlas(2)
        t21 = atlas.transition("V2", "V1")
        be1 = atlas.chart("V2").odds[0]
        rule = t21.rule(be1)
        assert not rule.is_polynomial()


class TestTransitionMap:
    def test_rules_argument_left_unchanged(self):
        s = even("srule", invertible=True)
        t = even("trule", invertible=True)
        source = SuperChart("S", (s,), ())
        target = SuperChart("T", (t,), ())
        value = V(s, -1)
        rules = {t: value}
        tmap = TransitionMap(target=target, source=source, rules=rules)
        assert rules == {t: value} and rules[t] is value
        assert tmap.rules is not rules
        assert tmap.rule(t) == LocalizedPoly(value)

    def test_rule_for_a_non_coordinate_raises(self):
        s = even("srule", invertible=True)
        t = even("trule", invertible=True)
        chart = SuperChart("T", (t,), ())
        with pytest.raises(ChartMismatch, match="srule"):
            TransitionMap(target=chart, source=SuperChart("S", (s,), ()),
                          rules={t: V(s), s: V(s)})


class TestInvertTransition:
    def test_small_two_odd_map(self):
        s1 = even("s1i", invertible=True)
        s2 = even("s2i", invertible=True)
        o1, o2 = odd("o1i"), odd("o2i")
        t1 = even("t1i", invertible=True)
        t2 = even("t2i", invertible=True)
        p1, p2 = odd("p1i"), odd("p2i")
        source = SuperChart("S", (s1, s2), (o1, o2))
        target = SuperChart("T", (t1, t2), (p1, p2))
        rules = {
            t1: LocalizedPoly(V(s1, -1) + V(o1) * V(o2) * V(s1, -2)),
            t2: LocalizedPoly(V(s2) * 2),
            p1: LocalizedPoly(V(o1) * (V(s1) - V(s2))),
            p2: LocalizedPoly(V(o2) * V(s1, 3)),
        }
        tmap = TransitionMap(target=target, source=source, rules=rules)
        inv = invert_transition(tmap)  # asserts both compositions internally
        assert inv.target is source and inv.source is target

    def test_wedge_in_chart_order(self):
        """Source odds declared out of name order: the wedge is read as
        the coefficient of zs*as, the order of the chart, which is also
        the frame the inverse is built in."""
        p1, q1 = even("p1", invertible=True), even("q1", invertible=True)
        zs, as_ = odd("zs"), odd("as")
        tb, ta = odd("tb"), odd("ta")
        source = SuperChart("S", (p1,), (zs, as_))
        target = SuperChart("T", (q1,), (tb, ta))
        tmap = TransitionMap(target=target, source=source, rules={
            q1: LocalizedPoly(V(p1) + V(zs) * V(as_)),
            tb: LocalizedPoly(V(zs)),
            ta: LocalizedPoly(V(as_)),
        })
        assert second_order(tmap).wedge[q1] == LocalizedPoly(
            SuperPoly.one())
        inv = invert_transition(tmap)
        assert inv.rule(p1) == LocalizedPoly(V(q1) + V(ta) * V(tb))
        assert inv.rule(zs) == LocalizedPoly(V(tb))
        assert inv.rule(as_) == LocalizedPoly(V(ta))

    def test_term_beyond_the_wedge_raises(self):
        s1 = even("s1h", invertible=True)
        o1, o2, stray = odd("o1h"), odd("o2h"), odd("o3h")
        t1 = even("t1h", invertible=True)
        p1, p2 = odd("p1h"), odd("p2h")
        rules = {
            # o1*stray is even but is not a multiple of o1*o2
            t1: LocalizedPoly(V(s1, -1) + V(o1) * V(o2) + V(o1) * V(stray)),
            p1: LocalizedPoly(V(o1)),
            p2: LocalizedPoly(V(o2)),
        }
        tmap = TransitionMap(target=SuperChart("T", (t1,), (p1, p2)),
                             source=SuperChart("S", (s1,), (o1, o2)),
                             rules=rules)
        with pytest.raises(
                HigherOrderTerms,
                match="rule for t1h has odd terms beyond second order"):
            invert_transition(tmap)
        with pytest.raises(NotCanonicalizable):
            invert_transition(tmap)


class TestSecondOrder:
    @pytest.mark.parametrize("build,k", [
        *((hilb21_atlas, k) for k in (-3, 0, 2, 7)), (hilb11_atlas, 4),
    ])
    def test_parts_rebuild_every_rule(self, build, k):
        for label, tmap in build(k).transitions.items():
            split = second_order(tmap)
            odds = tmap.source.odds
            frame = V(odds[0]) * V(odds[1]) if len(odds) == 2 else 0
            for coord in tmap.target.evens:
                rebuilt = split.bosonic[coord] + split.wedge[coord] * frame
                assert rebuilt == tmap.rule(coord), (label, coord)
                assert split.bosonic[coord].num.odd_variables() == set()
            for m, coord in enumerate(tmap.target.odds):
                rebuilt = LocalizedPoly.sum(
                    entry * V(s) for entry, s in zip(split.odd_block[m], odds)
                )
                assert rebuilt == tmap.rule(coord), (label, coord)

    @pytest.mark.parametrize("build,k", [
        *((hilb21_atlas, k) for k in (-3, 0, 4)), (hilb11_atlas, 2),
        (pi_v_atlas, 2),
    ])
    def test_jacobian_differentiates_the_bosonic_parts(self, build, k):
        for label, tmap in build(k).transitions.items():
            split = second_order(tmap)
            evens = tmap.source.evens
            assert split.jacobian == tuple(
                tuple(split.bosonic[coord].diff(s) for s in evens)
                for coord in tmap.target.evens
            ), label

    @pytest.mark.parametrize("n_odd", [0, 3])
    def test_det_refuses_blocks_beyond_two(self, n_odd):
        """A 3-odd block with rules o0, o1, 2*o2 has det 2, which the
        two-by-two formula would read as 1; a 0-odd block has no entry."""
        x, y = even("x"), even("y")
        src = [odd(f"o{n}") for n in range(n_odd)]
        dst = [odd(f"t{n}") for n in range(n_odd)]
        rules = {y: LocalizedPoly(V(x))}
        rules.update({t: LocalizedPoly(V(o) * (n + 1 if n == 2 else 1))
                      for n, (t, o) in enumerate(zip(dst, src))})
        tmap = TransitionMap(SuperChart("T", (y,), tuple(dst)),
                             SuperChart("S", (x,), tuple(src)), rules)
        split = second_order(tmap)
        with pytest.raises(NotCanonicalizable,
                           match="det needs a square odd block of size 1 or 2"):
            split.det


class TestAtlasSerialization:
    @pytest.mark.parametrize("k", [0, 2])
    def test_round_trip_hilb21(self, k):
        atlas = hilb21_atlas(k)
        text = atlas_to_text(atlas)
        loaded = atlas_from_text(text)
        assert loaded.name == atlas.name
        assert loaded.twist == k
        for key, tmap in atlas.transitions.items():
            loaded_map = loaded.transitions[key]
            for coord in tmap.target.coordinates:
                loaded_coord = next(
                    c
                    for c in loaded_map.target.coordinates
                    if c.name == coord.name
                )
                assert loaded_map.rule(loaded_coord) == tmap.rule(coord)

    def test_round_trip_hilb11(self):
        atlas = hilb11_atlas(3)
        loaded = atlas_from_text(atlas_to_text(atlas))
        ok, witness = verify_cocycle(loaded)
        assert ok, witness

    def test_each_rule_simplified_once(self, monkeypatch):
        text = atlas_to_text(hilb21_atlas(2))
        calls = [0]
        simplified = LocalizedPoly.simplified

        def counted(self):
            calls[0] += 1
            return simplified(self)

        monkeypatch.setattr(LocalizedPoly, "simplified", counted)
        atlas_from_text(text)
        assert calls[0] <= 48, calls[0]  # 12 transitions of 4 rules

    def test_missing_end_raises(self):
        text = atlas_to_text(hilb21_atlas(2))
        truncated = text[:text.rindex("end")]
        with pytest.raises(ChartMismatch):
            atlas_from_text(truncated)

    def test_unexpected_line_raises(self):
        text = atlas_to_text(hilb11_atlas(3))
        with pytest.raises(ChartMismatch):
            atlas_from_text(text.replace("chart B", "chart_B"))

    @pytest.mark.parametrize("text", [
        "atlas hilb21\n",
        "atlas hilb21 twist x\n",
        "atlas hilb21 twist 2\ntransition V1 V2\nend\n",
        "atlas t twist 0\nchart A\n  even a1 inv;\nend\n"
        "transition A A\n  q1 := a1;\nend\n",
        "atlas t twist 0\nchart A\n  even a1 inv;\nend\n"
        "transition A A\n  a1 = a1;\nend\n",
        "atlas hilb21 twist " + "9" * 5000 + "\n",
    ], ids=["no-twist", "twist-not-int", "undeclared-chart",
            "undeclared-coordinate", "rule-without-assign", "twist-too-long"])
    def test_malformed_text_raises(self, text):
        with pytest.raises(ChartMismatch):
            atlas_from_text(text)

    @pytest.mark.parametrize("text, line", [
        ("atlas t twist 0\nchart A\n  even a inv;\nend\n"
         "chart A\n  even b inv;\nend\n", "chart A"),
        ("atlas t twist 0\nchart A\n  even a inv;\nend\n"
         "chart B\n  even b inv;\nend\n"
         "transition B A\n  b := a^-1;\nend\n"
         "transition B A\n  b := 2*a^-1;\nend\n", "transition B A"),
        ("atlas t twist 0\nchart A\n  even c;\nend\n"
         "chart B\n  even c inv;\nend\n", "chart B"),
        ("atlas t twist 0\nchart A\n  even a inv;\nend\n"
         "chart B\n  even b inv;\nend\n"
         "transition B A\n  b := a^-1;\n  b := 2*a^-1;\nend\n",
         "transition B A"),
    ], ids=["duplicate-chart", "duplicate-transition", "redeclared-variable",
            "duplicate-rule"])
    def test_duplicate_declaration_raises(self, text, line):
        with pytest.raises(ChartMismatch, match=line):
            atlas_from_text(text)

    def test_charts_equal_their_parsed_copies(self):
        atlas = hilb21_atlas(2)
        loaded = atlas_from_text(atlas_to_text(atlas))
        for name in ("V1", "V2"):
            assert loaded.chart(name) == atlas.chart(name)


class TestMirrorClosedForm:
    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_v4_from_v2_matches_mirror_form(self, k):
        # the y-side gluing mirrors the x-side one with the same twist
        atlas = hilb21_atlas(k)
        d1, d2, de1, de2 = _chart_syms(atlas, "V4")
        b1, b2, be1, be2 = _chart_syms(atlas, "V2")
        t42 = atlas.transition("V4", "V2")
        sign = Fraction(-1) ** k
        mb2k = sign * V(b2, -k)  # (-b2)^(-k) expanded
        assert t42.rule(d1) == LocalizedPoly(V(b1) - V(be1) * V(be2) * mb2k)
        assert t42.rule(d2) == LocalizedPoly(V(b2, -1))
        assert t42.rule(de1) == LocalizedPoly(V(be1) * (V(b2, -1) - V(b1)))
        assert t42.rule(de2) == LocalizedPoly(V(be2) * mb2k)


class TestPiVSerialization:
    def test_round_trip(self):
        atlas = pi_v_atlas(2)
        loaded = atlas_from_text(atlas_to_text(atlas))
        ok, witness = verify_cocycle(loaded)
        assert ok, witness


class TestCanonicalizePresentationInvariance:
    def test_unit_rescaling_and_row_moves(self, rng):
        from superhilb.ideals import canonical_pair

        amb = Ambient.fresh(2)
        x, theta = amb.coords("x")
        mu1, mu2 = odd("mupi1"), odd("mupi2")
        u_var = even("upi", invertible=True)
        chart = SuperChart("P", (u_var,), (mu1, mu2))
        a_val = SuperPoly.const(Fraction(3, 2))
        b_val = SuperPoly.const(Fraction(-2))
        f, g = canonical_pair(
            2, 1, x, theta, [a_val], [b_val], [V(mu1)], [V(mu2)]
        )
        unit = V(u_var) + V(mu1) * V(mu2)
        # same ideal, different presentation
        f2 = unit * f + V(mu1) * V(x) * g
        g2 = g + V(mu2) * f
        slots = canonicalize(IdealOnChart(chart, "x", (f2, g2)), 2, 1, amb)
        assert slots["a0"] == a_val
        assert slots["b0"] == b_val
        assert slots["alpha0"] == V(mu1)
        assert slots["beta0"] == V(mu2)


class TestCertificatesUnderOptimize:
    def test_tampered_closed_form_raises(self):
        """The closed-form check is a real check: python -O keeps it."""
        done = run_optimized("""
            import superhilb.charts as charts
            from superhilb.errors import CertificateError

            closed_form = charts._expected_12

            def tampered(k, v1, v2):
                rules = closed_form(k, v1, v2)
                a2 = v1.evens[1]
                rules[a2] = rules[a2] + 1
                return rules

            charts._expected_12 = tampered
            try:
                charts.hilb21_atlas(2)
            except CertificateError as exc:
                print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("CertificateError")
        assert "V1<-V2 closed form" in done.stdout


class TestEachCertificateFires:
    """Each chart-layer certificate raises CertificateError on a wrong
    input or a tampered step; see `assert_certificate_fails`."""

    def test_odd_generator_leads_with_one(self):
        # v = psi doubles the (1|0)-point's odd generator t - psi
        amb = Ambient.fresh(2)
        u = V(even("u", invertible=True))
        assert_certificate_fails("odd generator leads with 1",
                                 transport_point, amb, "10", "x", 1, u,
                                 V(amb.psi))

    def test_normalized_point_generator(self):
        # u = y is a coordinate of the patch the point leaves, which the
        # gluing rewrites, so the pulled generator keeps y
        amb = Ambient.fresh(2)
        assert_certificate_fails("normalized point generator",
                                 transport_point, amb, "11", "x", 1,
                                 V(amb.y), V(odd("mu")))

    def test_inverse_composition_on_source(self, monkeypatch):
        tmap = pi_v_atlas(2).transition("U1", "U0")
        compose = charts.compose_rules

        def perturbed(outer, inner):
            rules = compose(outer, inner)
            coord = next(iter(rules))
            rules[coord] = rules[coord] + 1
            return rules

        monkeypatch.setattr(charts, "compose_rules", perturbed)
        assert_certificate_fails("inverse composition on U0",
                                 invert_transition, tmap)

    @staticmethod
    def _move_points(monkeypatch, change):
        transport = charts.transport_point
        monkeypatch.setattr(charts, "transport_point",
                            lambda *args: change(*transport(*args)))

    def test_hilb11_rule_b(self, monkeypatch):
        self._move_points(monkeypatch, lambda u, v: (u + 1, v))
        assert_certificate_fails("hilb11 rule b = 1/a", hilb11_atlas, 2)

    def test_hilb11_rule_beta(self, monkeypatch):
        self._move_points(monkeypatch, lambda u, v: (u, v + v))
        assert_certificate_fails("hilb11 rule beta = -a^(k-2) alpha",
                                 hilb11_atlas, 2)

    def test_v13_closed_form(self, monkeypatch):
        closed_form = charts._expected_13

        def tampered(k, v1, v3):
            rules = closed_form(k, v1, v3)
            a2 = v1.evens[1]
            rules[a2] = rules[a2] + 1
            return rules

        monkeypatch.setattr(charts, "_expected_13", tampered)
        assert_certificate_fails("V1<-V3 closed form", hilb21_atlas, 2)


class TestGoldenFingerprints:
    """Pinned sha256 digests of atlas_to_text: a change to the ring
    kernel or to composition must leave every stored rule byte-identical."""

    @pytest.mark.parametrize("build, k, digest", [
        pytest.param(hilb21_atlas, -8, "24780011bdb3244ed4972f4d6341b032"
                     "7028a0f0cb0af0f079ce744eba556fb8", id="hilb21-k-8"),
        pytest.param(hilb21_atlas, -1, "a5784d3f0af28ce394390d1e1eb9b4fe"
                     "98260aba391eafdfa3a37a6834df5e05", id="hilb21-k-1"),
        pytest.param(hilb21_atlas, 0, "395cc4e1a3533d4d220776f7194658333"
                     "dc6ca4683adc467fab07f6a0ec73600", id="hilb21-k0"),
        pytest.param(hilb21_atlas, 2, "e600332385dea4c9ea4150e49443bd46"
                     "6201e882e983668dba96335751ff4f77", id="hilb21-k2"),
        pytest.param(hilb21_atlas, 63, "bd6f5b5a53043ff608f39f738346b336"
                     "6c4cf318a3c7d92501f703215b9ca8a5", id="hilb21-k63"),
        pytest.param(hilb21_atlas, 200, "ab413280f836145c718614cc7ec935c8"
                     "ef6766f8ed2b91c4934201cff8c74d28", id="hilb21-k200"),
        pytest.param(hilb21_atlas, -200, "1cf84118d9378ff4f52cbe46189be1a4"
                     "10e31dc911a017174060c466df21326c", id="hilb21-k-200"),
        pytest.param(hilb11_atlas, 5, "21861f7dc4032d13032680a9e9db9400"
                     "dbf8c78ed5f12201d9050eff4dfab3a6", id="hilb11-k5"),
        pytest.param(pi_v_atlas, 5, "4818632f0cb002501c1478cddb1aa88f"
                     "8665996a164635317eef9db68f3ea0fd", id="pi_v-k5"),
    ])
    def test_atlas_text_digest(self, build, k, digest):
        text = atlas_to_text(build(k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPowerTables:
    def test_table_powers_match_pow(self):
        atlas = hilb21_atlas(2)
        t21 = atlas.transition("V2", "V1")
        b1 = atlas.chart("V2").evens[0]
        rule = t21.rule(b1)
        assert not rule.is_polynomial()
        table = PowerTable(t21.rules)
        for e in range(-3, 6):
            power, expected = table.power(b1, e), rule ** e
            assert power == expected
            assert (power.num, power.loci) == (expected.num, expected.loci)

    def test_tampered_shared_inner_rule_is_caught(self):
        """Triples (i, V1, V2) for i = V2, V3, V4 share the inner map
        V1<-V2; a rule changed in place after a passing check must fail
        the next one, so no table outlives the call that built it."""
        atlas = hilb21_atlas(2)
        assert verify_cocycle(atlas) == (True, None)
        t12 = atlas.transition("V1", "V2")
        a1 = atlas.chart("V1").evens[0]
        t12.rules[a1] = -t12.rules[a1]
        ok, witness = verify_cocycle(atlas)
        assert not ok
        assert ("V1", "V2") in (witness[:2], witness[1:3])

    def test_inverse_composition_without_simplification(self, monkeypatch):
        """No composite is simplified: the only `simplified()` calls
        cancel the body of a reciprocal of a rule of t21, at most one
        per rule (at k = 2 the body (1 - a2/a1)/(a1 - a2) of 1/b1)."""
        atlas = hilb21_atlas(2)
        t12 = atlas.transition("V1", "V2")
        t21 = atlas.transition("V2", "V1")
        calls = []
        simplified = LocalizedPoly.simplified

        def recorded(self):
            calls.append(self)
            return simplified(self)

        monkeypatch.setattr(LocalizedPoly, "simplified", recorded)
        composed = compose_rules(t12, t21)
        assert len(calls) <= len(t21.rules), calls
        assert all(not value.num.odd_variables() for value in calls), calls
        assert any(not value.is_polynomial() for value in composed.values())
        ident = {
            c: LocalizedPoly(V(c)) for c in atlas.chart("V1").coordinates
        }
        assert rules_equal(composed, ident)


def calls_within(monkeypatch, outer: str, inner: str) -> list:
    """Patch charts.outer and charts.inner so that each call of outer
    appends to the returned list the number of inner calls it made."""
    outer_fn, inner_fn = getattr(charts, outer), getattr(charts, inner)
    made, counts = [0], []

    def counted_inner(*args):
        made[0] += 1
        return inner_fn(*args)

    def counted_outer(*args):
        before = made[0]
        result = outer_fn(*args)
        counts.append(made[0] - before)
        return result

    monkeypatch.setattr(charts, inner, counted_inner)
    monkeypatch.setattr(charts, outer, counted_outer)
    return counts


class TestCostGuard:
    def test_cocycle_product_count(self, monkeypatch):
        """verify_cocycle(hilb21_atlas(20)) on a prebuilt atlas forms at
        most 2075 polynomial products: 1660 measured with power tables
        shared per inner transition, times 1.25 (powers rebuilt for every
        composite took 7296)."""
        atlas = hilb21_atlas(20)
        calls = [0]
        mul = SuperPoly.__mul__

        def counted(self, other):
            calls[0] += 1
            return mul(self, other)

        monkeypatch.setattr(SuperPoly, "__mul__", counted)
        monkeypatch.setattr(SuperPoly, "__rmul__", counted)
        assert verify_cocycle(atlas) == (True, None)
        assert calls[0] <= 2075, calls[0]

    def test_cocycle_term_pair_count(self, monkeypatch):
        """The same products pair at most 46115 terms, len(a.terms) *
        len(b.terms) summed: 36892 measured with monomials as name-sorted
        tuples, times 1.25 (36172 with the odd-graded packed kernel)."""
        atlas = hilb21_atlas(20)
        pairs = [0]
        mul = SuperPoly.__mul__

        def counted(self, other):
            pairs[0] += (len(self.terms)
                         * len(SuperPoly.promote(other).terms))
            return mul(self, other)

        monkeypatch.setattr(SuperPoly, "__mul__", counted)
        monkeypatch.setattr(SuperPoly, "__rmul__", counted)
        assert verify_cocycle(atlas) == (True, None)
        assert pairs[0] <= 46115, pairs[0]

    def test_k63_atlas_product_and_term_pair_counts(self, monkeypatch):
        """hilb21_atlas(63) forms at most 3525 polynomial products pairing
        at most 6078 terms: 2829 and 4874 measured with powers raised
        through the nilpotent soul, about 1.25 times (6760 and 55092
        with n-fold powers over (d1 - d2)^n)."""
        counts = [0, 0]
        mul = SuperPoly.__mul__

        def counted(self, other):
            counts[0] += 1
            counts[1] += (len(self.terms)
                          * len(SuperPoly.promote(other).terms))
            return mul(self, other)

        monkeypatch.setattr(SuperPoly, "__mul__", counted)
        monkeypatch.setattr(SuperPoly, "__rmul__", counted)
        hilb21_atlas(63)
        assert counts[0] <= 3525 and counts[1] <= 6078, counts

    def test_cocycle_reciprocal_count(self, monkeypatch):
        """The same check takes at most 30 reciprocals, as measured with
        each locus image kept by the table that substitutes it (48 with
        every value inverting its loci's images again)."""
        atlas = hilb21_atlas(20)
        calls = [0]
        reciprocal = LocalizedPoly.reciprocal

        def counted(self):
            calls[0] += 1
            return reciprocal(self)

        monkeypatch.setattr(LocalizedPoly, "reciprocal", counted)
        assert verify_cocycle(atlas) == (True, None)
        assert calls[0] <= 30, calls[0]

    @pytest.mark.parametrize("k", [-3, 0, 8])
    def test_atlas_transports_each_point_once(self, monkeypatch, k):
        """hilb21_atlas moves each product chart's (1|1)- and (1|0)-point
        across the gluing once: four transports (eight with one per map
        out of a product chart)."""
        calls = []
        transport = charts.transport_point

        def counted(*args):
            calls.append(args[1:3])
            return transport(*args)

        monkeypatch.setattr(charts, "transport_point", counted)
        hilb21_atlas(k)
        assert len(calls) == 4, calls

    @pytest.mark.parametrize("k", [-3, 0, 8])
    def test_canonicalize_reduces_twice(self, monkeypatch, k):
        """Each canonicalize call reduces x^p and x^q theta and nothing
        else: hilb21_atlas(k) makes 8 normal forms in its 4 calls (24
        with both ideal inclusions reduced as well)."""
        counts = calls_within(monkeypatch, "canonicalize", "_normal_form")
        hilb21_atlas(k)
        assert counts == [2] * 4, counts

    @pytest.mark.parametrize("k", [-3, 0, 8])
    def test_invert_transition_composes_once(self, monkeypatch, k):
        """Each inversion forms the composite on its source alone: 4 in
        hilb21_atlas(k) (8 with the composite on the target as well)."""
        counts = calls_within(monkeypatch, "invert_transition",
                              "compose_rules")
        hilb21_atlas(k)
        assert counts == [1] * 4, counts

    def test_k63_composite_locus_exponents(self):
        """The unsimplified V1<-V2<-V4 composite at k = 63 keeps every
        locus at exponent 2 or less (62 with n-fold powers)."""
        atlas = hilb21_atlas(63)
        composed = compose_rules(atlas.transition("V1", "V2"),
                                 atlas.transition("V2", "V4"))
        assert all(e <= 2 for value in composed.values()
                   for e in value.loci.values())


class TestEachGuardRaises:
    """Each shape check of `canonicalize` and `invert_transition` raises
    NotCanonicalizable with its own message on an input of the wrong
    shape."""

    AMB = Ambient.fresh(0)
    X, THETA = AMB.coords("x")
    MU = odd("mug")
    PAIR = (V(X, 2), V(X) * V(THETA))

    def canonicalize(self, gens, p, q):
        chart = SuperChart("C", (), (self.MU,))
        return canonicalize(IdealOnChart(chart, "x", gens), p, q, self.AMB)

    @pytest.mark.parametrize("gens,p,q,what", [
        ((SuperPoly.zero(), V(THETA)), 1, 0, "zero generator"),
        ((*PAIR, V(X, 3)), 2, 1, "expected one even and one odd generator"),
        ((V(X, 2), V(X)), 2, 1, "expected one even and one odd generator"),
        (PAIR, 3, 1, "even generator has rank 2, expected 3"),
        (PAIR, 2, 0, "odd generator has rank 1, expected 0"),
        # x theta + mu leaves the residual gamma_0 = mu
        ((V(X, 2), V(X) * V(THETA) + V(MU)), 2, 1,
         "nonzero stratification residue: the family is not flat of this "
         "rank"),
    ])
    def test_canonicalize_refuses(self, gens, p, q, what):
        with pytest.raises(NotCanonicalizable, match=what):
            self.canonicalize(gens, p, q)

    S1, S2, U = (even(name, invertible=True) for name in ("s1g", "s2g", "ug"))
    T1, T2, O, P = even("t1g"), even("t2g"), odd("og"), odd("pg")

    @pytest.mark.parametrize("evens,odds,rules,what", [
        ((S1,), (O,), {T1: V(S1) + 1, P: V(O)},
         "bosonic rule is not a monomial: "),
        ((S1, S2), (O,), {T1: V(S1) * V(S2), T2: V(S2), P: V(O)},
         "bosonic rule is not a single power: "),
        ((S1,), (O,), {T1: V(S1, 2), P: V(O)}, "bosonic rule has exponent 2"),
        ((S1,), (), {T1: V(S1)},
         "transition inversion needs matching odd ranks 1 or 2"),
        ((S1, S2), (O,), {T1: V(S1), P: V(O)},
         "transition inversion needs matching even ranks"),
        ((S1, S2), (O,), {T1: V(S1), T2: 2 * V(S1), P: V(O)},
         "two even rules share a source variable"),
        # u is not a coordinate of the source chart
        ((S1, S2), (O,), {T1: V(S1), T2: V(U), P: V(O)},
         "even rules do not cover the source chart"),
    ])
    def test_invert_transition_refuses(self, evens, odds, rules, what):
        target = SuperChart(
            "T", tuple(c for c in rules if c.parity.name == "EVEN"),
            tuple(c for c in rules if c.parity.name == "ODD"))
        tmap = TransitionMap(
            target, SuperChart("S", evens, odds),
            {coord: LocalizedPoly(rule) for coord, rule in rules.items()})
        with pytest.raises(NotCanonicalizable, match=what):
            invert_transition(tmap)


# The twists whose atlases the reference tests below record.
TWISTS = (*range(-6, 7), 20, -20, 63)


@pytest.fixture(scope="module")
def atlas_calls():
    """{name: [(arguments, result), ...]} for every canonicalize and
    invert_transition call that the pi_v, hilb11 and hilb21 atlases make
    at TWISTS."""
    calls = {"canonicalize": [], "invert_transition": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, log in calls.items():
            def recorded(*args, _call=getattr(charts, name), _log=log):
                _log.append((args, _call(*args)))
                return _log[-1][1]

            mp.setattr(charts, name, recorded)
        for k in TWISTS:
            for build in (pi_v_atlas, hilb11_atlas, hilb21_atlas):
                build(k)
    return calls


def assert_ideals_equal(ideal, p, q, amb, slots):
    """Each generator of the input pair and of the canonical pair that
    canonicalize returned as slots reduces to zero modulo the other pair,
    the input pair made monic."""
    w, tp = amb.coords(ideal.side)
    evens_first = sorted(ideal.generators,
                         key=lambda g: g.parity_class().value != "even")
    f_in, g_in = (charts._clear_laurent(g, w) for g in evens_first)
    split_f, split_g = (gen.coefficients((w, tp)) for gen in (f_in, g_in))
    f_hat = invert(split_f[(p, 0)]) * f_in
    g_hat = invert(split_g[(q, 1)]) * g_in
    f_can, g_can = canonical_pair(
        p, q, w, tp, *([slots[f"{name}{i}"] for i in range(n)]
                       for name, n in (("a", p - q), ("b", q),
                                       ("alpha", p - q), ("beta", q))))
    for gens, (f, g) in (((f_in, g_in), (f_can, g_can)),
                         ((f_can, g_can), (f_hat, g_hat))):
        for gen in gens:
            assert not _normal_form(gen, w, f, p, g, tp, q)[0]


class TestImpliedIdentities:
    """The identities that a kept check implies, so that the chart layer
    does not check them again, computed here."""

    def test_canonicalize_ideals_equal_on_the_atlases(self, atlas_calls):
        """The input and canonical ideals of each canonicalize call are
        equal, as the normal forms of x^p and x^q theta with a zero
        residue imply."""
        calls = atlas_calls["canonicalize"]
        assert len(calls) == 4 * len(TWISTS)
        for args, slots in calls:
            assert_ideals_equal(*args, slots)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 5)
                                     for q in range(p + 1)])
    def test_canonicalize_ideals_equal_on_flat_families(self, rng, p, q):
        """A canonical pair times the identity plus a nilpotent matrix
        (even entries w-free on the diagonal, odd ones of w-degree <= 1
        off it, so that both leads stay units) canonicalizes back to its
        coefficients, and the two ideals are equal."""
        amb = Ambient.fresh(0)
        w, tp = amb.coords("x")
        symbols = tuple(odd(f"muf{i}") for i in range(3))
        mus = [V(mu) for mu in symbols]
        chart = SuperChart("F", (), symbols)

        def rational():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

        def odd_value():
            return SuperPoly.sum(rational() * mu for mu in mus)

        def even_value():
            return rational() + rational() * mus[0] * mus[1]

        for _ in range(3):
            values = ([even_value() for _ in range(p - q)],
                      [even_value() for _ in range(q)],
                      [odd_value() for _ in range(p - q)],
                      [odd_value() for _ in range(q)])
            f, g = canonical_pair(p, q, w, tp, *values)
            f2 = (1 + rational() * mus[1] * mus[2]) * f + (
                odd_value() + odd_value() * V(w)) * g
            g2 = (odd_value() + odd_value() * V(w)) * f + (
                1 + rational() * mus[0] * mus[2]) * g
            ideal = IdealOnChart(chart, "x", (f2, g2))
            slots = canonicalize(ideal, p, q, amb)
            assert slots == {
                f"{name}{i}": value
                for name, group in zip(("a", "b", "alpha", "beta"), values)
                for i, value in enumerate(group)}
            assert_ideals_equal(ideal, p, q, amb, slots)

    def test_target_composite_on_the_atlases(self, atlas_calls):
        """tmap o inverse is the identity for every inversion, as the
        certified inverse o tmap implies."""
        calls = atlas_calls["invert_transition"]
        assert len(calls) == 6 * len(TWISTS)
        for (tmap,), inverse in calls:
            ident = {c: LocalizedPoly(V(c)) for c in tmap.target.coordinates}
            assert rules_equal(compose_rules(tmap, inverse), ident)

    def test_source_composite_raises_not_a_unit(self):
        """The kept composite is the one that can raise: the inverse's
        locus 3 t1 - t2^2 (1 + t2) pulls back to (3 - s1 s2^2 (1 + s2))
        / s1, whose body is no unit times loci."""
        s1, s2, t1, t2 = (even(name, invertible=True)
                          for name in ("s1n", "s2n", "t1n", "t2n"))
        o, p = odd("on"), odd("pn")
        tmap = TransitionMap(
            SuperChart("T", (t1, t2), (p,)), SuperChart("S", (s1, s2), (o,)),
            {t1: LocalizedPoly(V(s1, -1)), t2: LocalizedPoly(V(s2)),
             p: LocalizedPoly((3 - V(s1) * V(s2, 2) * (1 + V(s2))) * V(o))})
        with pytest.raises(NotAUnit, match="is not a unit times distinct "
                           "loci"):
            invert_transition(tmap)
