from fractions import Fraction

import pytest

from conftest import run_optimized
from superhilb.charts import hilb11_atlas, hilb21_atlas
from superhilb.localized import LocalizedPoly
from superhilb.obstruction import (
    CONES,
    analyze_subsystem,
    antisymmetry_holds,
    build_coboundary_system,
    build_full_coboundary_system,
    extract_obstruction,
    frame_transport_identity,
    is_coboundary,
    solve_laurent_system,
    split_check_11,
    wedge2_degrees,
)
from superhilb.ring import SuperPoly

V = SuperPoly.var


class TestCochain:
    def test_rank_one_vanishing(self):
        for k in (-2, 0, 1, 4):
            atlas = hilb11_atlas(k)
            cochain = extract_obstruction(atlas)
            assert all(
                cochain.is_zero_on(t, s) for (t, s) in atlas.transitions
            )

    def test_psi_23_zero(self):
        for k in (-1, 0, 2, 5):
            atlas = hilb21_atlas(k)
            cochain = extract_obstruction(atlas)
            assert cochain.is_zero_on("V2", "V3")
            assert cochain.is_zero_on("V3", "V2")

    def test_psi_13_coefficient(self):
        k = 2
        atlas = hilb21_atlas(k)
        cochain = extract_obstruction(atlas)
        c2 = atlas.chart("V3").evens[1]
        # coefficient of the first even rule: -(-c2)^(-k)
        expected = LocalizedPoly(-SuperPoly.const(Fraction(-1) ** k) * V(c2, -k))
        assert cochain.component("V1", "V3", "a1") == expected

    def test_psi_12_coefficient(self):
        k = 3
        atlas = hilb21_atlas(k)
        cochain = extract_obstruction(atlas)
        b1 = atlas.chart("V2").evens[0]
        expected = LocalizedPoly(
            SuperPoly.const(Fraction(-1) ** (k - 2)) * V(b1, k - 2)
        )
        assert cochain.component("V1", "V2", "a1") == expected

    @pytest.mark.parametrize("k", range(-2, 6))
    def test_frame_transport_identity(self, k):
        atlas = hilb21_atlas(k)
        assert frame_transport_identity(atlas, "V1", "V3")
        assert frame_transport_identity(atlas, "V1", "V2")

    def test_antisymmetry(self):
        atlas = hilb21_atlas(2)
        for pair in (
            ("V1", "V2"), ("V1", "V3"), ("V2", "V3"),
            ("V1", "V4"), ("V2", "V4"), ("V3", "V4"),
        ):
            assert antisymmetry_holds(atlas, *pair)

    def test_identities_do_not_rebuild_the_cochain(self, monkeypatch):
        import superhilb.obstruction as obstruction

        atlas = hilb21_atlas(2)

        def rebuilt(_atlas):
            raise AssertionError("the whole cochain was rebuilt")

        monkeypatch.setattr(obstruction, "extract_obstruction", rebuilt)
        assert frame_transport_identity(atlas, "V1", "V2")
        assert antisymmetry_holds(atlas, "V1", "V4")


class TestWedgeDegrees:
    def test_reference_values(self):
        assert wedge2_degrees(3) == (0, -4)
        assert wedge2_degrees(0) == (-3, -1)

    @pytest.mark.parametrize("k", range(-3, 7))
    def test_formula(self, k):
        assert wedge2_degrees(k) == (k - 3, -k - 1)


class TestCones:
    def test_three_named_cones(self):
        for chart, cone in CONES.items():
            assert cone in ((1, 1), (-1, 1), (1, -1), (-1, -1))


class TestCoboundarySystem:
    def test_k0_d0_forced_constants(self):
        system = build_coboundary_system(0, 0)
        solution = solve_laurent_system(system)
        assert solution is not None
        assert solution[("f", 0, 0)] == 0
        assert solution[("g", 0, 0)] == 1
        assert solution[("h", 0, 0)] == 1

    def test_homogeneous_variant_solvable_by_zero(self):
        system = build_coboundary_system(2, 2)
        stripped = type(system)(
            system.twist,
            system.blocks,
            tuple(
                type(eq)(eq.label, eq.terms, {}) for eq in system.equations
            ),
            system.degree_bound,
        )
        solution = solve_laurent_system(stripped)
        assert solution is not None
        assert all(v == 0 for v in solution.values())

    def test_k1_support_disjointness(self):
        system = build_coboundary_system(1, 2)
        eq23 = next(eq for eq in system.equations if eq.label == "V2V3.z")
        factors = dict(eq23.terms)
        ((gz, gw),) = factors["g"].keys()
        ((hz, hw),) = factors["h"].keys()
        d = 2
        g_image = {(gz - e, gw + f) for e in range(d + 1) for f in range(d + 1)}
        h_image = {(hz + e, hw - f) for e in range(d + 1) for f in range(d + 1)}
        assert all(ew >= 1 for _, ew in g_image)
        assert all(ew <= 0 for _, ew in h_image)
        assert not (g_image & h_image)

    def test_case_analysis_labels(self):
        assert analyze_subsystem(build_coboundary_system(2, 4)).case_label == "I"
        assert analyze_subsystem(build_coboundary_system(-1, 4)).case_label == "II"
        third = analyze_subsystem(build_coboundary_system(0, 4))
        assert third.case_label == "III"
        assert third.forced.get("f") == 0
        assert third.forced.get("g00") == 1

    @pytest.mark.parametrize("k", [-2, -1, 1, 2, 3])
    def test_solver_and_analysis_agree_infeasible(self, k):
        system = build_coboundary_system(k, abs(k) + 4)
        assert not analyze_subsystem(system).feasible
        for d in range(0, abs(k) + 5):
            assert solve_laurent_system(system, d) is None


class TestVerdicts:
    @pytest.mark.parametrize("k,twist", [(2, 0), (0, 2), (5, -3), (4, -2)])
    def test_split_check_11(self, k, twist):
        verdict = split_check_11(k)
        assert verdict.split
        assert verdict.twist == twist

    @pytest.mark.parametrize("k", [-2, 1, 3])
    def test_non_split_for_nonzero_twist(self, k):
        verdict = is_coboundary(k)
        assert not verdict.split
        assert verdict.case_label == ("I" if k > 0 else "II")
        assert verdict.degrees == (k - 3, -k - 1)
        assert any("w - z" in line for line in verdict.trace)

    def test_twist_zero_explicit_certificate(self):
        # the three-overlap analysis forces f = 0 and c = 1 but stays
        # consistent, and constant sections bound the cochain on the
        # whole four-chart cover; the verdict is honest about it
        verdict = is_coboundary(0)
        assert verdict.split
        assert verdict.case_label == "III"
        assert verdict.certificate == {"g[0,0]": Fraction(1), "h[0,0]": Fraction(1)}
        assert any("f = 0 and c = 1" in line for line in verdict.trace)

    def test_full_system_matches_subsystem_for_nonzero(self):
        full = build_full_coboundary_system(1, 3)
        assert solve_laurent_system(full) is None


class TestDefensiveGuards:
    def test_higher_order_terms_raise(self):
        from superhilb.errors import HigherOrderTerms
        from superhilb.obstruction import _wedge_coeff
        from superhilb.ring import odd

        odds = tuple(odd(f"hot{i}") for i in range(4))
        term = SuperPoly.one()
        for v in odds:
            term = term * V(v)
        with pytest.raises(HigherOrderTerms):
            _wedge_coeff(LocalizedPoly(term), odds)


def _solution_satisfies(system, solution):
    from superhilb.obstruction import _lb_add, _lb_scale

    for eq in system.equations:
        total = {}
        for block, factor in eq.terms:
            _, (sz, sw) = system.blocks[block]
            for (name, e, f_), val in solution.items():
                if name != block or val == 0:
                    continue
                sign = -1 if (e + f_) % 2 else 1
                shifted = {
                    (fz + sz * e, fw + sw * f_): c * val * sign
                    for (fz, fw), c in factor.items()
                }
                total = _lb_add(total, shifted)
        if _lb_add(total, _lb_scale(eq.rhs, -1)):
            return False
    return True


class TestSolverSoundness:
    def test_solution_satisfies_equations(self):
        system = build_coboundary_system(0, 2)
        solution = solve_laurent_system(system)
        assert solution is not None
        assert _solution_satisfies(system, solution)

    def test_full_system_solution_satisfies(self):
        full = build_full_coboundary_system(0, 3)
        solution = solve_laurent_system(full)
        assert solution is not None
        assert _solution_satisfies(full, solution)


class TestCertificatesUnderOptimize:
    def test_tampered_sections_and_system_raise(self):
        """The split certificate and the support analysis's shape checks
        are real checks: python -O keeps them."""
        done = run_optimized("""
            from dataclasses import replace

            import superhilb.obstruction as ob
            from superhilb.errors import CertificateError, NotCanonicalizable

            sections_from = ob._sections_from_solution

            def tampered(solution, charts_evens):
                sections = sections_from(solution, charts_evens)
                first, second = sections["V2"]
                sections["V2"] = (first + 1, second)
                return sections

            ob._sections_from_solution = tampered
            try:
                ob.is_coboundary(0)
            except CertificateError as exc:
                print(type(exc).__name__, exc)

            system = ob.build_coboundary_system(3, 7)
            equations = tuple(
                replace(eq, rhs={(0, 0): 1}) if eq.label == "V2V3.z" else eq
                for eq in system.equations
            )
            try:
                ob.analyze_subsystem(replace(system, equations=equations))
            except NotCanonicalizable as exc:
                print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2, done.stdout
        assert lines[0].startswith("CertificateError")
        assert "exact identities" in lines[0]
        assert lines[1].startswith("NotCanonicalizable")
        assert "vanishing obstruction on V2V3" in lines[1]
