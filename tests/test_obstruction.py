import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import superhilb.obstruction as ob
from conftest import (antisymmetry_holds, assert_certificate_fails,
                      frame_transport_identity, run_capped, run_optimized)
from superhilb.charts import hilb11_atlas, hilb21_atlas
from superhilb.errors import TooManyUnknowns
from superhilb.localized import LocalizedPoly
from superhilb.matrix import _echelon
from superhilb.obstruction import (
    CONES,
    CoboundaryEquation,
    LaurentSystem,
    analyze_subsystem,
    build_coboundary_system,
    build_full_coboundary_system,
    extract_obstruction,
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
        assert CONES == {
            "V1": (1, 1), "V2": (-1, 1), "V3": (1, -1), "V4": (-1, -1)
        }

    def test_block_order(self):
        assert list(build_coboundary_system(1, 0).blocks) == ["f", "g", "h"]
        assert list(build_full_coboundary_system(1, 0).blocks) == [
            "f", "fw", "g", "gw", "h", "hw", "s", "sw"
        ]


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
            assert solve_laurent_system(replace(system, degree_bound=d)) is None


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


class TestGoldenVerdicts:
    """Pinned sha256 digests of the verdict JSON, one sort_keys line per
    twist: a change to the obstruction layer must leave every verdict,
    trace line and certificate byte-identical."""

    @pytest.mark.parametrize("decide, ks, digest", [
        pytest.param(is_coboundary, range(-6, 7),
                     "30771c8c5270c8688c037d1c813b31a7"
                     "d21d17e636877aa47f61de9579be1951", id="hilb21-k-6..6"),
        pytest.param(split_check_11, range(-3, 4),
                     "ca46dd200b2376250f3e4ec1a8b9d602"
                     "3f90605a52373112f8a4f8b83e075a73", id="hilb11-k-3..3"),
    ])
    def test_verdict_json_digest(self, decide, ks, digest):
        text = "\n".join(json.dumps(decide(k).to_json_dict(), sort_keys=True)
                         for k in ks)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTwistMismatch:
    """An atlas of another twist is refused, not silently analyzed."""

    def test_is_coboundary(self):
        with pytest.raises(ValueError):
            is_coboundary(3, hilb21_atlas(0))

    def test_build_coboundary_system(self):
        with pytest.raises(ValueError):
            build_coboundary_system(3, 4, hilb21_atlas(0))

    def test_build_full_coboundary_system(self):
        with pytest.raises(ValueError):
            build_full_coboundary_system(3, 4, hilb21_atlas(0))

    def test_wedge2_degrees(self):
        with pytest.raises(ValueError):
            wedge2_degrees(5, hilb21_atlas(2))


class TestDefensiveGuards:
    def test_residue_vanishing_on_diagonal_raises(self):
        """z - w vanishes on the diagonal like the V1 column: a shape the
        support analysis refuses instead of dividing."""
        from superhilb.errors import NotCanonicalizable

        system = build_coboundary_system(3, 7)
        equations = tuple(
            replace(eq, rhs={(1, 0): Fraction(1), (0, 1): Fraction(-1)})
            if eq.label == "V1V2.z" else eq
            for eq in system.equations
        )
        with pytest.raises(NotCanonicalizable, match="expected the V1/V2 "
                           "residue to vanish or to survive on the diagonal"):
            analyze_subsystem(replace(system, equations=equations))

    def test_wide_coupling_box_raises(self):
        """g- and h-columns that couple on a 3x3 box of exponents, not on
        the one constant slot, are a shape the support analysis refuses."""
        from superhilb.errors import NotCanonicalizable

        system = build_coboundary_system(0, 4)
        eq23 = next(eq for eq in system.equations if eq.label == "V2V3.z")
        factors = dict(eq23.terms)
        ((hz, hw),) = factors["h"].keys()
        factors["g"] = {(hz + 2, hw - 2): Fraction(1)}
        wide = replace(eq23, terms=tuple(factors.items()))
        equations = tuple(wide if eq is eq23 else eq
                          for eq in system.equations)
        with pytest.raises(NotCanonicalizable,
                           match="unexpected coupling box"):
            analyze_subsystem(replace(system, equations=equations))

    @staticmethod
    def analyze_with(k, label, rhs=None, **columns):
        """analyze_subsystem on the k system at bound 4 with the given
        columns of equation label replaced, and its right side when rhs
        is given."""
        system = build_coboundary_system(k, 4)

        def changed(eq):
            terms = tuple({**dict(eq.terms), **columns}.items())
            return replace(eq, terms=terms,
                           rhs=eq.rhs if rhs is None else rhs)

        equations = tuple(changed(eq) if eq.label == label else eq
                          for eq in system.equations)
        return analyze_subsystem(replace(system, equations=equations))

    def test_shape_checks_raise(self):
        """Each shape the support analysis does not read raises its own
        NotCanonicalizable, in an equation the unchanged system passes."""
        from superhilb.errors import NotCanonicalizable

        one = Fraction(1)
        cases = [
            (3, "V2V3.z", {"g": {(0, 0): one, (1, 0): one}},
             "expected monomial columns on the V2V3 overlap"),
            (3, "V2V3.z", {"rhs": {(0, 0): one}},
             "expected a vanishing obstruction on V2V3"),
            (3, "V1V2.z", {"f": {(0, 0): one}},
             "the V1-column must vanish on the diagonal"),
            (0, "V1V2.z", {"g": {(1, 0): one, (0, 1): -one}},
             "expected a g-column on the V1V2 overlap"),
        ]
        for k, label, changes, what in cases:
            with pytest.raises(NotCanonicalizable, match=what):
                self.analyze_with(k, label, **changes)

    def test_axis_restriction_not_a_monomial_raises(self):
        from superhilb.errors import NotCanonicalizable
        from superhilb.ring import even

        b = even("b")
        with pytest.raises(NotCanonicalizable, match="axis restriction is "
                           "not a monomial transition"):
            ob._monomial_degree(V(b) + V(b, 2), b)

    def test_embedding_rejects_foreign_variables(self):
        """A term in a variable outside the chart is refused even when
        its degrees cancel (a1*c*dd^-1 has the total degree of a1), and a
        term with odd variables is refused as not bosonic."""
        from superhilb.obstruction import embed_chart_poly
        from superhilb.ring import even, odd

        a1, a2 = (even(f"a{i}", invertible=True) for i in (1, 2))
        c, dd = even("c"), even("dd", invertible=True)
        sz, sw = CONES["V1"]
        assert embed_chart_poly(V(a1) * V(a2, 2) + 3, "V1", (a1, a2)) == {
            (sz, 2 * sw): -1, (0, 0): 3}
        with pytest.raises(ValueError, match="chart-coordinate"):
            embed_chart_poly(V(a1) * V(c) * V(dd, -1), "V1", (a1, a2))
        with pytest.raises(ValueError, match="bosonic"):
            embed_chart_poly(V(a1) * V(odd("alpha1")) * V(odd("alpha2")),
                             "V1", (a1, a2))

    def test_higher_order_terms_raise(self):
        from superhilb.charts import SuperChart, TransitionMap, second_order
        from superhilb.errors import HigherOrderTerms
        from superhilb.ring import even, odd

        odds = tuple(odd(f"hot{i}") for i in range(4))
        term = SuperPoly.one()
        for v in odds:
            term = term * V(v)
        s, t = even("hots"), even("hott")
        tmap = TransitionMap(target=SuperChart("T", (t,), ()),
                             source=SuperChart("S", (s,), odds),
                             rules={t: LocalizedPoly(V(s) + term)})
        with pytest.raises(HigherOrderTerms):
            second_order(tmap)


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
        assert "the solver's sections satisfy the exact identities" in lines[0]
        assert lines[1].startswith("NotCanonicalizable")
        assert "expected a vanishing obstruction on V2V3" in lines[1]


def _unknowns(blocks, bound):
    return [
        (name, e, f_)
        for name in blocks
        for e in range(bound + 1)
        for f_ in range(bound + 1 - e)
    ]


def _dense_rows(system, bound):
    """{(equation, z, w): [coefficient per unknown, rhs]} of the
    truncated system, with Fraction entries."""
    unknowns = _unknowns(system.blocks, bound)
    rows = {}

    def row(key):
        return rows.setdefault(key, [[Fraction(0)] * len(unknowns),
                                     Fraction(0)])

    for eq_no, eq in enumerate(system.equations):
        for block, factor in eq.terms:
            if block not in system.blocks:
                continue  # no unknowns: the term contributes nothing
            _, (sz, sw) = system.blocks[block]
            for col, (name, e, f_) in enumerate(unknowns):
                if name != block:
                    continue
                for (fz, fw), c in factor.items():
                    key = (eq_no, fz + sz * e, fw + sw * f_)
                    row(key)[0][col] += c * (-1) ** (e + f_)
        for (ez, ew), c in eq.rhs.items():
            row((eq_no, ez, ew))[1] += c
    return unknowns, rows


def _dense_solve(system, bound):
    """Reference: Gauss-Jordan on the dense augmented matrix, free
    unknowns zero; None when infeasible."""
    unknowns, rows = _dense_rows(system, bound)
    matrix = [coeffs + [rhs] for coeffs, rhs in rows.values()]
    n = len(unknowns)
    pivot_cols = []
    r = 0
    for col in range(n):
        hit = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if hit is None:
            continue
        matrix[r], matrix[hit] = matrix[hit], matrix[r]
        lead = matrix[r][col]
        matrix[r] = [x / lead for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [x - factor * y
                             for x, y in zip(matrix[i], matrix[r])]
        pivot_cols.append(col)
        r += 1
    if any(row[n] for row in matrix[r:]):
        return None
    solution = {u: Fraction(0) for u in unknowns}
    for i, col in enumerate(pivot_cols):
        solution[unknowns[col]] = matrix[i][n]
    return solution


def _random_system(rng, bound, consistent, awkward=False):
    """A random three-block system with right-hand sides that are the
    image of a random point, or random entries.  An awkward system also
    lists a block twice in an equation (sometimes cancelling a term to
    zero), has a term on a block the system lacks, and shifts every
    exponent by an offset near -300, 0 or 300."""
    blocks = {
        name: (chart, CONES[chart])
        for name, chart in (("f", "V1"), ("g", "V2"), ("h", "V3"))
        if rng.random() < 0.8
    } or {"f": ("V1", CONES["V1"])}
    shift = ((rng.choice([-300, 0, 300]) + rng.randint(-3, 3),
              rng.choice([-300, 0, 300]) + rng.randint(-3, 3))
             if awkward else (0, 0))

    def coefficient():
        return Fraction(rng.choice([-3, -2, -1, 1, 1, 2, 3]),
                        rng.choice([1, 1, 2, 3]))

    def factor():
        return {
            (rng.randint(-2, 2) + shift[0], rng.randint(-2, 2) + shift[1]):
                coefficient()
            for _ in range(rng.randint(1, 3))
        }

    equations = []
    for eq_no in range(rng.randint(1, 3)):
        terms = []
        for name in blocks:
            if rng.random() < 0.7:
                terms.append((name, factor()))
        if awkward:
            if terms:
                name, first = rng.choice(terms)
                again = factor()
                if rng.random() < 0.5:
                    key = rng.choice(list(first))
                    again[key] = -first[key]  # cancels that term
                terms.insert(rng.randrange(len(terms) + 1), (name, again))
            terms.append(("x", factor()))  # not a block of the system
        equations.append(CoboundaryEquation(f"E{eq_no}", tuple(terms), {}))
    system = LaurentSystem(0, blocks, tuple(equations), bound)
    # right-hand sides: the image of random values, or random entries
    unknowns, rows = _dense_rows(system, bound)
    point = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in unknowns]
    rhs = [{} for _ in equations]
    for (eq_no, ez, ew), (coeffs, _) in rows.items():
        if consistent:
            value = sum(c * x for c, x in zip(coeffs, point))
        else:
            value = coefficient() if rng.random() < 0.3 else Fraction(0)
        if value:
            rhs[eq_no][(ez, ew)] = value
    equations = tuple(
        CoboundaryEquation(eq.label, eq.terms, side)
        for eq, side in zip(equations, rhs)
    )
    return LaurentSystem(0, blocks, equations, bound)


class TestBoundedSolver:
    @staticmethod
    def _constant_sections(blocks, bound):
        expected = {u: Fraction(0) for u in _unknowns(blocks, bound)}
        expected[("g", 0, 0)] = Fraction(1)
        expected[("h", 0, 0)] = Fraction(1)
        return expected

    @pytest.mark.parametrize("build,bound", [
        (build_coboundary_system, 80),
        (build_full_coboundary_system, 36),
    ])
    def test_twist_zero_golden(self, build, bound):
        system = build(0, bound)
        solution = solve_laurent_system(system)
        expected = self._constant_sections(system.blocks, bound)
        assert list(solution.items()) == list(expected.items())
        assert all(type(v) is Fraction for v in solution.values())

    @pytest.mark.parametrize("k", [3, -3])
    def test_nonzero_twist_golden(self, k):
        assert solve_laurent_system(build_coboundary_system(k, 80)) is None

    def test_random_systems_match_dense_reference(self):
        rng = random.Random(5)
        outcomes = {True: 0, False: 0}
        for trial in range(60):
            bound = rng.randint(0, 3)
            system = _random_system(rng, bound, consistent=trial % 3 != 0)
            got = solve_laurent_system(system)
            want = _dense_solve(system, bound)
            outcomes[want is not None] += 1
            if want is None:
                assert got is None, trial
            else:
                assert got is not None, trial
                assert list(got.items()) == list(want.items()), trial
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes

    def test_awkward_systems_match_dense_reference(self):
        """Blocks listed twice in one equation, factor terms that cancel,
        a term on a block the system lacks and exponents near +-300 leave
        the solver equal to the dense reference."""
        rng = random.Random(17)
        outcomes = {True: 0, False: 0}
        for trial in range(120):
            bound = rng.randint(0, 3)
            system = _random_system(rng, bound, consistent=trial % 3 != 0,
                                    awkward=True)
            got = solve_laurent_system(system)
            want = _dense_solve(system, bound)
            outcomes[want is not None] += 1
            if want is None:
                assert got is None, trial
            else:
                assert got is not None, trial
                assert list(got.items()) == list(want.items()), trial
        assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes

    @pytest.mark.parametrize("k", [100, -100])
    def test_large_twist_infeasible(self, k):
        system = build_coboundary_system(k, abs(k) + 4)
        assert solve_laurent_system(system) is None


class TestNegativeBound:
    def test_three_overlap_system(self):
        with pytest.raises(ValueError):
            build_coboundary_system(0, -1)

    def test_full_system(self):
        with pytest.raises(ValueError):
            build_full_coboundary_system(0, -1)

    def test_solver_override(self):
        """The solver refuses a system whose bound is replaced by -1."""
        with pytest.raises(ValueError):
            solve_laurent_system(
                replace(build_coboundary_system(0, 2), degree_bound=-1))


class TestSolverCost:
    def test_fraction_count_k0_bound80(self, monkeypatch):
        """solve_laurent_system(build_coboundary_system(0, 80)) builds at
        most 6 Fraction objects: 5 measured with integer entries, one
        shared zero and ints converted on return, times 1.25 (Fraction
        entries throughout built 198778)."""
        system = build_coboundary_system(0, 80)
        built = [0]
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        assert solve_laurent_system(system) is not None
        monkeypatch.undo()
        assert built[0] <= 6, built[0]


def _one_block_system(cone, equations, bound):
    """A system of one block f on the given cone; equations are
    (factor, rhs) pairs."""
    return LaurentSystem(0, {"f": ("V1", cone)}, tuple(
        CoboundaryEquation(f"E{n}", (("f", factor),), rhs)
        for n, (factor, rhs) in enumerate(equations)), bound)


class TestSupportCheck:
    """A nonzero right side that no term of its equation reaches within
    the bound is the empty row 0 = c that elimination would find."""

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_agrees_with_full_elimination(self, k):
        atlas = hilb21_atlas(k)
        for bound in (abs(k) + 4, 20):
            system = build_coboundary_system(k, bound, atlas)
            full = _echelon(ob._Truncation(system, bound).rows())
            assert (solve_laurent_system(system) is None) == (full is None)
            assert (full is None) == (k != 0)

    @pytest.mark.parametrize("cone,target,bound,feasible", [
        ((1, 1), (7, -6), 3, True),  # (e, f) = (2, 1)
        ((1, 1), (7, -6), 2, False),  # e + f above the bound
        ((1, 1), (4, -7), 3, False),  # behind the cone
        ((-1, 1), (3, -6), 3, True),
        ((-1, 1), (6, -7), 3, False),
        ((2, -3), (9, -10), 3, True),
        ((2, -3), (6, -7), 3, False),  # between the cone's z-steps
        ((2, -3), (5, -8), 3, False),  # between its w-steps
        ((0, 1), (5, -4), 3, True),
        ((0, 1), (6, -7), 3, False),  # a flat cone keeps its z
    ])
    def test_reached_right_side_is_not_refused(self, cone, target, bound,
                                               feasible):
        """A right side some (e, f) of the factor's shifted triangle hits
        is solved; any other is infeasible, as the dense reference says."""
        system = _one_block_system(
            cone, [({(5, -7): Fraction(3, 2)}, {target: 1})], bound)
        want = _dense_solve(system, bound)
        assert (want is not None) == feasible
        assert solve_laurent_system(system) == want

    def test_cost_guard_builds_no_truncation(self, monkeypatch):
        """Twists with an unreached right side build no rows at all."""
        systems = {k: build_coboundary_system(k, 80 if abs(k) == 3
                                              else abs(k) + 4)
                   for k in (3, -3, 100, -100, 0)}
        built = []

        class Counted(ob._Truncation):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(ob, "_Truncation", Counted)
        for k in (3, -3, 100, -100):
            assert solve_laurent_system(systems[k]) is None
        assert built == []
        assert solve_laurent_system(systems[0]) is not None
        assert built == [1]

    def test_huge_bound_answers_without_unknowns(self):
        """Listing the unknowns of bound 99999999 would exhaust memory;
        the support check answers first.  The child's address space is
        capped so a regression fails instead of exhausting memory."""
        done = run_capped(["-c", (
            "from superhilb.obstruction import *\n"
            "print(solve_laurent_system("
            "build_coboundary_system(4, 99999999)))")])
        assert done.returncode == 0, done.stderr
        assert done.stdout == "None\n"

    def test_huge_bound_at_twist_zero_is_refused(self):
        """At k = 0 every right side is reached, and bound 99999999 would
        list 1.5e16 unknowns; the solver refuses it before listing one.
        The child's address space is capped as above."""
        done = run_capped(["-c", (
            "from superhilb.obstruction import *\n"
            "from superhilb.errors import TooManyUnknowns\n"
            "try:\n"
            "    solve_laurent_system(build_coboundary_system(0, 99999999))\n"
            "except TooManyUnknowns as exc:\n"
            "    print(exc)")])
        assert done.returncode == 0, done.stderr
        assert done.stdout == (
            "the solve at degree bound 99999999 has 15000000150000000 "
            "unknowns; the solver lists at most 200000\n")

    def test_unknown_cap_is_inclusive(self, monkeypatch):
        """Three blocks at bound 2 list 18 unknowns: a cap of 18 solves,
        a cap of 17 refuses."""
        system = build_coboundary_system(0, 2)
        monkeypatch.setattr(ob, "MAX_UNKNOWNS", 18)
        assert solve_laurent_system(system) is not None
        monkeypatch.setattr(ob, "MAX_UNKNOWNS", 17)
        with pytest.raises(TooManyUnknowns):
            solve_laurent_system(system)


class TestEarlyStop:
    # bound 1 on the cone (1, 1): unknowns f[0,0], f[0,1], f[1,0] land on
    # the rows (0, 0), (0, 1), (1, 0) of each equation with signs +, -, -
    PIN = ({(0, 0): 1}, {(0, 0): 1, (0, 1): 2, (1, 0): 3})

    def _solve_counting_rows(self, monkeypatch, system):
        read = []

        def counted(rows, *rest):
            def tapped():
                for row in rows:
                    read.append(1)
                    yield row
            return _echelon(tapped(), *rest)

        monkeypatch.setattr(ob, "_echelon", counted)
        return solve_laurent_system(system), len(read)

    def test_later_contradiction_is_infeasible(self, monkeypatch):
        """The first equation's rows pin every unknown, so elimination
        stops after them; the second equation contradicts them on its last
        row, which the certificate reads as infeasibility, not a fault."""
        system = _one_block_system(
            (1, 1), [self.PIN, ({(0, 0): 1}, {(0, 0): 1, (0, 1): 2,
                                              (1, 0): 4})], 1)
        got, read = self._solve_counting_rows(monkeypatch, system)
        assert read == 3
        assert got is None
        assert _dense_solve(system, 1) is None

    def test_later_agreement_is_the_solution(self, monkeypatch):
        system = _one_block_system((1, 1), [self.PIN, self.PIN], 1)
        got, read = self._solve_counting_rows(monkeypatch, system)
        assert read == 3
        assert got == _dense_solve(system, 1) == {
            ("f", 0, 0): 1, ("f", 0, 1): -2, ("f", 1, 0): -3}


def _solve_counting_equations(monkeypatch, system):
    """The solver's answer and the labels of the equations whose rows it
    built, in build order."""
    built = []
    build = ob._Truncation._equation_rows

    def counted(self, n):
        built.append(system.equations[n].label)
        return build(self, n)

    monkeypatch.setattr(ob._Truncation, "_equation_rows", counted)
    return solve_laurent_system(system), built


class TestStreamedRows:
    """Rows are built one equation at a time, as elimination reads them,
    so the equations after full column rank are never built."""

    @pytest.mark.parametrize("build,bound,labels", [
        (build_coboundary_system, 80, ["V1V2.z", "V1V3.z"]),
        (build_full_coboundary_system, 36,
         ["V1V2.z", "V1V2.w", "V1V3.z", "V1V3.w", "V1V4.z", "V1V4.w"]),
    ])
    def test_twist_zero_builds_the_equations_read(self, monkeypatch, build,
                                                   bound, labels):
        """At k = 0 the three-overlap system at bound 80 builds 2 of its 3
        equations, and the full system at bound 36 builds 6 of 12."""
        system = build(0, bound)
        solution, built = _solve_counting_equations(monkeypatch, system)
        assert solution is not None
        assert built == labels

    @pytest.mark.parametrize("k", [3, -3])
    def test_unreached_right_side_builds_no_equation(self, monkeypatch, k):
        system = build_coboundary_system(k, 80)
        solution, built = _solve_counting_equations(monkeypatch, system)
        assert solution is None
        assert built == []

    def test_contradiction_in_an_unbuilt_equation_is_infeasible(
            self, monkeypatch):
        """The first equation pins every unknown; the third contradicts it
        on its last row.  The certificate reads the residual of every
        equation, built or not, and the mismatch lies above the last row
        read, so the system is infeasible."""
        pin = TestEarlyStop.PIN
        system = _one_block_system((1, 1), [
            pin, pin, ({(0, 0): 1}, {(0, 0): 1, (0, 1): 2, (1, 0): 4})], 1)
        solution, built = _solve_counting_equations(monkeypatch, system)
        assert solution is None
        assert _dense_solve(system, 1) is None
        assert built == ["E0"]

    def test_agreement_in_unbuilt_equations_is_the_solution(self,
                                                           monkeypatch):
        pin = TestEarlyStop.PIN
        system = _one_block_system((1, 1), [pin, pin, pin], 1)
        solution, built = _solve_counting_equations(monkeypatch, system)
        assert solution == _dense_solve(system, 1) == {
            ("f", 0, 0): 1, ("f", 0, 1): -2, ("f", 1, 0): -3}
        assert built == ["E0"]


class TestSolverDigest:
    # sha256 over the answers listed in test_outputs_are_pinned
    DIGEST = ("eb354487f32fa136e8e18603a7d6505944"
              "cc9c48a912898cd9b28ae6af7acb9d")

    def test_outputs_are_pinned(self):
        """The solver's answers, None or the sorted nonzero items, for the
        four benchmark solves and for the three-overlap and full systems
        at k in -12..12 and bounds |k| + 4 and 20."""
        systems = [build_coboundary_system(3, 80),
                   build_coboundary_system(-3, 80),
                   build_coboundary_system(0, 80),
                   build_full_coboundary_system(0, 36)]
        for k in range(-12, 13):
            atlas = hilb21_atlas(k)
            for bound in (abs(k) + 4, 20):
                systems.append(build_coboundary_system(k, bound, atlas))
                systems.append(build_full_coboundary_system(k, bound, atlas))
        digest = hashlib.sha256()
        for system in systems:
            solution = solve_laurent_system(system)
            answer = None if solution is None else sorted(
                (u, v) for u, v in solution.items() if v)
            digest.update(f"{answer}\n".encode())
        assert digest.hexdigest() == self.DIGEST


class TestSolverCertificateUnderOptimize:
    def test_tampered_value_raises(self):
        """The solver checks its values against every truncated row, also
        under python -O."""
        done = run_optimized("""
            import superhilb.obstruction as ob
            from superhilb.errors import CertificateError

            back_substitute = ob._back_substitute

            def tampered(pivots, n_unknowns):
                values = back_substitute(pivots, n_unknowns)
                values[max(pivots)] += 1
                return values

            ob._back_substitute = tampered
            try:
                ob.solve_laurent_system(ob.build_coboundary_system(0, 6))
            except CertificateError as exc:
                print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("CertificateError"), done.stdout
        assert "truncated equation" in done.stdout
        assert ("the solver's values satisfy every truncated equation"
                in done.stdout)

    def test_tampered_free_unknown_raises(self):
        """f and g share the row of z^0 w^0, so g's unknowns on the w-axis
        are free and solved as zero; setting the first of them to 1 breaks
        that row, and the check, which reads every nonzero value, finds
        it under python -O."""
        done = run_optimized("""
            import superhilb.obstruction as ob
            from superhilb.errors import CertificateError

            system = ob.LaurentSystem(
                0, {"f": ("V1", ob.CONES["V1"]), "g": ("V2", ob.CONES["V2"])},
                (ob.CoboundaryEquation(
                    "E", (("f", {(0, 0): 1}), ("g", {(0, 0): 1})),
                    {(0, 0): 1}),),
                2)
            print(sorted(u for u, v in ob.solve_laurent_system(system).items()
                         if v))
            back_substitute = ob._back_substitute

            def tampered(pivots, n_unknowns):
                values = back_substitute(pivots, n_unknowns)
                free = min(set(range(n_unknowns)) - set(pivots))
                print("free", free, values[free])
                values[free] = 1
                return values

            ob._back_substitute = tampered
            try:
                ob.solve_laurent_system(system)
            except CertificateError as exc:
                print(type(exc).__name__, exc)
        """)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        # six unknowns a block: g(0, 0) is the seventh
        assert lines[:2] == ["[('f', 0, 0)]", "free 6 0"], done.stdout
        assert lines[2].startswith("CertificateError"), done.stdout
        assert "truncated equation" in lines[2]


class TestEachCertificateFires:
    def test_support_analysis_and_solver_agree(self, monkeypatch):
        """At k = 3 the support analysis finds no section; a solver that
        answers with the zero section contradicts it (CertificateError,
        see `assert_certificate_fails`)."""
        monkeypatch.setattr(ob, "solve_laurent_system",
                            lambda system: {})
        assert_certificate_fails("support analysis and bounded solver agree",
                                 is_coboundary, 3)
