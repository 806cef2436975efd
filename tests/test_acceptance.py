"""Acceptance suite: one test per criterion, each printing a summary
line (run with `pytest -s tests/test_acceptance.py` to see them live).

The twist-zero sub-case of the rank-(2|1) non-splitness criterion is
recorded as a strict expected failure: the three-overlap coboundary
system is honestly solvable there and the checker exhibits exact
cobounding sections (see the companion test below and the decisions
ledger in the repository notes).
"""

import random
import string
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from superhilb.charts import (
    hilb11_atlas,
    hilb21_atlas,
    verify_cocycle,
)
from superhilb.errors import SuperAlgebraError
from superhilb.ideals import kernel_witnesses, stratification_generators
from superhilb.localized import LocalizedPoly
from superhilb.matrix import SuperMatrix, left_inverse, matmul
from superhilb.obstruction import (
    analyze_subsystem,
    build_coboundary_system,
    extract_obstruction,
    is_coboundary,
    solve_laurent_system,
    split_check_11,
    wedge2_degrees,
)
from superhilb.parser import RingDecl, parse_poly, parse_ring, pretty
from superhilb.ring import ParityClass, SuperMonomial, SuperPoly, invert

from conftest import frame_transport_identity, random_poly, standard_ring
from test_matrix import random_super_matrix

V = SuperPoly.var


def _report(number, description, started, detail=""):
    elapsed = time.time() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_algebra_kernel_properties():
    started = time.time()
    rng = random.Random(101)
    ring = standard_ring()
    for _ in range(1000):
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        r = random_poly(rng, ring)
        assert (p + q) + r == p + (q + r)
        assert p * (q * r) == (p * q) * r
        assert p * (q + r) == p * q + p * r
        pc, qc = p.parity_class(), q.parity_class()
        if ParityClass.MIXED not in (pc, qc):
            sign = (
                -1 if pc is ParityClass.ODD and qc is ParityClass.ODD else 1
            )
            assert p * q == sign * (q * p)
    inv_vars = [v for v in ring.values() if v.invertible]
    odd_vars = [v for v in ring.values() if v.parity.value == 1]
    for _ in range(200):
        mono = {v: rng.randint(-2, 2) for v in inv_vars}
        unit = SuperPoly(
            {SuperMonomial.make(mono): Fraction(rng.randint(1, 5))}
        )
        soul = SuperPoly.zero()
        for _ in range(rng.randint(1, 3)):
            picks = rng.sample(odd_vars, rng.randint(1, 2))
            term = SuperPoly.const(Fraction(rng.randint(-3, 3)))
            for v in sorted(picks, key=lambda s: s.name):
                term = term * V(v)
            soul = soul + term
        unit = unit + soul * unit
        got = invert(unit)
        assert unit * got == 1
        assert got * unit == 1
    assert time.time() - started < 10
    _report(1, "algebra kernel property suite", started)


def test_criterion_2_block_inverse():
    started = time.time()
    rng = random.Random(202)
    done = 0
    while done < 100:
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        if p + q == 0:
            continue
        m = random_super_matrix(rng, p, q)
        inv = left_inverse(m)
        assert matmul(inv, m) == SuperMatrix.identity(p, q)
        assert matmul(m, inv) == SuperMatrix.identity(p, q)
        done += 1
    assert time.time() - started < 30
    _report(2, "block inverse two-sided on 100 random matrices", started)


def test_criterion_3_stratification():
    started = time.time()
    for p in range(0, 5):
        for q in range(0, p + 1):
            gens = stratification_generators(p, q)
            assert len(gens) == 2 * q
            names = sorted(str(list(g.terms)[0]) for g in gens)
            assert names == sorted(
                [f"c{i}" for i in range(q)]
                + [f"gamma{i}" for i in range(q)]
            )
            if 1 <= q:
                h_vec, k_vec = kernel_witnesses(p, q)
                allowed = {f"c{i}" for i in range(q)} | {
                    f"gamma{i}" for i in range(q)
                }
                for vec in (h_vec, k_vec):
                    for entry in (*vec.evens, *vec.odds):
                        for mono in entry.terms:
                            assert any(
                                v.name in allowed for v in mono.variables()
                            )
    assert time.time() - started < 60
    _report(3, "stratification generators and dimension (p|p)", started)


def test_criterion_4_rank_one_one_splitness():
    started = time.time()
    for k in range(-2, 7):
        atlas = hilb11_atlas(k)
        t_ba = atlas.transition("B", "A")
        a = atlas.chart("A").evens[0]
        alpha = atlas.chart("A").odds[0]
        b = atlas.chart("B").evens[0]
        beta = atlas.chart("B").odds[0]
        assert t_ba.rule(b) == LocalizedPoly(V(a, -1))
        assert t_ba.rule(beta) == LocalizedPoly(-V(a, k - 2) * V(alpha))
        verdict = split_check_11(k)
        assert verdict.split
        assert verdict.twist == -k + 2
    assert time.time() - started < 10
    _report(4, "rank-(1|1) transition and splitness, k in -2..6", started)


def test_criterion_5_rank_two_one_transitions():
    started = time.time()
    from superhilb.charts import _expected_12, _expected_13, rules_equal

    for k in range(-2, 6):
        atlas = hilb21_atlas(k)
        v1 = atlas.chart("V1")
        assert rules_equal(
            atlas.transition("V1", "V3").rules,
            _expected_13(k, v1, atlas.chart("V3")),
        )
        assert rules_equal(
            atlas.transition("V1", "V2").rules,
            _expected_12(k, v1, atlas.chart("V2")),
        )
        ok, witness = verify_cocycle(atlas)
        assert ok, witness
    assert time.time() - started < 120
    _report(5, "rank-(2|1) transitions and cocycle, k in -2..5", started)


def test_criterion_6_degree_lemma():
    started = time.time()
    for k in range(-3, 7):
        assert wedge2_degrees(k) == (k - 3, -k - 1)
    assert time.time() - started < 30
    _report(6, "wedge-square degrees (k-3, -k-1), k in -3..6", started)


def test_criterion_7_non_splitness_nonzero_twists():
    started = time.time()
    for k in [k for k in range(-3, 7) if k != 0]:
        atlas = hilb21_atlas(k)
        verdict = is_coboundary(k, atlas)
        assert not verdict.split
        assert verdict.case_label == ("I" if k > 0 else "II")
        system = build_coboundary_system(k, abs(k) + 6, atlas)
        assert not analyze_subsystem(system).feasible
        for d in range(0, abs(k) + 7):
            assert solve_laurent_system(replace(system, degree_bound=d)) is None
    assert time.time() - started < 120
    _report(
        7,
        "non-splitness with engine agreement, k in -3..6 except 0",
        started,
        detail="twist 0 recorded separately",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the three-overlap coboundary system is solvable at twist 0: "
    "after the forced f = 0 and c = 1 no contradiction remains, and exact "
    "cobounding sections exist on the full cover (see decisions ledger)",
)
def test_criterion_7_twist_zero_as_specified():
    verdict = is_coboundary(0)
    assert not verdict.split
    system = build_coboundary_system(0, 6)
    for d in range(0, 7):
        assert solve_laurent_system(replace(system, degree_bound=d)) is None


def test_criterion_7_twist_zero_honest_behavior():
    started = time.time()
    verdict = is_coboundary(0)
    assert verdict.split
    assert verdict.case_label == "III"
    assert any("f = 0 and c = 1" in line for line in verdict.trace)
    assert verdict.certificate == {
        "g[0,0]": Fraction(1),
        "h[0,0]": Fraction(1),
    }
    print(
        "criterion 7 note: at k = 0 the checker honestly reports a "
        "coboundary with an exactly verified certificate; the stated "
        "non-split expectation is recorded as an expected failure"
    )
    _report(7, "twist-zero honest verdict with exact certificate", started)


def test_criterion_8_cochain_identities():
    started = time.time()
    for k in range(-2, 6):
        atlas = hilb21_atlas(k)
        cochain = extract_obstruction(atlas)
        assert cochain.is_zero_on("V2", "V3")
        assert frame_transport_identity(atlas, "V1", "V3")
        assert frame_transport_identity(atlas, "V1", "V2")
    assert time.time() - started < 30
    _report(8, "cochain identities and frame transport, k in -2..5", started)


def test_criterion_9_parser_round_trip_and_fuzz():
    started = time.time()
    rng = random.Random(909)
    ring = RingDecl(list(standard_ring().values()))
    for _ in range(1000):
        p = random_poly(rng, ring=standard_ring())
        assert parse_poly(pretty(p), ring) == p
    alphabet = string.ascii_lowercase[:8] + "0123456789 +-*/^();_\n\t#!\\"
    fuzz_ring = parse_ring("even a; even b inv; odd c; odd d;")
    for _ in range(100_000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 20))
        )
        try:
            parse_poly(text, fuzz_ring)
        except SuperAlgebraError:
            pass
    assert time.time() - started < 60
    _report(9, "parser round-trip and fuzz", started)
