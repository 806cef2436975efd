"""The three workloads: seeded inputs, operations, answer checks and CLI
commands.

A workload object is built once per set-up (that is the timed set-up:
parsed polynomials, random super-matrices).  `phases()` gives the
operations of one round; operations within a phase do not depend on each
other, so the runner may order them by the seed.  `cli()` gives the
`python -m superhilb` commands of one round, whose checks compare the
printed output with the in-process results of the same round.

The seed draws the check points, the matrix entries and the operation
order.  Twists, ranks, degree bounds and the reduced polynomials are
fixed, so every seed does the same amount of work and the operations that
fail today fail on every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks as C

# Known faults of the program.  Each operation carrying one fails today and
# should pass once the fault is mended.
FAULT_SIMPLIFY_CAP = (
    "LocalizedPoly.simplified caps try_exact_divide at max_steps=64, so the "
    "V1<->V4 rules stay fractions from k = 63 on"
)
FAULT_REDUCE_CAP = (
    "_REDUCE_LIMIT = 2000 stops reduce_to_basis; the CLI exits 1 with an "
    "AssertionError traceback"
)
FAULT_NEGATIVE_RANGE = (
    "argparse reads '-2..3' after --k-range as an option; the CLI exits 2"
)
FAULT_PARSE_DEPTH = (
    "parse_poly recurses once per term of a sum, so printed polynomials of "
    "about 1000 terms or more raise RecursionError"
)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # value -> mismatch descriptions
    fault: str | None = None


@dataclass
class Cli:
    name: str
    argv: list
    check: Callable[[str], list]  # stdout of a run that exited 0 -> mismatches
    fault: str | None = None


def json_line(payload) -> str:
    """The CLI's JSON rendering of one report."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, sh, seed: int):
        self.sh = sh
        self.rng = random.Random(f"checks-{seed}")
        self.fingerprints = {}
        self.deferred = {}  # label -> check run once, after the rounds

    def defer(self, label, check_fn):
        """Check the first round's output once, after the rounds; later
        rounds must reproduce that output's fingerprints."""
        self.deferred.setdefault(label, check_fn)

    def self_test(self, label, rejected_fn):
        """Once per run, a checker must reject a perturbed answer."""
        self.defer(f"self-test {label}", lambda: [] if rejected_fn() else
                   [f"{label} accepted a perturbed answer"])

    def phases(self):
        raise NotImplementedError

    def cli(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# atlas-cocycle: the ring kernel and chart composition


class AtlasCocycle(Workload):
    name = "atlas-cocycle"
    TWISTS = (-20, -8, -2, 2, 8, 20)
    FAULT_TWIST = 63
    CLI_TWISTS = (8, -8)
    LAURENT_PAIRS = (("V1", "V4"), ("V4", "V1"))

    def phases(self):
        sh = self.sh
        self.atlases = {}  # per round, so rounds do not pile up memory
        self.texts = {}
        build = [
            Op(f"hilb21_atlas+verify_cocycle k={k}", partial(self._hilb21, k),
               partial(self._check_hilb21, k))
            for k in self.TWISTS
        ]
        for k in self.TWISTS:
            build.append(Op(f"hilb11_atlas k={k}", partial(sh.hilb11_atlas, k),
                            partial(self._check_atlas, "hilb11", k)))
            build.append(Op(f"pi_v_atlas k={k}", partial(sh.pi_v_atlas, k),
                            partial(self._check_atlas, "pi_v", k)))
        k = self.FAULT_TWIST
        build.append(Op(f"hilb21_atlas k={k}", partial(sh.hilb21_atlas, k),
                        partial(self._check_atlas, "hilb21", k),
                        fault=FAULT_SIMPLIFY_CAP))
        round_trip = [
            Op(f"atlas text round trip k={k}", partial(self._round_trip, k),
               partial(self._check_round_trip, k))
            for k in self.TWISTS
        ]
        return [build, round_trip]

    def _hilb21(self, k):
        atlas = self.sh.hilb21_atlas(k)
        self.atlases[k] = atlas
        return atlas, self.sh.verify_cocycle(atlas)

    def _check_hilb21(self, k, value):
        atlas, (ok, witness) = value
        problems = [] if ok else [f"verify_cocycle fails at {witness}"]
        return problems + self._check_atlas("hilb21", k, atlas)

    def _check_atlas(self, kind, k, atlas):
        text = self.sh.atlas_to_text(atlas)
        self.fingerprints[f"atlas {kind} k={k}"] = sha256(text)
        charts, rules = C.read_atlas(text)
        problems = C.grassmann_rule_mismatches(kind, k, charts, rules, self.rng)
        problems += C.bosonic_cocycle_mismatches(charts, rules, self.rng)
        self.self_test(
            f"Grassmann closed forms ({kind})",
            lambda: C.self_test_grassmann(kind, k, charts, rules, self.rng))
        self.self_test(
            "bosonic cocycle",
            lambda: C.self_test_bosonic(charts, rules, self.rng))
        if kind == "hilb21":
            self.texts[k] = text
            problems += C.laurent_rule_mismatches(rules, self.LAURENT_PAIRS)
        return problems

    def _round_trip(self, k):
        text = self.sh.atlas_to_text(self.atlases[k])
        again = self.sh.atlas_to_text(self.sh.atlas_from_text(text))
        return text, again

    def _check_round_trip(self, k, value):
        text, again = value
        if text != self.texts[k]:
            return ["atlas_to_text is not deterministic"]
        return [] if again == text else ["text changed through atlas_from_text"]

    def cli(self):
        return [
            Cli(f"transition --k {k} --pair 14",
                ["transition", "--k", str(k), "--pair", "14", "--format",
                 "json"],
                partial(self._check_transition, k))
            for k in self.CLI_TWISTS
        ]

    def _check_transition(self, k, out):
        payload = json.loads(out)
        want = C.read_atlas(self.texts[k])[1][("V1", "V4")]
        got = {c: C.read_fraction(t) for c, t in payload["rules"].items()}
        problems = [] if payload["cocycle"] is True else ["cocycle not true"]
        if (payload["k"], payload["pair"]) != (k, "14"):
            problems.append("wrong twist or pair echoed")
        if got != want:
            problems.append("printed V1<-V4 rules differ from the library's")
        return problems


# ---------------------------------------------------------------------------
# split-check: system build, Gauss-Jordan and support-cone analysis


class SplitCheck(Workload):
    name = "split-check"
    TWISTS = tuple(range(-6, 7))
    SOLVES = ((3, 80), (-3, 80), (0, 80))  # three-overlap system (k, bound)
    FULL_SOLVE = (0, 36)  # four-chart system (k, bound)
    CLI_TWIST, CLI_BOUND = 4, 40
    FAULT_RANGE = (-2, 3)

    def phases(self):
        sh = self.sh
        self.atlases = {}  # per round, so rounds do not pile up memory
        self.lines21 = {}
        self.lines11 = {}
        verdicts = []
        for k in self.TWISTS:
            verdicts.append(Op(f"is_coboundary k={k}",
                               partial(self._is_coboundary, k),
                               partial(self._check_verdict21, k)))
            verdicts.append(Op(f"split_check_11 k={k}",
                               partial(sh.split_check_11, k),
                               partial(self._check_verdict11, k)))
        solves = [
            Op(f"solve three-overlap system k={k} bound={bound}",
               partial(self._solve, sh.build_coboundary_system, k, bound),
               partial(self._check_solution, pinned=k != 0))
            for k, bound in self.SOLVES
        ]
        k, bound = self.FULL_SOLVE
        solves.append(Op(f"solve four-chart system k={k} bound={bound}",
                         partial(self._solve, sh.build_full_coboundary_system,
                                 k, bound),
                         partial(self._check_solution, pinned=False)))
        return [verdicts, solves]

    def _is_coboundary(self, k):
        atlas = self.sh.hilb21_atlas(k)
        self.atlases[k] = atlas
        return self.sh.is_coboundary(k, atlas)

    def _solve(self, build, k, bound):
        system = build(k, bound, self.atlases[k])
        return system, self.sh.solve_laurent_system(system)

    def _check_verdict21(self, k, verdict):
        line = json_line(verdict.to_json_dict())
        self.lines21[k] = line
        self.fingerprints[f"split-check hilb21 k={k}"] = sha256(line)
        problems = []
        if tuple(verdict.degrees) != (k - 3, -k - 1):
            problems.append(f"wedge2 degrees {verdict.degrees}")
        if k and (verdict.split, verdict.case_label) != (
                False, "I" if k > 0 else "II"):
            problems.append(f"verdict split={verdict.split} "
                            f"case={verdict.case_label}")
        if verdict.split:
            if not verdict.certificate:
                return problems + ["split verdict without a certificate"]
            system = self.sh.build_full_coboundary_system(k, 4,
                                                          self.atlases[k])
            solution = C.certificate_solution(
                verdict.to_json_dict()["certificate"])
            problems += C.residual_mismatches(system, solution)
            self.self_test(
                "residual", lambda: C.self_test_residual(system, solution))
        return problems

    def _check_verdict11(self, k, verdict):
        line = json_line(verdict.to_json_dict())
        self.lines11[k] = line
        self.fingerprints[f"split-check hilb11 k={k}"] = sha256(line)
        if (verdict.split, verdict.twist) != (True, 2 - k):
            return [f"split={verdict.split} twist={verdict.twist}"]
        return []

    def _check_solution(self, value, pinned):
        system, solution = value
        if solution is None:
            return []
        if pinned:
            return ["solver found sections at a non-split twist"]
        self.self_test(
            "residual", lambda: C.self_test_residual(system, solution))
        return C.residual_mismatches(system, solution)

    def cli(self):
        k, bound = self.CLI_TWIST, self.CLI_BOUND
        lo, hi = self.FAULT_RANGE
        return [
            Cli(f"split-check --target hilb21 --k {k} --degree-bound {bound}",
                ["split-check", "--target", "hilb21", "--k", str(k),
                 "--degree-bound", str(bound), "--format", "json"],
                self._check_bound),
            Cli("split-check --target hilb11 --k-range=-6..6",
                ["split-check", "--target", "hilb11", "--k-range=-6..6",
                 "--format", "json"],
                partial(self._check_lines, "hilb11", self.TWISTS)),
            Cli(f"split-check --target hilb21 --k-range {lo}..{hi}",
                ["split-check", "--target", "hilb21", "--k-range",
                 f"{lo}..{hi}", "--format", "json"],
                partial(self._check_lines, "hilb21", range(lo, hi + 1)),
                fault=FAULT_NEGATIVE_RANGE),
        ]

    def _check_bound(self, out):
        lines = out.splitlines()
        self.fingerprints["cli split-check hilb21 degree-bound"] = sha256(out)
        payload = json.loads(lines[0])
        note = payload["notes"].pop()
        problems = [] if len(lines) == 1 else ["more than one report"]
        if not note.endswith("no solution"):
            problems.append(f"bounded solver note: {note}")
        if payload != json.loads(self.lines21[self.CLI_TWIST]):
            problems.append("report differs from the library's verdict")
        return problems

    def _check_lines(self, target, ks, out):
        lines = out.splitlines()
        want = [(self.lines11 if target == "hilb11" else self.lines21)[k]
                for k in ks]
        return [] if lines == want else [f"{target} reports differ from the "
                                         "library's verdicts"]


# ---------------------------------------------------------------------------
# ideals-algebra: many symbols, thousands of terms, no Laurent exponents


def _determinant(rows):
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


class IdealsAlgebra(Workload):
    name = "ideals-algebra"
    RANKS = ((1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (6, 3), (8, 4), (12, 6),
             (12, 12))
    REDUCTIONS = ((3, 1, 30), (4, 2, 20))  # x^n + x^(n-1)*theta over (p|q)
    MATRICES = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (5, 5), (6, 6))
    ODD_POOL = 4  # odd generators w0.. in the matrix entries
    PATTERN_SEED = 20240817  # which generators sit in which entry
    CLI_REDUCE = (3, 1, 24)
    CLI_STRATA = (8, 4)
    FAULT_POWER = 3000  # x^3000 over the (1|0) ideal

    def __init__(self, sh, seed):
        super().__init__(sh, seed)
        inputs = random.Random(f"inputs-{seed}")
        self.reductions = {}
        for p, q, n in self.REDUCTIONS:
            ideal = sh.CanonicalIdeal.generic(p, q)
            odd_syms = (*ideal.alpha, *ideal.beta)
            ring = sh.RingDecl([ideal.x, ideal.theta, *ideal.a, *ideal.b,
                                *odd_syms])
            poly = sh.parse_poly(f"x^{n} + x^{n - 1}*theta", ring)
            params = {s.name: C.nonzero(inputs) for s in (*ideal.a, *ideal.b)}
            self.reductions[(p, q)] = (n, ideal, ring, poly, params,
                                       {s.name for s in odd_syms})
        pool = [sh.odd(f"w{i}") for i in range(self.ODD_POOL)]
        self.matrix_ring = sh.RingDecl(pool)
        pattern = random.Random(self.PATTERN_SEED)
        self.matrices = {shape: self._matrix(shape, pattern, inputs)
                         for shape in self.MATRICES}

    def _matrix(self, shape, pattern, values):
        p, q = shape
        n = p + q
        while True:
            base = [[Fraction(values.choice((-3, -2, -1, 1, 2, 3)))
                     for _ in range(n)] for _ in range(n)]
            if (_determinant([r[:p] for r in base[:p]])
                    and _determinant([r[p:] for r in base[p:]])):
                break
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                even_slot = (i < p) == (j < p)
                gens = sorted(pattern.sample(range(self.ODD_POOL),
                                             2 if even_slot else 1))
                odd_part = "*".join(f"w{g}" for g in gens)
                c = values.choice((-2, -1, 1, 2))
                text = f"{c}*{odd_part}"
                if even_slot:
                    text = f"{base[i][j]} + {text}"
                row.append(self.sh.parse_poly(text, self.matrix_ring))
            rows.append(row)
        return self.sh.SuperMatrix.from_lists(p, q, rows)

    def phases(self):
        sh = self.sh
        self.results = {}  # per round, so rounds do not pile up memory
        self.inverses = {}
        self.strata = {}
        algebra = []
        for p, q in self.RANKS:
            algebra.append(Op(f"raw_to_canonical ({p}|{q})",
                              partial(sh.raw_to_canonical, p, q),
                              partial(self._check_change, p, q)))
            algebra.append(Op(f"stratification_generators ({p}|{q})",
                              partial(sh.stratification_generators, p, q),
                              partial(self._check_strata, p, q)))
        for (p, q), (n, ideal, _, poly, _, _) in self.reductions.items():
            algebra.append(Op(f"reduce_to_basis x^{n} + x^{n - 1}*theta "
                              f"({p}|{q})",
                              partial(sh.reduce_to_basis, poly, ideal),
                              partial(self._check_reduction, p, q)))
        for shape in self.MATRICES:
            algebra.append(Op(f"left_inverse+matmul ({shape[0]}|{shape[1]})",
                              partial(self._invert, shape),
                              partial(self._check_inverse, shape)))
        round_trips = [
            Op(f"pretty->parse_poly reduction ({p}|{q})",
               partial(self._round_trip, (p, q)), self._check_round_trip,
               fault=FAULT_PARSE_DEPTH)
            for p, q in self.reductions
        ]
        round_trips.append(Op("pretty->parse_poly inverse (6|6)",
                              partial(self._round_trip, (6, 6)),
                              self._check_round_trip))
        return [algebra, round_trips]

    def _check_change(self, p, q, ch):
        problems = []
        if (len(ch.a) + len(ch.b), len(ch.alpha) + len(ch.beta)) != (p, p):
            problems.append("residual dimension is not (p|p)")
        if (len(ch.c), len(ch.gamma)) != (q, q):
            problems.append("wrong number of residual coefficients")
        return problems + self._check_forward(ch)

    def _check_forward(self, ch):
        """raw f, g with the raw coefficients replaced by their canonical
        images equal f_canonical + c, g_canonical + gamma, at a seeded
        Grassmann point."""
        pretty = self.sh.pretty
        evens = [s.name for s in (ch.x, *ch.a, *ch.b, *ch.c)]
        odds = [s.name for s in (ch.theta, *ch.alpha, *ch.beta, *ch.gamma)]
        point = C.grassmann_point(self.rng, evens, odds)
        raw_point = dict(point)
        for sym, image in ch.forward.items():
            raw_point[sym.name] = C.g_eval(C.read_poly(pretty(image)), point)
        problems = []
        for raw_gen, canon, residual in ((ch.raw.f, ch.f_canonical, ch.c_poly),
                                         (ch.raw.g, ch.g_canonical,
                                          ch.gamma_poly)):
            lhs = C.g_eval(C.read_poly(pretty(raw_gen)), raw_point)
            rhs = C.g_add(C.g_eval(C.read_poly(pretty(canon)), point),
                          C.g_eval(C.read_poly(pretty(residual)), point))
            if lhs != rhs:
                problems.append("raw generators do not map to canonical form")
        return problems

    def _check_strata(self, p, q, gens):
        texts = [self.sh.pretty(g) for g in gens]
        self.strata[(p, q)] = texts
        if len(texts) != 2 * q:
            return [f"{len(texts)} generators, expected {2 * q}"]
        if not all(t.isidentifier() for t in texts):
            return ["a generator is not a single coordinate"]
        return []

    def _check_reduction(self, p, q, vec):
        sh = self.sh
        n, ideal, _, poly, params, odd_names = self.reductions[(p, q)]
        texts = [sh.pretty(c) for c in (*vec.evens, *vec.odds)]
        cofactors = (sh.pretty(vec.cofactor_f), sh.pretty(vec.cofactor_g))
        self.results[(p, q)] = (vec, texts, *cofactors)
        self.fingerprints[f"reduce_to_basis ({p}|{q})"] = sha256(
            "\n".join((*texts, *cofactors)))
        coords = [C.read_poly(t) for t in texts]
        even_part = [Fraction(0)] * n + [Fraction(1)]
        theta_part = [Fraction(0)] * (n - 1) + [Fraction(1)]
        problems = C.division_mismatches(p, q, coords, params, odd_names,
                                         even_part, theta_part)
        self.self_test(
            "univariate division",
            lambda: C.self_test_division(p, q, coords, params, odd_names,
                                         even_part, theta_part))
        self.defer(f"recompose ({p}|{q})", partial(self._recompose, p, q))
        return problems

    def _recompose(self, p, q):
        """The cofactor identity of the last round's reduction, recomposed
        exactly."""
        _, ideal, _, poly, _, _ = self.reductions[(p, q)]
        vec = self.results[(p, q)][0]
        x = self.sh.SuperPoly.var(ideal.x)
        theta = self.sh.SuperPoly.var(ideal.theta)
        recomposed = vec.cofactor_f * ideal.f + vec.cofactor_g * ideal.g
        for i, c in enumerate(vec.evens):
            recomposed = recomposed + c * x ** i
        for j, c in enumerate(vec.odds):
            recomposed = recomposed + c * x ** j * theta
        return [] if recomposed == poly else [
            "cofactor identity does not recompose"]

    def _invert(self, shape):
        sh = self.sh
        m = self.matrices[shape]
        inv = sh.left_inverse(m)
        self.inverses[shape] = inv
        return sh.matmul(inv, m), sh.matmul(m, inv)

    def _check_inverse(self, shape, value):
        ident = self.sh.SuperMatrix.identity(*shape)
        return [] if all(v == ident for v in value) else [
            "left_inverse is not two-sided"]

    def _round_trip(self, key):
        sh = self.sh
        if key in self.reductions:
            ring = self.reductions[key][2]
            vec = self.results[key][0]
            polys = [*vec.evens, *vec.odds]
        else:
            ring = self.matrix_ring
            polys = [e for row in self.inverses[key].rows for e in row]
        back = [sh.parse_poly(sh.pretty(e), ring) for e in polys]
        return polys, back

    def _check_round_trip(self, value):
        polys, back = value
        return [] if back == polys else ["parse_poly(pretty(p)) != p"]

    def cli(self):
        p, q, n = self.CLI_REDUCE
        sp, sq = self.CLI_STRATA
        return [
            Cli(f"reduce --p {p} --q {q} x^{n} + x^{n - 1}*theta",
                ["reduce", "--p", str(p), "--q", str(q), "--format", "json",
                 f"x^{n} + x^{n - 1}*theta"],
                partial(self._check_cli_reduce, p, q, n)),
            Cli(f"strata --p {sp} --q {sq}",
                ["strata", "--p", str(sp), "--q", str(sq), "--format", "json"],
                self._check_cli_strata),
            Cli(f"reduce --p 1 --q 0 x^{self.FAULT_POWER}",
                ["reduce", "--p", "1", "--q", "0", "--format", "json",
                 f"x^{self.FAULT_POWER}"],
                self._check_cli_power, fault=FAULT_REDUCE_CAP),
        ]

    def _check_cli_reduce(self, p, q, n, out):
        payload = json.loads(out)
        _, _, _, _, params, odd_names = self.reductions[(p, q)]
        coords = [C.read_poly(t) for t in payload["evens"] + payload["odds"]]
        problems = C.division_mismatches(
            p, q, coords, params, odd_names,
            [Fraction(0)] * n + [Fraction(1)],
            [Fraction(0)] * (n - 1) + [Fraction(1)])
        if payload["in_ideal"] is not False:
            problems.append("x^n + x^(n-1)*theta reported in the ideal")
        return problems

    def _check_cli_strata(self, out):
        payload = json.loads(out)
        if payload["dimension"] != [self.CLI_STRATA[0]] * 2:
            return ["wrong residual dimension"]
        if payload["generators"] != self.strata[self.CLI_STRATA]:
            return ["printed generators differ from the library's"]
        return []

    def _check_cli_power(self, out):
        payload = json.loads(out)
        a0 = C.nonzero(self.rng)
        even_part = [Fraction(0)] * self.FAULT_POWER + [Fraction(1)]
        coords = [C.read_poly(t) for t in payload["evens"] + payload["odds"]]
        return C.division_mismatches(1, 0, coords, {"a0": a0}, set(),
                                     even_part, [])


WORKLOADS = {cls.name: cls for cls in (AtlasCocycle, SplitCheck,
                                        IdealsAlgebra)}
