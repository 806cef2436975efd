"""Checks of superhilb answers made apart from the program.

The checkers read the program's printed output (`pretty`, `pretty_localized`,
`atlas_to_text`) with their own small reader, so they depend neither on the
program's term representation nor on its arithmetic:

* `grassmann_rule_mismatches` evaluates transition rules at seeded points of
  a Grassmann algebra over two odd generators and compares them with this
  file's own transcription of the printed closed forms;
* `bosonic_cocycle_mismatches` composes the bosonic parts of an atlas's
  rules at seeded rational points with plain `Fraction` arithmetic;
* `division_mismatches` checks basis coordinates against univariate long
  division after the even parameters are set to rationals and the odd
  ones to zero;
* `residual_mismatches` substitutes a solver solution into the Laurent
  equations of its system.

Each checker returns a list of mismatch descriptions (empty when the answer
passes).  `self_test_*` functions feed each checker a perturbed answer and
report whether it was rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# Reading printed polynomials
#
# A term map is {monomial: Fraction}; a monomial is a tuple of
# (variable name, exponent) in printed order, which is the order in which
# its odd factors multiply.

_SPLIT = re.compile(r" ([+-]) ")


def read_poly(text: str) -> dict:
    """Term map of a `pretty` string."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("- "):
        sign, text = -1, text[2:]
    pieces = _SPLIT.split(text)
    out = {}
    for i in range(0, len(pieces), 2):
        if i:
            sign = -1 if pieces[i - 1] == "-" else 1
        coeff = Fraction(sign)
        factors = []
        for part in pieces[i].split("*"):
            if part[0].isdigit():
                coeff *= Fraction(part)
            else:
                name, _, exp = part.partition("^")
                factors.append((name, int(exp) if exp else 1))
        mono = tuple(factors)
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c}


def read_fraction(text: str):
    """(numerator, denominator) term maps of a `pretty_localized` string."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")^-1"):
        num, den = text[1:-4].split(") * (")
        return read_poly(num), read_poly(den)
    return read_poly(text), {(): Fraction(1)}


def read_atlas(text: str):
    """Charts {name: (evens, odds)} and rules {(target, source): {coord:
    (num, den)}} of an `atlas_to_text` string."""
    charts = {}
    rules = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip().rstrip(";")
        if line.startswith("chart "):
            current = charts.setdefault(line.split()[1], ([], []))
        elif line.startswith("transition "):
            _, target, source = line.split()
            current = rules.setdefault((target, source), {})
        elif line.startswith("even ") and isinstance(current, tuple):
            current[0].append(line.split()[1])
        elif line.startswith("odd ") and isinstance(current, tuple):
            current[1].append(line.split()[1])
        elif ":=" in line and isinstance(current, dict):
            coord, expr = line.split(":=")
            current[coord.strip()] = read_fraction(expr)
    return charts, rules


# ---------------------------------------------------------------------------
# Grassmann numbers over two odd generators e1, e2: (c, c1, c2, c12) is
# c + c1*e1 + c2*e2 + c12*e1*e2.

def g_const(c):
    return (Fraction(c), Fraction(0), Fraction(0), Fraction(0))


def g_odd(r, s):
    return (Fraction(0), Fraction(r), Fraction(s), Fraction(0))


def g_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def g_mul(a, b):
    a0, a1, a2, a12 = a
    b0, b1, b2, b12 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a2 * b0,
        a0 * b12 + a12 * b0 + a1 * b2 - a2 * b1,
    )


def g_inv(a):
    """(a0 + n)^-1 = 1/a0 - n/a0^2, since n^2 = 0 over two generators."""
    if a[0] == 0:
        raise ZeroDivisionError("Grassmann number with zero body")
    inv0 = 1 / a[0]
    scale = -inv0 * inv0
    return (inv0, a[1] * scale, a[2] * scale, a[3] * scale)


def g_pow(a, e):
    if e < 0:
        a, e = g_inv(a), -e
    out = g_const(1)
    while e:
        if e & 1:
            out = g_mul(out, a)
        a = g_mul(a, a)
        e >>= 1
    return out


def g_eval(terms: dict, point: dict):
    """Value of a term map with each variable name sent to a Grassmann
    number; factors multiply in printed order."""
    total = g_const(0)
    powers = {}
    for mono, coeff in terms.items():
        acc = g_const(coeff)
        for name, e in mono:
            key = (name, e)
            val = powers.get(key)
            if val is None:
                val = powers[key] = g_pow(point[name], e)
            acc = g_mul(acc, val)
        total = g_add(total, acc)
    return total


def g_eval_fraction(rule, point):
    num, den = rule
    return g_mul(g_eval(num, point), g_inv(g_eval(den, point)))


def nonzero(rng, lo=-9, hi=9):
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, 7))
        if v:
            return v


def grassmann_point(rng, evens, odds):
    point = {name: g_const(nonzero(rng)) for name in evens}
    for name in odds:
        point[name] = g_odd(nonzero(rng), nonzero(rng))
    return point


# The closed forms, transcribed from the charts' printed formulas:
#   V1 <- V3: a1 = c1 - g1*g2*(-c2)^-k, a2 = 1/c2,
#             alpha1 = g1*(1/c2 - c1), alpha2 = g2*(-c2)^-k
#   V1 <- V2: a1 = 1/b1 + b'1*b'2*(-b1)^(k-2), a2 = b2,
#             alpha1 = -b'1*(-b1)^(k-2)*(b2 - 1/b1), alpha2 = b'2
#   hilb11:   b = 1/a, beta = -a^(k-2)*alpha (and the mirror a = 1/b,
#             alpha = -b^(k-2)*beta)
#   pi_v:     y = 1/x, psi = x^-k*theta (and x = 1/y, theta = y^-k*psi)

def _neg(a):
    return tuple(-x for x in a)


def _expected_13(k, p):
    c1, c2, g1, g2 = p["c1"], p["c2"], p["gamma1"], p["gamma2"]
    m = g_pow(_neg(c2), -k)
    inv_c2 = g_inv(c2)
    return {
        "a1": g_add(c1, _neg(g_mul(g_mul(g1, g2), m))),
        "a2": inv_c2,
        "alpha1": g_mul(g1, g_add(inv_c2, _neg(c1))),
        "alpha2": g_mul(g2, m),
    }


def _expected_12(k, p):
    b1, b2, e1, e2 = p["b1"], p["b2"], p["beta1"], p["beta2"]
    m = g_pow(_neg(b1), k - 2)
    inv_b1 = g_inv(b1)
    return {
        "a1": g_add(inv_b1, g_mul(g_mul(e1, e2), m)),
        "a2": b2,
        "alpha1": _neg(g_mul(g_mul(e1, m), g_add(b2, _neg(inv_b1)))),
        "alpha2": e2,
    }


def _expected_11_ba(k, p):
    return {"b": g_inv(p["a"]),
            "beta": _neg(g_mul(g_pow(p["a"], k - 2), p["alpha"]))}


def _expected_11_ab(k, p):
    return {"a": g_inv(p["b"]),
            "alpha": _neg(g_mul(g_pow(p["b"], k - 2), p["beta"]))}


def _expected_pi_10(k, p):
    return {"y": g_inv(p["x"]), "psi": g_mul(g_pow(p["x"], -k), p["theta"])}


def _expected_pi_01(k, p):
    return {"x": g_inv(p["y"]), "theta": g_mul(g_pow(p["y"], -k), p["psi"])}


CLOSED_FORMS = {
    "hilb21": {("V1", "V3"): _expected_13, ("V1", "V2"): _expected_12},
    "hilb11": {("B", "A"): _expected_11_ba, ("A", "B"): _expected_11_ab},
    "pi_v": {("U1", "U0"): _expected_pi_10, ("U0", "U1"): _expected_pi_01},
}


def grassmann_rule_mismatches(kind, k, charts, rules, rng, points=3):
    """Compare the closed-form transitions of an atlas with the printed
    rules at seeded Grassmann points."""
    bad = []
    for (target, source), forms in CLOSED_FORMS[kind].items():
        evens, odds = charts[source]
        checked = 0
        for _ in range(20 * points):
            point = grassmann_point(rng, evens, odds)
            try:
                expected = forms(k, point)
                got = {c: g_eval_fraction(rules[(target, source)][c], point)
                       for c in expected}
            except ZeroDivisionError:
                continue  # the point hit a removed locus; draw again
            bad += [f"{kind} k={k} {target}<-{source} {c}"
                    for c in expected if got[c] != expected[c]]
            checked += 1
            if checked == points:
                break
        else:
            bad.append(f"no regular point for {kind} {target}<-{source}")
    return bad


# ---------------------------------------------------------------------------
# Bosonic cocycle at rational points


def _bosonic_eval(terms, point, odd_names):
    total = Fraction(0)
    for mono, coeff in terms.items():
        val = coeff
        for name, e in mono:
            if name in odd_names:
                val = 0
                break
            val *= point[name] ** e
        total += val
    return total


def _apply_bosonic(rules_ts, evens_t, point, odd_names):
    out = {}
    for coord in evens_t:
        num, den = rules_ts[coord]
        d = _bosonic_eval(den, point, odd_names)
        if d == 0:
            raise ZeroDivisionError(coord)
        out[coord] = _bosonic_eval(num, point, odd_names) / d
    return out


def bosonic_cocycle_mismatches(charts, rules, rng, tries=20):
    """For every stored pair (i, j) and (j, l), compare T_ij(T_jl(P)) with
    T_il(P) (or P itself when l = i) at a seeded rational point P of l."""
    odd_names = {o for _, odds in charts.values() for o in odds}
    bad = []
    for (i, j), t_ij in rules.items():
        for (j2, l), t_jl in rules.items():
            if j2 != j or (l != i and (i, l) not in rules):
                continue
            for _ in range(tries):
                point = {n: nonzero(rng) for n in charts[l][0]}
                try:
                    mid = _apply_bosonic(t_jl, charts[j][0], point, odd_names)
                    got = _apply_bosonic(t_ij, charts[i][0], mid, odd_names)
                    want = (point if l == i else _apply_bosonic(
                        rules[(i, l)], charts[i][0], point, odd_names))
                except ZeroDivisionError:
                    continue  # the point hit a removed locus; draw again
                if got != want:
                    bad.append(f"bosonic cocycle {i}<-{j}<-{l}")
                break
            else:
                bad.append(f"no regular point for {i}<-{j}<-{l}")
    return bad


def laurent_rule_mismatches(rules, pairs):
    """Rules of the given pairs whose printed denominator is not 1."""
    return [
        f"{t}<-{s} {coord} is a fraction"
        for (t, s) in pairs
        for coord, (_, den) in rules[(t, s)].items()
        if den != {(): Fraction(1)}
    ]


# ---------------------------------------------------------------------------
# Univariate long division over the rationals (lists, lowest degree first)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_rem(num, monic):
    """Remainder of num modulo a monic divisor, padded to deg(divisor)."""
    rem = list(num)
    d = len(monic) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, m in enumerate(monic):
                rem[top - d + i] -= c * m
    rem = rem[:d] + [Fraction(0)] * max(0, d - len(rem))
    return rem


def expected_basis(p, q, a_vals, b_vals, even_part, theta_part):
    """Basis coordinates of even_part + theta_part*theta modulo the
    canonical (p|q) ideal with odd parameters zero:
    f = (x^q + b)(x^(p-q) + a), g = (x^q + b)*theta."""
    bq = list(b_vals) + [Fraction(1)]
    apq = list(a_vals) + [Fraction(1)]
    return poly_rem(even_part, poly_mul(bq, apq)), poly_rem(theta_part, bq)


def division_mismatches(p, q, coords, params, odd_names, even_part,
                        theta_part):
    """coords: term maps of a BasisVector's evens then odds; params maps
    the even parameter names a0.., b0.. to rationals."""
    a_vals = [params[f"a{i}"] for i in range(p - q)]
    b_vals = [params[f"b{i}"] for i in range(q)]
    want_e, want_o = expected_basis(p, q, a_vals, b_vals, even_part,
                                    theta_part)
    got = [_bosonic_eval(terms, params, odd_names) for terms in coords]
    if len(got) != p + q:
        return [f"({p}|{q}) has {len(got)} coordinates, expected {p + q}"]
    return [
        f"({p}|{q}) coordinate {i}: {g} != {w}"
        for i, (g, w) in enumerate(zip(got, want_e + want_o))
        if g != w
    ]


# ---------------------------------------------------------------------------
# Residual of a Laurent system solution


def _lmul_add(out, a, b, scale=1):
    for (az, aw), ca in a.items():
        for (bz, bw), cb in b.items():
            key = (az + bz, aw + bw)
            out[key] = out.get(key, Fraction(0)) + scale * ca * cb


def residual_mismatches(system, solution):
    """Substitute solution {(block, e, f): value} into every equation
    sum(factor * block) = rhs; block coefficients sit at
    (sz*e, sw*f) with sign (-1)^(e+f), as the system's cones state."""
    blocks = {}
    for (name, e, f), val in solution.items():
        if val:
            _, (sz, sw) = system.blocks[name]
            sign = -1 if (e + f) % 2 else 1
            blocks.setdefault(name, {})[(sz * e, sw * f)] = sign * Fraction(val)
    bad = []
    for eq in system.equations:
        lhs = {}
        for name, factor in eq.terms:
            _lmul_add(lhs, factor, blocks.get(name, {}))
        _lmul_add(lhs, eq.rhs, {(0, 0): Fraction(1)}, scale=-1)
        if any(lhs.values()):
            bad.append(f"equation {eq.label} has a nonzero residual")
    return bad


def certificate_solution(certificate):
    """Solution dict from a verdict certificate {"f[1,0]": "2/3", ...}."""
    out = {}
    for key, val in certificate.items():
        name, _, idx = key.partition("[")
        e, f = idx.rstrip("]").split(",")
        out[(name, int(e), int(f))] = Fraction(val)
    return out


# ---------------------------------------------------------------------------
# Self-tests: each checker must reject a perturbed answer


def _flip_one_term(rule, odd_names):
    """The rule with the sign of its first odd-free numerator term flipped."""
    num, den = rule
    mono = min(m for m in num if not any(n in odd_names for n, _ in m))
    num = dict(num)
    num[mono] = -num[mono]
    return num, den


def _bent(rules, pair, coord, odd_names):
    out = {key: dict(val) for key, val in rules.items()}
    out[pair][coord] = _flip_one_term(out[pair][coord], odd_names)
    return out


def self_test_grassmann(kind, k, charts, rules, rng):
    pair = next(iter(CLOSED_FORMS[kind]))
    coord = charts[pair[0]][0][0]
    odd_names = set(charts[pair[1]][1])
    bent = _bent(rules, pair, coord, odd_names)
    return bool(grassmann_rule_mismatches(kind, k, charts, bent, rng, points=1))


def self_test_bosonic(charts, rules, rng):
    pair = next(iter(rules))
    coord = charts[pair[0]][0][0]
    odd_names = set(charts[pair[1]][1])
    bent = _bent(rules, pair, coord, odd_names)
    return bool(bosonic_cocycle_mismatches(charts, bent, rng))


def self_test_division(p, q, coords, params, odd_names, even_part,
                       theta_part):
    bumped = dict(coords[0])
    bumped[()] = bumped.get((), Fraction(0)) + 1
    return bool(division_mismatches(p, q, [bumped] + list(coords[1:]),
                                    params, odd_names, even_part, theta_part))


def self_test_residual(system, solution):
    key = next((k for k, v in sorted(solution.items()) if v), min(solution))
    bent = dict(solution)
    bent[key] = bent[key] + 1
    return bool(residual_mismatches(system, bent))
