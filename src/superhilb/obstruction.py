"""Second-order splitness analysis of the Hilbert-scheme atlases.

Every transition is read through its second-order split,
`charts.second_order`: each even rule of a two-odd-coordinate atlas is a
bosonic part plus a coefficient times the product of the two source odd
coordinates, and each odd rule is the odd block H applied to the source
odds.  The coefficients form a vector-field-valued 1-cochain; the family
is split at second order exactly when the cochain is a coboundary of
chart-level sections.  Chart sections are polynomial in the chart
coordinates, so the coboundary equations become linear systems over
bivariate Laurent polynomials in the global coordinates z = z1/z0 and
w = w1/w0, with each unknown block supported on the quadrant cone
belonging to its chart.  A failed certificate raises
CertificateError and an input system of the wrong shape raises
NotCanonicalizable, also under python -O.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .charts import (HILB21_LAYOUT, Atlas, hilb11_atlas, hilb21_atlas,
                     second_order)
from .errors import NotCanonicalizable, TooManyUnknowns
from .ideals import _certify
from .localized import LocalizedPoly, substitute_localized
from .matrix import _back_substitute, _echelon
from .parser import pretty
from .ring import SuperPoly, _coeff, even

# cone signs (sz, sw), +1 for a point on the x-patch and -1 on the
# y-patch: chart exponents (e1, e2) >= 0 embed at (sz*e1, sw*e2) with
# coefficient sign (-1)^(e1+e2)
CONES = {
    name: tuple(1 if patch == "x" else -1 for patch in row[2:])
    for name, row in HILB21_LAYOUT.items()
}

# the unknown blocks of each chart's section, one per even component
_BLOCKS = {
    "V1": ("f", "fw"), "V2": ("g", "gw"), "V3": ("h", "hw"), "V4": ("s", "sw"),
}

Z_SYM = even("z", invertible=True)
W_SYM = even("w", invertible=True)


# ---------------------------------------------------------------------------
# The cochain


@dataclass(frozen=True)
class CechCochain1:
    """Per ordered overlap (target, source): entries (even coordinate
    name, coefficient) in source-chart bosonic coordinates, relative to
    the wedge of the source chart's two odd coordinates."""

    atlas: Atlas
    entries: dict  # (target, source) -> tuple of (coord name, LocalizedPoly)

    def component(self, target: str, source: str, coord_name: str):
        for name, value in self.entries[(target, source)]:
            if name == coord_name:
                return value
        raise KeyError(coord_name)

    def is_zero_on(self, target: str, source: str) -> bool:
        return all(v.is_zero() for _, v in self.entries[(target, source)])


def extract_obstruction(atlas: Atlas) -> CechCochain1:
    """Collect the wedge coefficient of every even rule from the
    second-order split; zero for one odd coordinate."""
    return CechCochain1(atlas, {
        pair: tuple((coord.name, value) for coord, value
                    in second_order(tmap).wedge.items())
        for pair, tmap in atlas.transitions.items()})


# ---------------------------------------------------------------------------
# Wedge-square degrees on the two axes


def wedge2_degrees(k: int, atlas: Atlas | None = None):
    """Laurent degrees (on the two axis curves) of the wedge-square
    transition data of the rank-(2|1) atlas, read off det H of the maps
    out of V2 on the axes b2 = 0 and b1 = 0; returns (k-3, -k-1)."""
    atlas = _atlas_for(k, atlas)
    b1, b2 = atlas.chart("V2").evens
    return tuple(
        _monomial_degree(
            second_order(atlas.transition(target, "V2")).det.as_poly()
            .substitute({axis: SuperPoly.zero()}), var)
        for target, var, axis in (("V1", b1, b2), ("V4", b2, b1))
    )


def _monomial_degree(poly: SuperPoly, var) -> int:
    degrees = {e for (e,) in poly.coefficients((var,))}
    if len(degrees) != 1:
        raise NotCanonicalizable(
            "axis restriction is not a monomial transition"
        )
    return degrees.pop()


# ---------------------------------------------------------------------------
# Laurent data on the global bosonic coordinates


def _lb_sum(pairs) -> dict:
    """The Laurent dict summing (key, coefficient) pairs, zeros dropped."""
    out = {}
    for key, c in pairs:
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _lb_add(a: dict, b: dict) -> dict:
    return _lb_sum((*a.items(), *b.items()))


def _lb_scale(a: dict, c) -> dict:
    return {key: val * c for key, val in a.items()} if c else {}


def _lb_diag(a: dict) -> dict:
    """Substitute w := z (restriction to the diagonal direction)."""
    return _lb_sum((ez + ew, c) for (ez, ew), c in a.items())


def embed_chart_poly(poly: SuperPoly, chart_name: str, evens) -> dict:
    """Bosonic chart polynomial -> global Laurent dict through the
    identification (first coord, second coord) = (-z^s, -w^s)."""
    sz, sw = CONES[chart_name]
    if poly.odd_variables():
        raise ValueError("embedding expects a bosonic polynomial")
    out = {}
    for (d1, d2), coeff in poly.coefficients(evens).items():
        if coeff.variables():
            raise ValueError("embedding expects a chart-coordinate polynomial")
        c = coeff.as_constant()
        out[(sz * d1, sw * d2)] = -c if (d1 + d2) % 2 else c
    return out


def laurent_to_poly(data: dict) -> SuperPoly:
    """Render a Laurent dict over the symbols z, w (for report text)."""
    return SuperPoly.from_products(
        (c, ((Z_SYM, ez), (W_SYM, ew))) for (ez, ew), c in data.items())


# ---------------------------------------------------------------------------
# Coboundary equations


@dataclass(frozen=True)
class CoboundaryEquation:
    label: str  # e.g. "V12.z"
    terms: tuple  # ((block name, factor dict), ...)
    rhs: dict


@dataclass(frozen=True)
class LaurentSystem:
    """Linear system over bivariate Laurent polynomials: each equation
    equates a combination of cone-supported unknown blocks against an
    inhomogeneous Laurent polynomial."""

    twist: int
    blocks: dict  # block name -> (chart name, cone)
    equations: tuple
    degree_bound: int


def _overlap_equations(atlas: Atlas, target: str, source: str,
                       components) -> list:
    """The coboundary identity psi = det H (sigma_target o phi) -
    J sigma_source of one second-order split, read in each given even
    direction of the target chart, cleared of denominators and embedded
    in global coordinates."""
    split = second_order(atlas.transition(target, source))
    psi, det, jac = list(split.wedge.values()), split.det, split.jacobian
    equations = []
    for m in components:
        rhs, det_factor, *factors = (
            embed_chart_poly(poly, source, split.source_evens)
            for poly in _cleared([psi[m], det, *jac[m]]))
        terms = [(_BLOCKS[target][m], det_factor)] + [
            (_BLOCKS[source][n], _lb_scale(factor, -1))
            for n, factor in enumerate(factors) if factor]
        equations.append(CoboundaryEquation(
            f"{target}{source}.{'zw'[m]}", tuple(terms), rhs))
    return equations


def _cleared(values) -> list:
    """Each value's numerator times the denominators of all the others."""
    dens = [value.den for value in values]
    out = []
    for index, value in enumerate(values):
        num = value.num
        for i, den in enumerate(dens):
            if i != index:
                num = num * den
        out.append(num)
    return out


def build_coboundary_system(k: int, degree_bound: int,
                            atlas: Atlas | None = None) -> LaurentSystem:
    """The z-direction coboundary equations on the three overlaps of the
    charts V1, V2, V3, with unknown blocks f, g, h supported on their
    quadrant cones.  Constructed from the computed transition maps."""
    return _system(k, degree_bound, atlas,
                   (("V1", "V2"), ("V1", "V3"), ("V2", "V3")), (0,))


def build_full_coboundary_system(k: int, degree_bound: int,
                                 atlas: Atlas | None = None) -> LaurentSystem:
    """Both components on all six overlaps, including the fourth chart."""
    pairs = (
        ("V1", "V2"), ("V1", "V3"), ("V1", "V4"),
        ("V2", "V3"), ("V2", "V4"), ("V3", "V4"),
    )
    return _system(k, degree_bound, atlas, pairs, (0, 1))


def _system(k, degree_bound, atlas, pairs, components) -> LaurentSystem:
    """The equations of the given overlaps and components, with one
    block per chart met and component, in chart order."""
    _checked_bound(degree_bound)
    atlas = _atlas_for(k, atlas)
    equations = tuple(
        eq for t, s in pairs
        for eq in _overlap_equations(atlas, t, s, components)
    )
    blocks = {
        _BLOCKS[chart][m]: (chart, CONES[chart])
        for chart in CONES if any(chart in pair for pair in pairs)
        for m in components
    }
    return LaurentSystem(k, blocks, equations, degree_bound)


def _atlas_for(k: int, atlas: Atlas | None) -> Atlas:
    """hilb21_atlas(k) when no atlas is given; ValueError when the given
    atlas has another twist."""
    if atlas is None:
        return hilb21_atlas(k)
    if atlas.twist != k:
        raise ValueError(f"the atlas has twist {atlas.twist}, not {k}")
    return atlas


# ---------------------------------------------------------------------------
# Bounded exact solver
#
# Unknown (block, e, f) is the coefficient of the chart monomial of
# exponents (e, f), which embeds at (sz*e, sw*f) with the chart sign
# (-1)^(e+f).  A factor term c z^fz w^fw of the block sends the block's
# triangle e + f <= bound onto the rows (fz + sz*e, fw + sw*f): a
# shifted, reflected copy of the triangle.  A row key packs (equation,
# z, w) into one int with digits as wide as the system's own exponents
# need, so sorted keys are in (equation, z, w) order and each cone
# orientation's triangle is one list of key offsets, built once per
# solve.  The factors of a block listed twice in an equation are merged
# first, so every (row, unknown) entry is written exactly once and is
# nonzero.  A right side that no term of its equation reaches is
# therefore the row 0 = c != 0, found from the supports before any row
# is built.  Elimination stops once every unknown is a pivot, and reads
# rows built one equation at a time, so later equations are never built.

# The most unknowns a solve lists: at k = 0, bound 360 on three blocks
# (196,023) solves in 0.75 s at a 148 MiB peak, and bound 222 on the full
# system's eight (199,808) in 0.74 s at 138 MiB.
MAX_UNKNOWNS = 200_000


def solve_laurent_system(system: LaurentSystem):
    """Exact rational solve of the truncated system.

    Unknowns are the block coefficients of total degree <= the bound
    inside each cone, one row per equation and Laurent exponent.  A
    nonzero right side that no term of its equation reaches within the
    bound makes the system infeasible, and is found without building a
    row.  Otherwise a system with more than MAX_UNKNOWNS unknowns raises
    TooManyUnknowns before any unknown is listed, and the rows, built one
    equation at a time as they are read, are solved in key order by the
    elimination of `superhilb.matrix` with the free unknowns zero, which
    stops once every unknown is a pivot.  Every equation's residual is
    checked up to the last row read (CertificateError otherwise, also
    under python -O); those rows pin every unknown, so a later mismatch
    proves the system infeasible.  The solution is returned as a dict
    unknown -> Fraction; None when the equations are infeasible at this
    truncation.  A negative bound raises ValueError.
    """
    bound = _checked_bound(system.degree_bound)
    if _unreached_rhs(system, bound):
        return None
    count = len(system.blocks) * (bound + 1) * (bound + 2) // 2
    if count > MAX_UNKNOWNS:
        raise TooManyUnknowns(
            f"the solve at degree bound {bound} has {count} unknowns; the "
            f"solver lists at most {MAX_UNKNOWNS}")
    unknowns = [
        (name, e, f_)
        for name in system.blocks
        for e in range(bound + 1)
        for f_ in range(bound + 1 - e)
    ]
    truncation = _Truncation(system, bound)
    pivots = _echelon(truncation.rows(), len(unknowns))
    if pivots is None:
        return None
    values = _back_substitute(pivots, len(unknowns))
    residual, rhs = truncation.residual(values), truncation.rhs
    if residual != rhs:
        mismatch = min(key for key in residual.keys() | rhs.keys()
                       if residual.get(key, 0) != rhs.get(key, 0))
        _certify(mismatch > truncation.last,
                 "the solver's values satisfy every truncated equation")
        return None
    zero = Fraction(0)
    return {
        u: Fraction(val) if val else zero
        for u, val in zip(unknowns, values)
    }


def _unreached_rhs(system: LaurentSystem, bound: int) -> bool:
    """Whether some nonzero right side lies where no term of its
    equation reaches from its block's triangle e + f <= bound."""
    for eq in system.equations:
        terms = [(system.blocks[block][1], key)
                 for block, factor in _merged_terms(eq, system.blocks)
                 for key in factor]
        for target, c in eq.rhs.items():
            if c and not any(_reaches(cone, key, target, bound)
                             for cone, key in terms):
                return True
    return False


def _reaches(cone, key, target, bound: int) -> bool:
    """Whether some (e, f) >= 0 with e + f <= bound has key + (sz*e,
    sw*f) == target; a cone sign of 0 stays on its exponent."""
    steps = 0
    for s, start, end in zip(cone, key, target):
        if not s:
            if start != end:
                return False
            continue
        n, r = divmod(end - start, s)
        if r or n < 0:
            return False
        steps += n
    return steps <= bound


def _checked_bound(bound: int) -> int:
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    return bound


def _merged_terms(eq: CoboundaryEquation, blocks) -> list:
    """The equation's (block, {exponent: coefficient}) terms, one per
    block of the system, with the factors of a block listed twice summed
    and zero coefficients dropped; integral coefficients are ints."""
    merged = {}
    for block, factor in eq.terms:
        if block not in blocks:
            continue
        acc = merged.setdefault(block, {})
        for key, c in factor.items():
            acc[key] = acc[key] + c if key in acc else c
    return [(block, {key: _coeff(c) for key, c in acc.items() if c})
            for block, acc in merged.items()]


def _triangle(cone, w_span: int, bound: int):
    """The key offsets of a block's unknowns e + f <= bound on a cone and
    their indices within the block, as (offsets, indices) for even e + f
    and then for odd e + f."""
    sz, sw = cone
    parts = ([], [], [], [])
    first = 0  # the index of (e, 0)
    for e in range(bound + 1):
        length = bound + 1 - e
        at = sz * e * w_span
        for f0 in (0, 1):
            odd = 2 * ((e + f0) % 2)
            parts[odd].extend(range(at + sw * f0, at + sw * length, 2 * sw))
            parts[odd + 1].extend(range(first + f0, first + length, 2))
        first += length
    return parts


class _Truncation:
    """A LaurentSystem truncated at a degree bound, over packed row keys:
    the key of (equation, z, w) is bases[equation] + z * w_span + w; an
    equation's rows are built when read, and `last` is the last key read."""

    def __init__(self, system: LaurentSystem, bound: int):
        self.equations = [_merged_terms(eq, system.blocks)
                          for eq in system.equations]
        exponents = [key for terms in self.equations
                     for _, factor in terms for key in factor]
        exponents += [key for eq in system.equations for key in eq.rhs]
        reach = bound * max((abs(s) for _, cone in system.blocks.values()
                             for s in cone), default=0)
        zs = [z for z, _ in exponents] or [0]
        ws = [w for _, w in exponents] or [0]
        z_lo, w_lo = min(zs) - reach, min(ws) - reach
        self.w_span = w_span = max(ws) + reach - w_lo + 1
        eq_span = (max(zs) + reach - z_lo + 1) * w_span
        self.bases = [n * eq_span - z_lo * w_span - w_lo
                      for n in range(len(system.equations))]
        size = (bound + 1) * (bound + 2) // 2
        by_cone = {}
        # block -> key offsets and unknowns of even e + f, then of odd
        self.triangles = {}
        for n, (block, (_, cone)) in enumerate(system.blocks.items()):
            if cone not in by_cone:
                by_cone[cone] = _triangle(cone, w_span, bound)
            even, even_at, odd, odd_at = by_cone[cone]
            shift = (n * size).__add__
            self.triangles[block] = (even, list(map(shift, even_at)),
                                     odd, list(map(shift, odd_at)))
        # row key -> nonzero right-hand side, per equation and in all
        self.sides = [{base + ez * w_span + ew: _coeff(c)
                       for (ez, ew), c in eq.rhs.items() if c}
                      for base, eq in zip(self.bases, system.equations)]
        self.rhs = {key: c for side in self.sides for key, c in side.items()}

    def _term_keys(self, equations):
        """(block, first row key, coefficient) of each term of the
        equations numbered in `equations`."""
        w_span = self.w_span
        for n in equations:
            for block, factor in self.equations[n]:
                for (fz, fw), c in factor.items():
                    yield block, self.bases[n] + fz * w_span + fw, c

    def _equation_rows(self, n: int) -> dict:
        """Equation n's rows, as {row key: coeffs {unknown index:
        coefficient}}, for the keys its terms reach."""
        rows = defaultdict(dict)
        for block, at, c in self._term_keys((n,)):
            even, even_u, odd, odd_u = self.triangles[block]
            for key, u in zip(map(at.__add__, even), even_u):
                rows[key][u] = c
            c = -c
            for key, u in zip(map(at.__add__, odd), odd_u):
                rows[key][u] = c
        return rows

    def rows(self):
        """Yield the rows (coeffs, rhs) in the order of their (equation,
        z, w) key, a key with only a right side included; an equation's
        rows are built when its first row is read, and the key of the
        last row read is kept as `last`."""
        for n, side in enumerate(self.sides):
            rows = self._equation_rows(n)
            for key in sorted(rows.keys() | side.keys()):
                self.last = key
                yield rows.pop(key, {}), side.get(key, 0)

    def residual(self, values) -> dict:
        """A v as {row key: nonzero value}, from the nonzero values
        scattered over the triangles."""
        scattered = {
            block: [(off, values[u]) for off, u in zip(even, even_u)
                    if values[u]]
            + [(off, -values[u]) for off, u in zip(odd, odd_u) if values[u]]
            for block, (even, even_u, odd, odd_u) in self.triangles.items()
        }
        out = {}
        for block, at, c in self._term_keys(range(len(self.equations))):
            for off, v in scattered[block]:
                key = at + off
                out[key] = out.get(key, 0) + c * v
        return {key: r for key, r in out.items() if r}


# ---------------------------------------------------------------------------
# Exact case analysis of the three-overlap subsystem


@dataclass
class CaseAnalysis:
    feasible: bool
    case_label: str
    trace: list
    forced: dict  # e.g. {"g00": 1, "f": 0}


def _single_monomial(factor: dict):
    if len(factor) != 1:
        return None
    (key, coeff), = factor.items()
    return key, coeff


def analyze_subsystem(system: LaurentSystem) -> CaseAnalysis:
    """Support-cone reasoning on the three z-direction equations.

    The product-to-product equation has single-monomial columns, so its
    two blocks are forced to vanish outside an exact integer box; the
    remaining equations are settled on the diagonal w = z, where the
    binomial factor in front of the V1 block vanishes identically.  A
    V1/V2 residue that vanishes there too is a shape this analysis does
    not decide: NotCanonicalizable.
    """
    k = system.twist
    eqs = {eq.label: eq for eq in system.equations}
    trace = []
    forced = {}

    eq23 = eqs["V2V3.z"]
    factors = dict(eq23.terms)
    fac_g = _single_monomial(factors["g"])
    fac_h = _single_monomial(factors["h"])
    if not (fac_g and fac_h):
        raise NotCanonicalizable(
            "expected monomial columns on the V2V3 overlap")
    if eq23.rhs:
        raise NotCanonicalizable("expected a vanishing obstruction on V2V3")
    (gz, gw), gc = fac_g
    (hz, hw), hc = fac_h
    # g hits exponents (gz - e, gw + f); h hits (hz + e, hw - f), so the
    # two blocks couple on the box [hz, gz] x [gw, hw]
    coupled = hz <= gz and gw <= hw
    if not coupled:
        case = "I" if k > 0 else "II"
        side = "w" if k > 0 else "z"
        trace.append(
            f"overlap V2/V3: the g-image cone and the h-image cone share no "
            f"exponent (every g monomial shifts into negative {side}-powers), "
            f"so g = 0 and h = 0"
        )
        forced["g"] = 0
        forced["h"] = 0
    else:
        case = "III"
        # a one-point box has hz == gz and gw == hw: the constant slot
        # of both blocks, with chart sign +1
        if (hz, hw) != (gz, gw):
            raise NotCanonicalizable("unexpected coupling box")
        lam = -gc / hc
        trace.append(
            "overlap V2/V3: supports meet only at the constant slot, "
            f"forcing h = {lam} * g with both constant"
        )
        forced["h_over_g"] = lam

    # the V1V2 equation: its V1-column carries the factor vanishing on
    # the diagonal w = z, so restricting to the diagonal eliminates f
    eq12 = eqs["V1V2.z"]
    factors12 = dict(eq12.terms)
    if _lb_diag(factors12["f"]):
        raise NotCanonicalizable("the V1-column must vanish on the diagonal")

    if not coupled:
        g_val = Fraction(0)
    else:
        # case III: the diagonal restriction determines the constant g,
        # read at the g-column's lowest exponent; a right side that is
        # not that multiple of the column leaves a residue on the
        # diagonal, so the V1/V2 step below finds no solution
        g_fac_diag = _lb_diag(factors12.get("g", {}))
        if not g_fac_diag:
            raise NotCanonicalizable("expected a g-column on the V1V2 overlap")
        exp = min(g_fac_diag)
        g_val = _lb_diag(eq12.rhs).get(exp, 0) / g_fac_diag[exp]
        forced["g00"] = g_val
        forced["h00"] = g_val * forced["h_over_g"]

    # with g fixed the equation reads f_factor * F = residue
    residue = _lb_add(eq12.rhs, _lb_scale(factors12.get("g", {}), -g_val))
    if residue and not _lb_diag(residue):
        raise NotCanonicalizable(
            "expected the V1/V2 residue to vanish or to survive on the "
            "diagonal")
    if residue:
        inst = laurent_to_poly(residue)
        trace.append(
            "overlap V1/V2 demands f(z, w) * (w - z) * unit = "
            f"{pretty(inst)}, which is impossible: the left side vanishes "
            "on the diagonal w = z and the right side does not "
            "(w - z is not a unit)"
        )
        return CaseAnalysis(False, case, trace, forced)
    forced["f"] = 0
    trace.append(
        f"overlap V1/V2 forces f = 0 and c = {g_val} "
        "(the constant value of g and h)"
        if coupled
        else "overlap V1/V2 is satisfied by f = 0"
    )

    # consistency of the remaining V1/V3 equation with f = 0 and h fixed
    eq13 = eqs["V1V3.z"]
    h_val = forced.get("h00", Fraction(0))
    residue13 = _lb_add(
        eq13.rhs, _lb_scale(dict(eq13.terms).get("h", {}), -h_val)
    )
    if residue13:
        inst = laurent_to_poly(residue13)
        trace.append(
            f"overlap V1/V3 with f and h fixed: residual "
            f"{pretty(inst)} = 0 fails"
        )
        return CaseAnalysis(False, case, trace, forced)
    trace.append(
        "overlap V1/V3 is satisfied as well; the three-overlap system "
        "is solvable"
    )
    return CaseAnalysis(True, case, trace, forced)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class SplitVerdict:
    split: bool
    target: str
    twist_input: int
    twist: int | None = None
    case_label: str | None = None
    degrees: tuple | None = None
    trace: list = field(default_factory=list)
    certificate: dict | None = None
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "k": self.twist_input,
            "target": self.target,
            "split": self.split,
        }
        if self.twist is not None:
            out["twist"] = self.twist
        if self.case_label is not None:
            out["case"] = self.case_label
        if self.degrees is not None:
            out["degrees"] = list(self.degrees)
        if self.trace:
            out["trace"] = list(self.trace)
        if self.certificate is not None:
            out["certificate"] = {
                key: str(val) for key, val in sorted(self.certificate.items())
            }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


ANSATZ_NOTE = (
    "candidate sections are polynomial in the chart coordinates; poles "
    "along the removed diagonal are not considered"
)


def split_check_11(k: int) -> SplitVerdict:
    """The rank-(1|1) family: the single odd transition rule is linear
    with a monomial coefficient, so the family is split of twist -k+2;
    with one odd coordinate `second_order` has no wedge-square term."""
    atlas = hilb11_atlas(k)
    h = second_order(atlas.transition("B", "A")).odd_block
    degree = _monomial_degree(h[0][0].as_poly(), atlas.chart("A").evens[0])
    return SplitVerdict(
        split=True,
        target="hilb11",
        twist_input=k,
        twist=-degree,
        trace=[
            f"odd transition rule is linear with monomial coefficient of "
            f"Laurent degree {degree}; the family is the parity-reversed "
            f"line bundle of twist {-degree}"
        ],
    )


def _verify_certificate(atlas: Atlas, sections) -> bool:
    """Exact check of psi = sigma_target - sigma_source on every stored
    transition and both even components; sections maps chart name ->
    (poly in chart evens for component 0, for component 1)."""
    for (target, source), tmap in atlas.transitions.items():
        split = second_order(tmap)
        det, jac = split.det, split.jacobian
        for m, psi in enumerate(split.wedge.values()):
            composed = substitute_localized(sections[target][m], split.bosonic)
            rhs = det * composed
            for n, entry in enumerate(jac[m]):
                rhs = rhs - entry * LocalizedPoly(sections[source][n])
            if not (psi - rhs).is_zero():
                return False
    return True


def _sections_from_solution(solution, charts_evens):
    """Chart polynomials from the solved block coefficients."""
    return {
        chart: tuple(
            SuperPoly.from_products(
                (-val if (e + f_) % 2 else val, ((evens[0], e), (evens[1], f_)))
                for (block, e, f_), val in solution.items() if block == name)
            for name in _BLOCKS[chart])
        for chart, evens in charts_evens.items()
    }


def is_coboundary(k: int, atlas: Atlas | None = None) -> SplitVerdict:
    """Decide whether the wedge-square cochain of the rank-(2|1) atlas
    bounds chart-level polynomial sections.

    The three-overlap z-direction subsystem is analyzed exactly (support
    cones plus the diagonal restriction) and cross-checked against the
    bounded solver.  When the subsystem alone is solvable the decision
    escalates to the full four-chart system in both directions, and a
    found solution is verified as an exact certificate."""
    atlas = _atlas_for(k, atlas)
    verdict = SplitVerdict(split=False, target="hilb21", twist_input=k,
                           degrees=wedge2_degrees(k, atlas),
                           notes=[ANSATZ_NOTE])
    system = build_coboundary_system(k, abs(k) + 4, atlas)
    analysis = analyze_subsystem(system)
    solver_solution = solve_laurent_system(system)
    _certify((solver_solution is not None) == analysis.feasible,
             "support analysis and bounded solver agree")
    verdict.case_label, verdict.trace = analysis.case_label, analysis.trace
    if not analysis.feasible:
        return verdict

    # the three-overlap equations admit sections; decide on the full cover
    full = build_full_coboundary_system(k, 4, atlas)
    solution = solve_laurent_system(full)
    if solution is None:
        verdict.trace.append("the fourth chart admits no compatible section")
        return verdict
    charts_evens = {ch.name: ch.evens for ch in atlas.charts}
    sections = _sections_from_solution(solution, charts_evens)
    _certify(_verify_certificate(atlas, sections),
             "the solver's sections satisfy the exact identities")
    verdict.split = True
    verdict.certificate = {
        f"{block}[{e},{f_}]": val
        for (block, e, f_), val in sorted(solution.items())
        if val
    }
    verdict.trace.append(
        "explicit cobounding sections exist on all four charts and "
        "verify exactly; the wedge-square obstruction vanishes"
    )
    return verdict
