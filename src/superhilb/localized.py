"""Superpolynomials localized at the removed loci.

Transition maps between Hilbert-scheme charts are regular away from the
removed loci, such as the diagonal a1 - a2 and b1*b2 - 1.  A
`LocalizedPoly` is a Laurent numerator times prod L^(-e) over a small map
{locus L: exponent e >= 1}.  A locus is an even polynomial free of odd
variables, with monomial content 1, linear in an even pivot variable (the
first by name) with a unit monomial coefficient whose rational factor is
1; a non-invertible variable is a locus of its own.  Distinct loci are
coprime irreducibles and never zero divisors, so `*` adds exponents, `==`
and `+` raise both sides to the larger exponent of each locus and compare
or add numerators, inversion moves the monomial content into the
numerator and clears the nilpotent soul with a finite series, and
`simplified` cancels by exact division in each pivot, bounded by the
exponent.  Substitutions through one `PowerTable` share the powers of
the substituted values.
"""

from __future__ import annotations

from .errors import NotAUnit, ParityMismatch
from .ideals import super_divmod
from .ring import ParityClass, SuperMonomial, SuperPoly, VarSymbol, invert


class Locus:
    """A normalized locus and its pivot; equal loci have equal term maps."""

    __slots__ = ("poly", "pivot", "_key")

    def __init__(self, poly: SuperPoly, pivot: VarSymbol):
        self.poly, self.pivot = poly, pivot
        self._key = frozenset(poly.terms.items())

    def __eq__(self, other):
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _as_locus(poly: SuperPoly):
    """(scale, locus) with poly == scale * locus.poly, for a poly of
    monomial content 1 free of odd variables; NotAUnit otherwise."""
    for x in sorted(poly.variables(), key=lambda v: v.name):
        coeff = poly.coeff_of(SuperMonomial.make({x: 1}), {x})
        if (poly.degree_in(x) == 1 and len(coeff.terms) == 1
                and all(v.invertible for v in coeff.variables())):
            scale = next(iter(coeff.terms.values()))
            return scale, Locus(poly * (1 / scale), x)
    raise NotAUnit(f"{poly!r} is not a unit times a locus")


def _factor_body(body: SuperPoly):
    """(unit, loci) with body == unit * prod(L^e): a nonzero rational
    times an invertible Laurent monomial, and at most one locus besides
    the non-invertible variables of the monomial content."""
    content = {
        v: min(m.exponent(v) for m in body.terms) for v in body.variables()
    }
    unit = {v: e for v, e in content.items() if v.invertible}
    loci = {Locus(SuperPoly.var(v), v): e
            for v, e in content.items() if e and not v.invertible}
    rest = SuperPoly({
        SuperMonomial.make({v: m.exponent(v) - e
                            for v, e in content.items()}): c
        for m, c in body.terms.items()
    })
    if len(rest.terms) == 1:
        scale = rest.as_constant()
    else:
        scale, locus = _as_locus(rest)
        loci[locus] = 1
    return SuperPoly({SuperMonomial.make(unit): scale}), loci


def _inverse(p: SuperPoly) -> "LocalizedPoly":
    """1/p for an even p whose body is a unit times loci.

    With p = B + N, B the body and N the nilpotent soul, the inverse is
    the finite series sum (-N)^j B^-(j+1): N^j vanishes once j exceeds
    half the number of odd variables.
    """
    if p.parity_class() is not ParityClass.EVEN:
        raise NotAUnit("cannot invert an odd element")
    body = p.bosonic()
    if body.is_zero():
        raise NotAUnit("cannot invert a nilpotent element")
    unit, loci = _factor_body(body)
    body_inv = LocalizedPoly._of(invert(unit), loci)
    neg_soul = LocalizedPoly(-p.soul())
    term, terms = body_inv, []
    while not term.is_zero():
        terms.append(term)
        term = term * neg_soul * body_inv
    return LocalizedPoly.sum(terms)


def _divide_out(num: SuperPoly, locus: Locus, e: int):
    """(num / L^t, t) with t <= e the multiplicity of the locus L in num.

    num = quo * M^e + rem with M the monic locus and rem of pivot degree
    below e, so M divides num exactly as often as it divides rem (each
    division lowers that degree), or e times when rem is zero.
    """
    x = locus.pivot
    lead_inv = invert(locus.poly.coeff_of(SuperMonomial.make({x: 1}), {x}))
    monic = locus.poly * lead_inv
    quo, rem = super_divmod(num, monic ** e, x)
    if rem.is_zero():
        return quo * lead_inv ** e, e
    times = 0
    while True:
        rem_quo, rem_rem = super_divmod(rem, monic, x)
        if not rem_rem.is_zero():
            break
        rem, times = rem_quo, times + 1
    if not times:
        return num, 0
    quotient = quo * monic ** (e - times) + rem
    return quotient * lead_inv ** times, times


def _aligned(values):
    """(numerators, loci): every value over the common loci, each locus
    at the largest exponent it has among the values."""
    values = list(values)
    loci = {}
    for v in values:
        for locus, e in v.loci.items():
            if e > loci.get(locus, 0):
                loci[locus] = e
    nums = []
    for v in values:
        num = v.num
        for locus, e in loci.items():
            gap = e - v.loci.get(locus, 0)
            if gap:
                num = num * locus.poly ** gap
        nums.append(num)
    return nums, loci


class LocalizedPoly:
    __slots__ = ("num", "loci")

    def __init__(self, num, den=None):
        """num/den, with den even, its body a unit times a locus."""
        self.num, self.loci = SuperPoly.promote(num), {}
        if den is not None:
            inv = _inverse(SuperPoly.promote(den))
            self.num, self.loci = self.num * inv.num, inv.loci

    @classmethod
    def _of(cls, num: SuperPoly, loci: dict) -> "LocalizedPoly":
        out = cls.__new__(cls)
        out.num = num
        out.loci = {locus: e for locus, e in loci.items() if e}
        return out

    @staticmethod
    def sum(values) -> "LocalizedPoly":
        """Sum over the common loci, the numerators added in one pass."""
        nums, loci = _aligned(values)
        return LocalizedPoly._of(SuperPoly.sum(nums), loci)

    def with_num(self, num: SuperPoly) -> "LocalizedPoly":
        """num over the loci of this value."""
        return LocalizedPoly._of(num, self.loci)

    @property
    def den(self) -> SuperPoly:
        """The expanded product of the loci powers."""
        out = SuperPoly.one()
        for locus, e in self.loci.items():
            out = out * locus.poly ** e
        return out

    def simplified(self) -> "LocalizedPoly":
        """Cancel every locus that divides the numerator.

        Worth calling on long-lived values (transition rules); fractions
        that are secretly Laurent polynomials collapse to no loci.
        """
        num, loci = self.num, {}
        for locus, e in self.loci.items():
            num, times = _divide_out(num, locus, e)
            loci[locus] = e - times
        if num is self.num:
            return self
        return LocalizedPoly._of(num, loci)

    @staticmethod
    def promote(x) -> "LocalizedPoly":
        if isinstance(x, LocalizedPoly):
            return x
        return LocalizedPoly(x)

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.loci

    def as_poly(self) -> SuperPoly:
        if self.loci:
            raise NotAUnit(f"denominator {self.den!r} is not a unit")
        return self.num

    def parity_class(self) -> ParityClass:
        return self.num.parity_class()

    def bosonic(self) -> "LocalizedPoly":
        return self.with_num(self.num.bosonic())

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        (lhs, rhs), _ = _aligned((self, LocalizedPoly.promote(other)))
        return lhs == rhs

    __hash__ = None

    def __add__(self, other):
        return LocalizedPoly.sum((self, LocalizedPoly.promote(other)))

    __radd__ = __add__

    def __neg__(self):
        return self.with_num(-self.num)

    def __sub__(self, other):
        return self + (-LocalizedPoly.promote(other))

    def __rsub__(self, other):
        return LocalizedPoly.promote(other) + (-self)

    def __mul__(self, other):
        other = LocalizedPoly.promote(other)
        loci = dict(self.loci)
        for locus, e in other.loci.items():
            loci[locus] = loci.get(locus, 0) + e
        return LocalizedPoly._of(self.num * other.num, loci)

    __rmul__ = __mul__

    def reciprocal(self) -> "LocalizedPoly":
        """prod L^e / num; a locus shared with 1/num cancels on the spot."""
        inv = _inverse(self.num)
        num, loci = inv.num, dict(inv.loci)
        for locus, e in self.loci.items():
            common = min(e, loci.get(locus, 0))
            loci[locus] = loci.get(locus, 0) - common
            num = num * locus.poly ** (e - common)
        return LocalizedPoly._of(num, loci)

    def __truediv__(self, other):
        return self * LocalizedPoly.promote(other).reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return LocalizedPoly._of(
            self.num ** n, {locus: e * n for locus, e in self.loci.items()}
        )

    def substitute(self, assignment) -> "LocalizedPoly":
        """Substitute into the numerator and every locus through one
        power table (`assignment` may already be a `PowerTable`)."""
        table = PowerTable.of(assignment)
        out = substitute_localized(self.num, table)
        for locus, e in self.loci.items():
            out = out * substitute_localized(locus.poly, table) ** -e
        return out

    def diff(self, var) -> "LocalizedPoly":
        """Quotient rule: d(L^-e) = -e * L' * L^-(e+1), so the exponent
        rises by one only for the loci that depend on var."""
        out = self.with_num(self.num.diff(var))
        for locus, e in self.loci.items():
            d_locus = locus.poly.diff(var)
            if not d_locus.is_zero():
                out = out - self * LocalizedPoly._of(d_locus * e, {locus: 1})
        return out

    def __repr__(self):
        from .parser import pretty_localized

        return f"LocalizedPoly({pretty_localized(self)})"


class PowerTable:
    """The values of one assignment and the powers of them built so far.

    Substitutions through one table share its powers: each rep^e is built
    once, from the nearest power already in the table (`_power`), and
    every negative power is a power of one cached reciprocal.  The table
    holds only values derived from the assignment and lives as long as
    its holder keeps it; a changed value needs a new table.
    """

    __slots__ = ("values", "_powers")

    def __init__(self, assignment):
        values = {v: LocalizedPoly.promote(val) for v, val in assignment.items()}
        for v, val in values.items():
            if val.is_zero():
                continue
            want = ParityClass.EVEN if v.parity.value == 0 else ParityClass.ODD
            if val.parity_class() is not want:
                raise ParityMismatch(
                    f"replacement for {v.name} has parity "
                    f"{val.parity_class().value}"
                )
        self.values = values
        self._powers = {}  # (var, +1 or -1) -> {n: value^(+-n)}

    @staticmethod
    def of(assignment) -> "PowerTable":
        if isinstance(assignment, PowerTable):
            return assignment
        return PowerTable(assignment)

    def power(self, v: VarSymbol, e: int) -> LocalizedPoly:
        """rep^e for the value rep of v."""
        sign = 1 if e >= 0 else -1
        built = self._powers.get((v, sign))
        if built is None:
            base = self.values[v]
            built = {0: LocalizedPoly(SuperPoly.one()),
                     1: base if sign > 0 else base.reciprocal()}
            self._powers[(v, sign)] = built
        return _power(built, abs(e))


def _power(built: dict, n: int) -> LocalizedPoly:
    """base^n from {exponent: base^exponent}, which holds 0 and 1, storing
    every power built on the way: the largest power below n times the
    rest, or two halves when that power is below n/2, so the recursion
    depth stays logarithmic in n."""
    out = built.get(n)
    if out is None:
        d = max(d for d in built if d < n)
        if 2 * d < n:
            d = n // 2
        out = built[n] = _power(built, d) * _power(built, n - d)
    return out


def substitute_localized(p: SuperPoly, assignment) -> LocalizedPoly:
    """Substitute LocalizedPoly values into a SuperPoly, term by term.

    `assignment` is a map {variable: value} or a `PowerTable`.  Factors
    multiply in the monomial's canonical variable order, which keeps the
    Koszul signs consistent with `SuperPoly.substitute`.
    """
    table = PowerTable.of(assignment)
    values = table.values
    terms = []
    for m, c in p.terms.items():
        acc = LocalizedPoly(SuperPoly.const(c))
        for v, e in m.factors:
            if v in values:
                acc = acc * table.power(v, e)
            else:
                acc = acc * LocalizedPoly(SuperPoly.var(v, e))
        terms.append(acc)
    return LocalizedPoly.sum(terms)
