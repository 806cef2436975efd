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
or add numerators, and `simplified` cancels by exact division in each
pivot, bounded by the exponent.  Inversion and powers read one split
B + N of a value (`_split`): B its body with its loci cancelled, N its
nilpotent soul.  1/(B + N) is `ring.soul_series` over 1/B, and a power
of a value whose body sheds a locus is sum_j binom(n, j) B^(n-j) N^j
(`_soul_powers`), whose loci stay at those of the nonzero powers of N
rather than n times its own.
Substitution runs through `ring.PowerTable`; `PowerTable` here is its
form with LocalizedPoly values, and substitutions through one table
share the powers of the substituted values and the images of the loci.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import ring
from .errors import NotAUnit
from .ideals import super_divmod
from .ring import ParityClass, SuperPoly, VarSymbol, invert, soul_series


class Locus:
    """A normalized locus and its pivot; equal loci have equal term maps."""

    __slots__ = ("poly", "pivot", "_key")

    def __init__(self, poly: SuperPoly, pivot: VarSymbol):
        self.poly, self.pivot = poly, pivot
        self._key = frozenset(poly.named_terms())

    def __eq__(self, other):
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _as_locus(poly: SuperPoly):
    """(scale, locus) with poly == scale * locus.poly, for a poly of
    monomial content 1 free of odd variables; NotAUnit otherwise."""
    for x in sorted(poly.variables(), key=lambda v: v.name):
        terms = (poly.coefficients((x,))[(1,)].named_terms()
                 if poly.degree_in(x) == 1 else ())
        if len(terms) == 1 and all(v.invertible for v, _ in terms[0][0]):
            scale = Fraction(terms[0][1])
            return scale, Locus(poly * (1 / scale), x)
    raise NotAUnit(f"{poly!r} is not a unit times a locus")


def _factor_body(body: SuperPoly):
    """(unit, loci) with body == unit * prod(L^e): a nonzero rational
    times an invertible Laurent monomial, and distinct loci of exponent 1
    besides the non-invertible variables of the monomial content.

    A content-free rest that is no unit times a locus is split in the
    first variable (by name) it is linear in: a locus of that variable's
    coefficient that divides the rest is divided out once, and the
    quotient is factored in turn.  NotAUnit for a repeated or non-linear
    factor."""
    content, rest = body.content()
    unit = [(v, e) for v, e in content.items() if v.invertible]
    loci = {Locus(SuperPoly.var(v), v): e
            for v, e in content.items() if not v.invertible}
    if len(rest.terms) == 1:
        return SuperPoly.from_products([(rest.as_constant(), unit)]), loci
    try:
        scale, locus = _as_locus(rest)
        return SuperPoly.from_products([(scale, unit)]), {**loci, locus: 1}
    except NotAUnit:
        linear = [v for v in sorted(rest.variables(), key=lambda v: v.name)
                  if rest.degree_in(v) == 1]
        if not linear:
            raise
    for locus in _factor_body(rest.coefficients((linear[0],))[(1,)])[1]:
        quotient, times = _divide_out(rest, locus, 1)
        if times:
            inner_unit, inner = _factor_body(quotient)
            if locus not in inner:
                return (SuperPoly.from_products([(1, unit)]) * inner_unit,
                        {**loci, **inner, locus: 1})
    raise NotAUnit(f"{rest!r} is not a unit times distinct loci")


def _divide_out(num: SuperPoly, locus: Locus, e: int):
    """(num / L^t, t) with t <= e the multiplicity of the locus L in num.

    num = quo * M^e + rem with M the monic locus and rem of pivot degree
    below e, so M divides num exactly as often as it divides rem (each
    division lowers that degree), or e times when rem is zero.
    """
    x = locus.pivot
    lead_inv = invert(locus.poly.coefficients((x,))[(1,)])
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


def _split(rep):
    """(B, N) with rep = B + N: B the body of rep with its loci cancelled,
    N its nilpotent soul over the loci of rep."""
    body = rep.bosonic()
    if body.loci:
        body = body.simplified()
    return body, rep.with_num(rep.num.soul())


def _soul_powers(rep):
    """n -> rep^n (n >= 0) as sum_j binom(n, j) B^(n-j) N^j over the
    `_split` of rep, ending at the first zero power of N, so its loci
    stay at those of the nonzero powers of N, not n times those of rep.
    None when B keeps every locus exponent: the n-fold product is as
    good."""
    body, soul = _split(rep)
    if body.loci == rep.loci:
        return None
    bodies, souls = {0: LocalizedPoly(1), 1: body}, [soul]
    while not (nxt := souls[-1] * souls[0]).is_zero():
        souls.append(nxt)
    return lambda n: LocalizedPoly.sum(
        [ring._power(bodies, n)]
        + [ring._power(bodies, n - j) * soul * comb(n, j)
           for j, soul in enumerate(souls[:n], 1)]
    )


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
        """num times the `reciprocal` of den."""
        self.num, self.loci = SuperPoly.promote(num), {}
        if den is not None:
            inv = LocalizedPoly(den).reciprocal()
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
        if not isinstance(other, (LocalizedPoly, SuperPoly, VarSymbol, int,
                                  Fraction)):
            return NotImplemented
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

    def __rmul__(self, other):
        return LocalizedPoly.promote(other) * self

    def reciprocal(self) -> "LocalizedPoly":
        """1/(B + N) = sum (-N)^j B^-(j+1) over the `_split` of this
        value.  1/B is the powers of B's loci over B's numerator, which
        must factor as a unit times distinct loci that `_factor_body`
        separates, such as (a1 - a2)*(b1*b2 - 1), besides its
        non-invertible variables (NotAUnit otherwise)."""
        if self.parity_class() is not ParityClass.EVEN:
            raise NotAUnit("cannot invert an odd element")
        body, soul = _split(self)
        if body.is_zero():
            raise NotAUnit("cannot invert a nilpotent element")
        unit, loci = _factor_body(body.num)
        num = invert(unit)
        for locus, e in body.loci.items():
            num = num * locus.poly ** e
        return soul_series(LocalizedPoly._of(num, loci), -soul)

    def __truediv__(self, other):
        return self * LocalizedPoly.promote(other).reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError(f"exponent is not an int: {n!r}")
        if n < 0:
            return self.reciprocal() ** (-n)
        powers = _soul_powers(self) if n > 1 else None
        if powers is not None:
            return powers(n)
        return LocalizedPoly._of(
            self.num ** n, {locus: e * n for locus, e in self.loci.items()}
        )

    def substitute(self, assignment) -> "LocalizedPoly":
        """Substitute into the numerator and every locus through one
        power table (`assignment` may already be a `PowerTable`)."""
        table = PowerTable.of(assignment)
        out = table.apply(self.num)
        for locus, e in self.loci.items():
            out = out * table.locus_power(locus, -e)
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


class PowerTable(ring.PowerTable):
    """A `superhilb.ring.PowerTable` whose values are LocalizedPolys.  Its
    powers rep^n with |n| >= 2 are those of `LocalizedPoly.__pow__`, the
    `_soul_powers` of each value (or reciprocal) made when first needed.
    It also keeps the image of each locus power L^-e it has substituted,
    so values over one locus apply the table to it and invert the image
    once."""

    __slots__ = ("_series", "_loci")
    kind = LocalizedPoly

    def __init__(self, assignment):
        super().__init__(assignment)
        self._series = {}  # (var, +1 or -1) -> _soul_powers(value^(+-1))
        self._loci = {}  # (locus, e) -> image of L^e

    def locus_power(self, locus: Locus, e: int):
        """The image of L^e for the locus L."""
        key = (locus, e)
        if key not in self._loci:
            self._loci[key] = self.apply(locus.poly) ** e
        return self._loci[key]

    def power(self, v: VarSymbol, e: int):
        if -2 < e < 2:
            return super().power(v, e)
        key = (v, 1 if e > 0 else -1)
        if key not in self._series:
            self._series[key] = _soul_powers(super().power(v, key[1]))
        series = self._series[key]
        return super().power(v, e) if series is None else series(abs(e))


def substitute_localized(p: SuperPoly, assignment) -> LocalizedPoly:
    """Substitute LocalizedPoly values into a SuperPoly, term by term.

    `assignment` is a map {variable: value} or a `PowerTable`.  Factors
    multiply in the monomial's canonical variable order, which keeps the
    Koszul signs consistent with `SuperPoly.substitute`.
    """
    return PowerTable.of(assignment).apply(p)
