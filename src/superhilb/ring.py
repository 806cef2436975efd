"""Exact arithmetic in supercommutative polynomial rings.

Coefficients are exact rationals (`fractions.Fraction`); there is no
floating point anywhere.  Monomials keep their variables in a single
global order (by name) with the Koszul sign of any reordering absorbed
into the coefficient, so equality of polynomials is equality of term
maps.  All values are immutable after construction and every operation
is a pure function, safe for unrestricted concurrent use.

The jobs shared with `superhilb.localized` live here once, for both
value types: `PowerTable` substitutes (its `apply`), `_power` builds every
positive power, and `soul_series` inverts a unit through its soul.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import (
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    NotAUnit,
    ParityMismatch,
)


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1

    def __mul__(self, other):
        return Parity((self.value + other.value) % 2)


class ParityClass(enum.Enum):
    """Parity of a polynomial; zero counts as even, MIXED is inhomogeneous."""

    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


class VarSymbol:
    """Interned variable symbol: equal (name, parity, invertible) triples
    are the same object, so hashing and comparison go by identity."""

    __slots__ = ("name", "parity", "invertible")
    _intern: dict = {}

    def __new__(cls, name, parity, invertible=False):
        key = (name, parity, invertible)
        obj = cls._intern.get(key)
        if obj is None:
            if invertible and parity is Parity.ODD:
                raise InvertibleOddVariable(
                    f"odd variable {name!r} cannot be invertible"
                )
            obj = object.__new__(cls)
            obj.name = name
            obj.parity = parity
            obj.invertible = invertible
            cls._intern[key] = obj
        return obj

    def __repr__(self):
        tag = "even" if self.parity is Parity.EVEN else "odd"
        inv = " inv" if self.invertible else ""
        return f"<{tag} {self.name}{inv}>"


def even(name: str, invertible: bool = False) -> VarSymbol:
    return VarSymbol(name, Parity.EVEN, invertible)


def odd(name: str) -> VarSymbol:
    return VarSymbol(name, Parity.ODD)


def _inversions(left, right):
    """Number of pairs (u, v) in left x right with u.name > v.name."""
    count = 0
    for u in left:
        for v in right:
            if u.name > v.name:
                count += 1
    return count


class SuperMonomial:
    """Product of variable powers, stored sorted by variable name.

    Odd exponents are exactly 0 or 1; negative exponents are only legal
    on invertible variables.  Instances are immutable with a cached hash.
    """

    __slots__ = ("factors", "odds", "_hash")

    def __init__(self, factors: tuple):
        self.factors = factors
        self.odds = tuple(v for v, _ in factors if v.parity is Parity.ODD)
        self._hash = hash(factors)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SuperMonomial):
            return NotImplemented
        return self._hash == other._hash and self.factors == other.factors

    @staticmethod
    def make(exponents) -> "SuperMonomial":
        items = []
        for v, e in exponents.items():
            if e == 0:
                continue
            if v.parity is Parity.ODD and e != 1:
                raise ValueError(f"odd variable {v.name} with exponent {e}")
            if e < 0 and not v.invertible:
                raise NegativePowerOfNonInvertible(
                    f"negative power of non-invertible variable {v.name}"
                )
            items.append((v, e))
        items.sort(key=lambda it: it[0].name)
        return SuperMonomial(tuple(items))

    @staticmethod
    def one() -> "SuperMonomial":
        return _MONOMIAL_ONE

    @property
    def is_one(self) -> bool:
        return not self.factors

    def exponent(self, var: VarSymbol) -> int:
        for v, e in self.factors:
            if v is var:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.factors)

    def odd_variables(self):
        return self.odds

    def parity(self) -> Parity:
        return Parity(len(self.odds) % 2)

    def total_degree(self) -> int:
        return sum(e for _, e in self.factors)

    def mul(self, other: "SuperMonomial"):
        """Product with Koszul sign; returns (sign, monomial) or None if zero."""
        o1 = self.odds
        o2 = other.odds
        if o1 and o2:
            if set(o1) & set(o2):
                return None
            sign = -1 if _inversions(o1, o2) % 2 else 1
        else:
            sign = 1
        f1, f2 = self.factors, other.factors
        if not f1:
            return sign, other
        if not f2:
            return sign, self
        merged = []
        i = j = 0
        n1, n2 = len(f1), len(f2)
        while i < n1 and j < n2:
            v1, e1 = f1[i]
            v2, e2 = f2[j]
            if v1 is v2:
                e = e1 + e2
                if e:
                    merged.append((v1, e))
                i += 1
                j += 1
            elif v1.name < v2.name:
                merged.append(f1[i])
                i += 1
            elif v1.name > v2.name:
                merged.append(f2[j])
                j += 1
            else:
                raise ValueError(
                    f"distinct variables share the name {v1.name!r}"
                )
        merged.extend(f1[i:])
        merged.extend(f2[j:])
        return sign, SuperMonomial(tuple(merged))

    def split(self, split_vars):
        """Split into (rest, sub, sign) with sub over split_vars.

        The sign is such that rest * sub == sign * self as ring elements.
        """
        sub = []
        rest = []
        for item in self.factors:
            if item[0] in split_vars:
                sub.append(item)
            else:
                rest.append(item)
        rest_m = SuperMonomial(tuple(rest))
        sub_m = SuperMonomial(tuple(sub))
        inv = _inversions(rest_m.odds, sub_m.odds)
        return rest_m, sub_m, (-1 if inv % 2 else 1)

    def __repr__(self):
        if not self.factors:
            return "1"
        return "*".join(
            f"{v.name}^{e}" if e != 1 else v.name for v, e in self.factors
        )


_MONOMIAL_ONE = SuperMonomial(())


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class SuperPoly:
    """Finite sum of monomials with exact rational coefficients.

    The term map is the normal form: two polynomials are equal iff their
    maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _frac(c)
                if c != 0:
                    clean[m] = c
        self._terms = clean

    @staticmethod
    def _of(terms: dict) -> "SuperPoly":
        """Wrap a term map that already holds only nonzero Fractions."""
        out = SuperPoly.__new__(SuperPoly)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "SuperPoly":
        return _ZERO

    @staticmethod
    def one() -> "SuperPoly":
        return _ONE

    @staticmethod
    def const(c) -> "SuperPoly":
        return SuperPoly({SuperMonomial.one(): _frac(c)})

    @staticmethod
    def var(v: VarSymbol, exp: int = 1) -> "SuperPoly":
        if exp == 0:
            return _ONE
        return SuperPoly({SuperMonomial.make({v: exp}): Fraction(1)})

    @staticmethod
    def sum(polys) -> "SuperPoly":
        """Sum in one pass over the terms, in time linear in their number."""
        out = {}
        for poly in polys:
            for mono, coeff in poly._terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return SuperPoly(out)

    @staticmethod
    def promote(x) -> "SuperPoly":
        if isinstance(x, SuperPoly):
            return x
        if isinstance(x, VarSymbol):
            return SuperPoly.var(x)
        return SuperPoly.const(x)

    # -- inspection --------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def as_constant(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and SuperMonomial.one() in self._terms:
            return self._terms[SuperMonomial.one()]
        raise ValueError(f"not a constant: {self!r}")

    def parity_class(self) -> ParityClass:
        seen = set()
        for m in self._terms:
            seen.add(m.parity())
            if len(seen) == 2:
                return ParityClass.MIXED
        if not seen or seen == {Parity.EVEN}:
            return ParityClass.EVEN
        return ParityClass.ODD

    def variables(self):
        out = set()
        for m in self._terms:
            out.update(m.variables())
        return out

    def odd_variables(self):
        out = set()
        for m in self._terms:
            out.update(m.odd_variables())
        return out

    def bosonic(self) -> "SuperPoly":
        """The part of the polynomial free of odd variables."""
        return SuperPoly(
            {m: c for m, c in self._terms.items() if not m.odd_variables()}
        )

    def soul(self) -> "SuperPoly":
        return SuperPoly(
            {m: c for m, c in self._terms.items() if m.odd_variables()}
        )

    def degree_in(self, var: VarSymbol):
        """Max exponent of var over the support; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(m.exponent(var) for m in self._terms)

    def min_degree_in(self, var: VarSymbol):
        if not self._terms:
            return None
        return min(m.exponent(var) for m in self._terms)

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.const(other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        other = SuperPoly.promote(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        get = out.get
        for m, c in other._terms.items():
            s = get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return SuperPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-SuperPoly.promote(other))

    def __rsub__(self, other):
        return SuperPoly.promote(other) + (-self)

    def __mul__(self, other):
        other = SuperPoly.promote(other)
        if not self._terms or not other._terms:
            return _ZERO
        out = {}
        get = out.get
        rhs = other._terms.items()
        for m1, c1 in self._terms.items():
            mul = m1.mul
            for m2, c2 in rhs:
                prod = mul(m2)
                if prod is None:
                    continue
                sign, m = prod
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                s = get(m)
                if s is None:
                    out[m] = c
                else:
                    s += c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return SuperPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return _power({0: _ONE, 1: self}, n)

    def reciprocal(self) -> "SuperPoly":
        """The inverse of a unit, by `invert`; NotAUnit otherwise."""
        return invert(self)

    # -- structure ---------------------------------------------------

    def as_coeff_map(self, split_vars):
        """View the polynomial in split_vars with coefficients elsewhere.

        Returns {sub_monomial: coefficient}, where sum(coeff * sub) == self
        with the coefficient multiplying from the left.
        """
        split_vars = set(split_vars)
        out = {}
        for m, c in self._terms.items():
            # m is rest * sub up to sign, so no two terms share a bucket slot
            rest, sub, sign = m.split(split_vars)
            out.setdefault(sub, {})[rest] = c if sign > 0 else -c
        return {sub: SuperPoly._of(terms) for sub, terms in out.items()}

    def coeff_of(self, sub_monomial: SuperMonomial, split_vars) -> "SuperPoly":
        return self.as_coeff_map(split_vars).get(sub_monomial, _ZERO)

    def substitute(self, assignment) -> "SuperPoly":
        """Apply the ring homomorphism sending each variable to its value.

        Unassigned variables map to themselves.  Values must match the
        variable's parity; negative powers of a replaced invertible
        variable resolve through `invert`.  `assignment` may already be
        a `PowerTable`.
        """
        return PowerTable.of(assignment).apply(self)

    def diff(self, var: VarSymbol) -> "SuperPoly":
        """Formal partial derivative with respect to an even variable."""
        if var.parity is not Parity.EVEN:
            raise ParityMismatch("diff is only defined for even variables")
        out = {}
        for m, c in self._terms.items():
            e = m.exponent(var)
            if e == 0:
                continue
            exps = {v: k for v, k in m.factors}
            exps[var] = e - 1
            # m -> m / var is injective, so every monomial appears once
            out[SuperMonomial.make(exps)] = c * e
        return SuperPoly._of(out)

    def __repr__(self):
        from .parser import pretty

        return f"SuperPoly({pretty(self)})"


_ZERO = SuperPoly()
_ONE = SuperPoly.const(1)


def invert(p: SuperPoly) -> SuperPoly:
    """Inverse of a unit u*(1 + n): single invertible monomial times
    a nonzero rational, plus a nilpotent part.

    Computed as u^{-1} * sum((-n)^j), a finite geometric series since
    every term of n carries an odd variable.
    """
    body = [(m, c) for m, c in p.terms.items() if not m.odd_variables()]
    if not body:
        raise NotAUnit("zero constant part: every term is nilpotent")
    if len(body) > 1:
        raise NotAUnit("more than one non-nilpotent term")
    m0, c0 = body[0]
    if any(not v.invertible for v in m0.variables()):
        raise NotAUnit(
            f"unit part {m0!r} involves a variable not declared invertible"
        )
    u_inv = SuperPoly(
        {SuperMonomial.make({v: -e for v, e in m0.factors}): Fraction(1) / c0}
    )
    return soul_series(u_inv, -p.soul())


def soul_series(body_inv, neg_soul):
    """1/(B + N) = sum (-N)^j B^-(j+1) from B^-1 and -N, for an even
    nilpotent soul N; the series ends at the first zero term, which comes
    once j exceeds half the number of odd variables.  The values are
    SuperPolys or LocalizedPolys, and the sum is of their type."""
    if neg_soul.is_zero():
        return body_inv
    term, terms = body_inv, []
    while not term.is_zero():
        terms.append(term)
        term = term * neg_soul * body_inv
    return type(body_inv).sum(terms)


def _power(built: dict, n: int):
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


class PowerTable:
    """The values of one assignment and the powers of them built so far.

    Substitutions through one table share its powers: each rep^e is built
    once, from the nearest power already in the table (`_power`), and
    every negative power is a power of one cached reciprocal.  Values are
    promoted to `kind`, the type `apply` returns.  The table holds only
    values derived from the assignment and lives as long as its holder
    keeps it; a changed value needs a new table.
    """

    __slots__ = ("values", "_powers")
    kind = SuperPoly

    def __init__(self, assignment):
        values = {v: self.kind.promote(val) for v, val in assignment.items()}
        for v, val in values.items():
            if val.is_zero():
                continue
            want = ParityClass.EVEN if v.parity is Parity.EVEN else ParityClass.ODD
            if val.parity_class() is not want:
                raise ParityMismatch(
                    f"replacement for {v.name} has parity "
                    f"{val.parity_class().value}, expected {want.value}"
                )
        self.values = values
        self._powers = {}  # (var, +1 or -1) -> {n: value^(+-n)}

    @classmethod
    def of(cls, assignment) -> "PowerTable":
        if isinstance(assignment, cls):
            return assignment
        return cls(assignment)

    def power(self, v: VarSymbol, e: int):
        """rep^e for the value rep of v."""
        sign = 1 if e >= 0 else -1
        built = self._powers.get((v, sign))
        if built is None:
            base = self.values[v]
            built = {0: self.kind.promote(1),
                     1: base if sign > 0 else base.reciprocal()}
            self._powers[(v, sign)] = built
        return _power(built, abs(e))

    def apply(self, p: SuperPoly):
        """p with the values substituted, term by term; factors multiply
        in the monomial's canonical variable order, which keeps the
        Koszul signs, and the terms are summed in one pass."""
        kind, values = self.kind, self.values
        terms = []
        for m, c in p.terms.items():
            acc = kind.promote(c)
            for v, e in m.factors:
                acc = acc * (self.power(v, e) if v in values
                             else kind.promote(SuperPoly.var(v, e)))
            terms.append(acc)
        return kind.sum(terms)
