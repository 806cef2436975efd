"""Exact arithmetic in supercommutative polynomial rings.

A `SuperPoly` is stored by its odd expansion f = sum_I f_I theta^I as a
map {odd bitmask I: {packed bosonic exponents: coefficient}}.  Every
variable gets an index when it is interned, odd and even variables
counted apart.  Bit i of a mask is the odd variable of index i, and
theta^I is the product of those variables in ascending index order.  The
exponents of the even variables pack into one int, sum e_i * 2^(16 i),
each field a balanced digit in [-2^15, 2^15), so the product of two
monomials adds their keys.  Coefficients are `int` while integral and
`fractions.Fraction` otherwise; there is no floating point anywhere.  The
map is the normal form, so equality of polynomials is equality of maps.

A product visits only pairs of disjoint masks (theta^I theta^J = 0 when
I & J), with the Koszul sign of theta^I theta^J -> theta^(I|J) taken from
popcounts of I above each bit of J.  |exponent| <= `EXPONENT_LIMIT`: a
product checks once, from its operands' exponent bounds (per variable
near the limit), that its keys cannot overflow, and raises
`ExponentOverflow` otherwise; `from_products` builds parsed terms.
`dot` sums products in the same loop over integer numerators on one
common denominator, so a sum of Fraction-bearing products makes each
coefficient once instead of adding Fractions term by term.

Index order is intern order, not name order.  The engines read a
polynomial only through `coefficients`, in the variable order they give,
and build sums of monomials through `from_products`.  The name-ordered
views carry the sign of reordering the odd variables by name: `terms`
(keyed by `SuperMonomial`), `named_terms` and `as_coeff_map`, and
`named_rows`, which lays a polynomial out once for `named_terms` and the
printer.  They serve the printer, the tests and the public API, and build
`SuperMonomial`s only on demand.  Two distinct variables of one name
(`x` and an invertible `x`) have no name order, so those views, through
`_name_layout` and `SuperMonomial.make`, raise `ValueError` on a value
holding both; arithmetic goes by symbol and stays exact on it.
All values are immutable after construction (the caches, `dot`'s
numerators of an operand and the name layouts of `named_rows`, are
derived from values and symbols and written whole)
and every operation is a pure function, safe for unrestricted concurrent
use.

The jobs shared with `superhilb.localized` live here once, for both
value types: `PowerTable` substitutes (its `apply`), `_power` builds every
positive power, and `soul_series` inverts a unit through its soul.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import lcm
from operator import attrgetter, itemgetter, or_
from struct import Struct

from .errors import (
    ExponentOverflow,
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    NotAUnit,
    ParityMismatch,
)

_WIDTH = 16  # bits per packed exponent
_HALF = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
EXPONENT_LIMIT = _HALF - 1  # the largest |exponent| a packed key holds


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1


class ParityClass(enum.Enum):
    """Parity of a polynomial; zero counts as even, MIXED is inhomogeneous."""

    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


class VarSymbol:
    """Interned variable symbol: equal (name, parity, invertible) triples
    are the same object, so hashing and comparison go by identity.  Its
    `index` is its bit (odd) or its packed field (even)."""

    __slots__ = ("name", "parity", "invertible", "index")
    _intern: dict = {}
    _evens: list = []  # even variables by index
    _odds: list = []  # odd variables by index
    _bias = 0  # _HALF in the field of every even variable
    _lock = threading.Lock()

    def __new__(cls, name, parity, invertible=False):
        key = (name, parity, invertible)
        obj = cls._intern.get(key)
        if obj is not None:
            return obj
        if invertible and parity is Parity.ODD:
            raise InvertibleOddVariable(
                f"odd variable {name!r} cannot be invertible"
            )
        with cls._lock:  # one symbol and one index per key, across threads
            obj = cls._intern.get(key)
            if obj is None:
                obj = object.__new__(cls)
                obj.name = name
                obj.parity = parity
                obj.invertible = invertible
                table = cls._odds if parity is Parity.ODD else cls._evens
                obj.index = len(table)
                table.append(obj)
                if parity is Parity.EVEN:
                    cls._bias += _HALF << (_WIDTH * obj.index)
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


# -- packed keys and masks ----------------------------------------------


def _field(key: int, var: VarSymbol) -> int:
    """The exponent of the even variable var in a packed key."""
    return (((key + VarSymbol._bias) >> (_WIDTH * var.index)) & _FIELD) - _HALF


def _even_factors(key: int) -> list:
    """[(variable, exponent)] for the nonzero fields of a packed key, in
    index order: with the bias added and xor-ed back, field i holds e_i
    modulo 2^16, and only the nonzero fields are visited."""
    evens, bias = VarSymbol._evens, VarSymbol._bias
    rest, out = (key + bias) ^ bias, []
    while rest:
        shift = ((rest & -rest).bit_length() - 1) // _WIDTH * _WIDTH
        f = (rest >> shift) & _FIELD
        out.append((evens[shift // _WIDTH], f - ((f & _HALF) << 1)))
        rest ^= f << shift
    return out


@lru_cache(maxsize=1024)
def _name_layout(masks: tuple, support: int):
    """(variables, read, fields, odd): the layout of a polynomial with
    these odd masks and `_support`.  `fields` is the Struct of its 16-bit
    exponent fields, even variable i in field i and odd one i in field
    width + i above them; `read` picks the fields of `variables`, sorted
    by name; `odd` maps each mask to its odd fields set to 1 and to 1
    when ordering its variables by name flips the sign, else 0.  Cached
    and read-only: a pure function of interned symbols.  ValueError when
    two of the variables share a name."""
    evens = [v for v in VarSymbol._evens if support >> (_WIDTH * v.index)
             & _FIELD]
    width = evens[-1].index + 1 if evens else 0
    odd_mask = reduce(or_, masks, 0)
    variables = tuple(sorted(_odd_vars(odd_mask) + evens,
                             key=attrgetter("name")))
    _distinct_names(variables)
    order = [v.index + width * v.parity.value for v in variables]
    read = itemgetter(*order) if len(order) > 1 else itemgetter(
        slice(order[0], order[0] + 1) if order else slice(0))
    odd = {}
    for mask in masks:
        present = [v for v in variables
                   if v.parity is Parity.ODD and mask >> v.index & 1]
        odd[mask] = (sum(1 << (_WIDTH * (width + v.index)) for v in present),
                     _order_flips(present))
    return (variables, read, Struct(f"<{width + odd_mask.bit_length()}h"),
            odd)


def _odd_vars(mask: int) -> list:
    """The odd variables of a mask in ascending index order."""
    odds, out = VarSymbol._odds, []
    while mask:
        low = mask & -mask
        out.append(odds[low.bit_length() - 1])
        mask ^= low
    return out


def _flips(a: int, b: int) -> int:
    """1 when theta^a theta^b == -theta^(a|b), else 0: the parity of the
    pairs (i in a, j in b) with i > j, a popcount of a above each bit of b."""
    n = 0
    while b:
        low = b & -b
        n += (a & -(low << 1)).bit_count()
        b ^= low
    return n & 1


def _order_flips(odd_vars) -> int:
    """1 when the product of odd_vars in the given order is -theta^I, I
    their mask, else 0: the parity of the inversions of their indices."""
    idx = [v.index for v in odd_vars]
    return sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:]) & 1


def _by_name(factor):
    return factor[0].name


def _distinct_names(variables):
    """ValueError when two of variables, sorted by name, share a name:
    no name order places them, so no name-ordered view can hold both."""
    for u, v in zip(variables, variables[1:]):
        if u.name == v.name:
            raise ValueError(f"distinct variables share the name {u.name!r}")


def _coeff(x):
    """x as a coefficient: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _checked(v: VarSymbol, e: int) -> int:
    """e, a nonzero exponent of v; raises when it is not a legal one."""
    if v.parity is Parity.ODD and e != 1:
        raise ValueError(f"odd variable {v.name} with exponent {e}")
    if e < 0 and not v.invertible:
        raise NegativePowerOfNonInvertible(
            f"negative power of non-invertible variable {v.name}"
        )
    if abs(e) > EXPONENT_LIMIT:
        raise _overflow(e)
    return e


def _overflow(e: int) -> ExponentOverflow:
    return ExponentOverflow(
        f"exponent {e} is beyond the packed range |e| <= {EXPONENT_LIMIT}"
    )


def _cleaned(parts: dict) -> dict:
    """parts without zero coefficients or empty masks, integral Fractions
    made ints."""
    out = {}
    for mask, part in parts.items():
        part = {k: (c.numerator if type(c) is Fraction and c.denominator == 1
                    else c)
                for k, c in part.items() if c}
        if part:
            out[mask] = part
    return out


def _bound_of(polys) -> int:
    """A bound on the |exponents| of a product of polys: the sum of their
    bounds, or past EXPONENT_LIMIT the sums of each even variable's least
    and largest exponents (0 included), raising ExponentOverflow."""
    bound = sum(p._bound for p in polys)
    if bound > EXPONENT_LIMIT:
        low, high = Counter(), Counter()
        for p in polys:
            lo, hi = {}, {}
            for v, e in (f for part in p._parts.values() for k in part
                         for f in _even_factors(k)):
                lo[v], hi[v] = min(lo.get(v, 0), e), max(hi.get(v, 0), e)
            p._bound = max(map(abs, (*lo.values(), *hi.values())), default=0)
            low.update(lo)
            high.update(hi)
        bound = max(map(abs, (*low.values(), *high.values())), default=0)
        if bound > EXPONENT_LIMIT:
            raise _overflow(bound)
    return bound


# -- the boundary key type ----------------------------------------------


class SuperMonomial:
    """A monomial as a key of `SuperPoly.terms`: its (variable, exponent)
    factors sorted by variable name.

    Odd exponents are exactly 0 or 1; negative exponents are only legal
    on invertible variables.  Instances are immutable with a cached hash.
    Built on demand by the name-ordered views; no ring operation makes one.
    """

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: tuple):
        self.factors = factors
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
        items = sorted(((v, _checked(v, e)) for v, e in exponents.items()
                        if e), key=_by_name)
        _distinct_names([v for v, _ in items])
        return SuperMonomial(tuple(items))

    def exponent(self, var: VarSymbol) -> int:
        for v, e in self.factors:
            if v is var:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.factors)

    def odd_variables(self):
        return tuple(v for v, _ in self.factors if v.parity is Parity.ODD)

    def parity(self) -> Parity:
        return Parity(len(self.odd_variables()) % 2)

    def __repr__(self):
        return _product_text(self.factors)


def _product_text(factors) -> str:
    """v1^e1*v2*... for (variable, exponent) factors, "1" for none."""
    if not factors:
        return "1"
    return "*".join(f"{v.name}^{e}" if e != 1 else v.name for v, e in factors)


class _Terms(Mapping):
    """The {SuperMonomial: Fraction} view of a SuperPoly; its length is
    the term count, and the map is built on first use."""

    __slots__ = ("_poly", "_map")

    def __init__(self, poly):
        self._poly, self._map = poly, None

    def _built(self) -> dict:
        if self._map is None:
            self._map = {SuperMonomial(f): Fraction(c)
                         for f, c in self._poly.named_terms()}
        return self._map

    def __len__(self):
        return sum(map(len, self._poly._parts.values()))

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, mono):
        return self._built()[mono]

    def __repr__(self):
        return repr(self._built())


# -- polynomials --------------------------------------------------------


class SuperPoly:
    """Finite sum of monomials with exact rational coefficients.

    `_parts` is the normal form {odd mask: {packed key: coefficient}}
    with no zero coefficient and no empty part; `_bound` bounds the
    |exponents| of its keys; `_scaled`, set when `dot` first reads the
    polynomial, caches its integer numerators and their denominator.
    """

    __slots__ = ("_parts", "_bound", "_scaled")

    def __init__(self, terms=None):
        """The polynomial of a {SuperMonomial: coefficient} map."""
        p = SuperPoly.from_products((_coeff(c), m.factors)
                                    for m, c in (terms or {}).items())
        self._parts, self._bound = p._parts, p._bound

    @staticmethod
    def _of(parts: dict, bound: int) -> "SuperPoly":
        """Wrap parts already in normal form."""
        out = SuperPoly.__new__(SuperPoly)
        out._parts, out._bound = parts, bound
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
        c = _coeff(c)
        return SuperPoly._of({0: {0: c}}, 0) if c else _ZERO

    @staticmethod
    def var(v: VarSymbol, exp: int = 1) -> "SuperPoly":
        if exp == 0:
            return _ONE
        _checked(v, exp)
        if v.parity is Parity.ODD:
            return SuperPoly._of({1 << v.index: {0: 1}}, 0)
        return SuperPoly._of({0: {exp << (_WIDTH * v.index): 1}}, abs(exp))

    @staticmethod
    def sum(polys) -> "SuperPoly":
        """Sum in one pass over the terms, in time linear in their number.
        A part met once is shared, one met again is copied once; a sum of
        zero keeps its place until the end drops it."""
        out, bound, owned, zeroed = {}, 0, set(), set()
        for poly in polys:
            if poly._bound > bound:
                bound = poly._bound
            if not out:
                out.update(poly._parts)
                continue
            for mask, part in poly._parts.items():
                acc = out.get(mask)
                if acc is None:
                    out[mask] = part
                    continue
                if mask not in owned:
                    owned.add(mask)
                    acc = out[mask] = dict(acc)
                get = acc.get
                for k, c in part.items():
                    s = get(k)
                    if s is None:
                        acc[k] = c
                        continue
                    s += c
                    if not s:
                        zeroed.add(mask)
                    elif type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    acc[k] = s
        for mask in zeroed:
            part = {k: c for k, c in out[mask].items() if c}
            if part:
                out[mask] = part
            else:
                del out[mask]
        return SuperPoly._of(out, bound)

    @staticmethod
    def from_products(pairs) -> "SuperPoly":
        """Sum of c * v1^e1 * v2^e2 * ... over pairs (c, [(v1, e1), ...]),
        factors in written order: odd variables (exponent 1) OR into the
        mask with the reordering sign from popcounts, zero on a repeat;
        each even variable's exponents are summed, in a dict made only
        for a term that has one.  Only what can be illegal is checked: an
        odd exponent other than 1, an even sum < 0 or > EXPONENT_LIMIT."""
        out, bound, odd = {}, 0, Parity.ODD
        for c, factors in pairs:
            mask, flips, key, evens = 0, 0, 0, None
            for v, e in factors:
                if v.parity is odd:
                    if e != 1:
                        _checked(v, e)
                    bit = 1 << v.index
                    if mask & bit:
                        c = 0
                    flips += (mask & -(bit << 1)).bit_count()
                    mask |= bit
                elif evens is None:
                    evens = {v: e}
                else:
                    evens[v] = evens.get(v, 0) + e
            for v, e in evens.items() if evens else ():
                if e < 0 or e > EXPONENT_LIMIT:
                    _checked(v, e)
                key += e << (_WIDTH * v.index)
                bound = max(bound, abs(e))
            if c:
                part = out.setdefault(mask, {})
                part[key] = part.get(key, 0) + (-c if flips & 1 else c)
        return SuperPoly._of(_cleaned(out), bound)

    @staticmethod
    def dot(pairs) -> "SuperPoly":
        """sum(a * b for a, b in pairs) in one accumulation.  Each operand
        becomes integer numerators over its denominator, the lcm of its
        coefficients' ones; the products then run on ints over D, the lcm
        of the pairs' denominator products, and each coefficient of the
        sum is made once, an int or a Fraction over D."""
        scaled, bound = [], 0
        for a, b in pairs:
            a, b = SuperPoly.promote(a), SuperPoly.promote(b)
            if a._parts and b._parts:
                bound = max(bound, _bound_of((a, b)))
                (da, na), (db, nb) = _numerators(a), _numerators(b)
                scaled.append((da * db, na, nb))
        common = lcm(*(d for d, _, _ in scaled))
        out = {}
        for d, na, nb in scaled:
            if d != common:
                f = common // d
                na = {m: {k: f * n for k, n in part.items()}
                      for m, part in na.items()}
            _multiply_into(out, na, nb)
        for m, part in list(out.items()):
            if not part:
                del out[m]
            elif common != 1:
                for k, n in part.items():
                    part[k] = (n // common if not n % common
                               else Fraction(n, common))
        return SuperPoly._of(out, bound)

    @staticmethod
    def promote(x) -> "SuperPoly":
        if isinstance(x, SuperPoly):
            return x
        return (SuperPoly.var(x) if isinstance(x, VarSymbol)
                else SuperPoly.const(x))


    # -- inspection --------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """{SuperMonomial: coefficient}, the monomials in name order."""
        return _Terms(self)

    def named_rows(self):
        """(variables, rows): the variables sorted by name, and per term a
        row (exponents in that order, coefficient for that order).  The
        exponents are read at once as 16-bit ints: the key's fields in
        two's complement, and above them one field per odd variable."""
        variables, read, fields, odd = _name_layout(tuple(self._parts),
                                                    self._support()[1])
        unpack, size, bias = fields.unpack, fields.size, VarSymbol._bias
        rows = []
        for mask, part in self._parts.items():
            high, flip = odd[mask]
            rows += [(read(unpack(((key + bias) ^ bias | high).to_bytes(
                          size, "little"))), -c if flip else c)
                     for key, c in part.items()]
        return variables, rows

    def named_terms(self) -> list:
        """[(factors, coefficient)]: each term's (variable, exponent)
        factors in name order and its coefficient for that order."""
        variables, rows = self.named_rows()
        return [(tuple(compress(zip(variables, exps), exps)), c)
                for exps, c in rows]

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self):
        return bool(self._parts)

    def as_constant(self) -> Fraction:
        parts = self._parts
        if not parts:
            return Fraction(0)
        if len(parts) == 1 and len(parts.get(0, ())) == 1 and 0 in parts[0]:
            return Fraction(parts[0][0])
        raise ValueError(f"not a constant: {self!r}")

    def parity_class(self) -> ParityClass:
        seen = {mask.bit_count() & 1 for mask in self._parts}
        if len(seen) == 2:
            return ParityClass.MIXED
        return ParityClass.ODD if seen == {1} else ParityClass.EVEN

    def variables(self):
        odds, evens = self._support()
        return set(_odd_vars(odds)).union(
            v for v in VarSymbol._evens
            if evens >> (_WIDTH * v.index) & _FIELD)

    def odd_variables(self):
        mask = 0
        for m in self._parts:
            mask |= m
        return set(_odd_vars(mask))

    def bosonic(self) -> "SuperPoly":
        """The part of the polynomial free of odd variables."""
        part = self._parts.get(0)
        return SuperPoly._of({0: part}, self._bound) if part else _ZERO

    def soul(self) -> "SuperPoly":
        return SuperPoly._of(
            {m: p for m, p in self._parts.items() if m}, self._bound
        )

    def by_odd_degree(self) -> dict:
        """{d: the terms with d odd variables}."""
        out = {}
        for mask, part in self._parts.items():
            out.setdefault(mask.bit_count(), {})[mask] = part
        return {d: SuperPoly._of(parts, self._bound)
                for d, parts in out.items()}

    def _exponents_of(self, var: VarSymbol):
        if var.parity is Parity.ODD:
            bit = 1 << var.index
            return [1 if mask & bit else 0 for mask in self._parts]
        return [_field(k, var) for part in self._parts.values() for k in part]

    def degree_in(self, var: VarSymbol):
        """Max exponent of var over the support; None for the zero polynomial."""
        return max(self._exponents_of(var)) if self._parts else None

    def min_degree_in(self, var: VarSymbol):
        return min(self._exponents_of(var)) if self._parts else None

    def _support(self):
        """(odd mask, even support): bit i of the mask is set when the odd
        variable of index i occurs, field i of the support is nonzero when
        the even one does (its exponent field minus the bias, bitwise)."""
        bias = VarSymbol._bias
        odds = evens = 0
        for mask, part in self._parts.items():
            odds |= mask
            for k in part:
                evens |= (k + bias) ^ bias
        return odds, evens

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return self._parts == other._parts

    __hash__ = None

    def __add__(self, other):
        if type(other) is not SuperPoly:
            other = _operand(other)
            if other is NotImplemented:
                return other
        return SuperPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._of(
            {m: {k: -c for k, c in part.items()}
             for m, part in self._parts.items()},
            self._bound,
        )

    def __sub__(self, other):
        if type(other) is not SuperPoly:
            other = _operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return SuperPoly.promote(other) + (-self)

    def __mul__(self, other):
        if type(other) is not SuperPoly:
            other = _operand(other)
            if other is NotImplemented:
                return other
        if not self._parts or not other._parts:
            return _ZERO
        bound = self._bound + other._bound
        if bound > EXPONENT_LIMIT:
            bound = _bound_of((self, other))
        out = {}
        _multiply_into(out, self._parts, other._parts)
        for m, part in list(out.items()):
            if not part:
                del out[m]
                continue
            for k, c in part.items():
                if type(c) is Fraction and c.denominator == 1:
                    part[k] = c.numerator
        return SuperPoly._of(out, bound)

    def __rmul__(self, other):
        return SuperPoly.promote(other) * self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError(f"exponent is not an int: {n!r}")
        if n < 0:
            return self.reciprocal() ** (-n)
        return _power({0: _ONE, 1: self}, n)

    def reciprocal(self) -> "SuperPoly":
        """The inverse of a unit, by `invert`; NotAUnit otherwise."""
        return invert(self)

    # -- structure ---------------------------------------------------

    def coefficients(self, variables) -> dict:
        """{exponents: coefficient} with self == sum(coefficient * m),
        where m is the product of v^e over `variables` in the given order
        and the coefficient, free of those variables, multiplies from the
        left; the exponents are listed in the same order."""
        variables = tuple(variables)
        split = 0
        for v in variables:
            if v.parity is Parity.ODD:
                split |= 1 << v.index
        spec = [(v.parity is Parity.ODD, v.index, _WIDTH * v.index)
                for v in variables]
        bias = VarSymbol._bias
        out = {}
        for mask, part in self._parts.items():
            sub, rest = mask & split, mask & ~split
            flip = _flips(rest, sub) ^ _order_flips(
                [v for v in variables
                 if v.parity is Parity.ODD and sub >> v.index & 1])
            for key, c in part.items():
                u = key + bias
                exps, sub_key = [], 0
                for is_odd, index, shift in spec:
                    if is_odd:
                        exps.append(mask >> index & 1)
                    else:
                        e = ((u >> shift) & _FIELD) - _HALF
                        exps.append(e)
                        sub_key += e << shift
                rest_parts = out.setdefault(tuple(exps), {})
                rest_parts.setdefault(rest, {})[key - sub_key] = (
                    -c if flip else c)
        return {exps: SuperPoly._of(parts, self._bound)
                for exps, parts in out.items()}

    def as_coeff_map(self, split_vars):
        """View the polynomial in split_vars with coefficients elsewhere.

        Returns {sub_monomial: coefficient}, where sum(coeff * sub) == self
        with the coefficient multiplying from the left.
        """
        order = sorted(split_vars, key=lambda v: v.name)
        return {SuperMonomial.make(dict(zip(order, exps))): coeff
                for exps, coeff in self.coefficients(order).items()}

    def coeff_of(self, sub_monomial: SuperMonomial, split_vars) -> "SuperPoly":
        return self.as_coeff_map(split_vars).get(sub_monomial, _ZERO)

    def content(self):
        """(exponents, rest): the least exponent of each even variable over
        the terms, as {variable: e} for e != 0, and self divided by their
        monomial, whose exponents reach each variable's largest minus its
        least; ExponentOverflow when that is out of range."""
        seen = {v: self._exponents_of(v) for v in self.variables()
                if v.parity is Parity.EVEN}
        exps = {v: min(es) for v, es in seen.items() if min(es)}
        bound = max((max(es) - min(es) for es in seen.values()), default=0)
        if bound > EXPONENT_LIMIT:
            raise _overflow(bound)
        shift = sum(e << (_WIDTH * v.index) for v, e in exps.items())
        return exps, SuperPoly._of(
            {m: {k - shift: c for k, c in part.items()}
             for m, part in self._parts.items()}, bound)

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
        unit = 1 << (_WIDTH * var.index)
        out = {}
        for mask, part in self._parts.items():
            terms = {}
            for k, c in part.items():
                e = _field(k, var)
                if e == -EXPONENT_LIMIT:
                    raise _overflow(e - 1)
                if e:
                    # k -> k - unit is injective, so every key appears once
                    terms[k - unit] = _coeff(c * e)
            if terms:
                out[mask] = terms
        return SuperPoly._of(out, self._bound + 1)

    def __repr__(self):
        from .parser import pretty

        try:
            return f"SuperPoly({pretty(self)})"
        except ValueError as exc:  # no name order, or a number too long
            return f"<SuperPoly of {len(self.terms)} terms: {exc}>"


def _operand(x):
    """x promoted, or NotImplemented (the other operand's turn)."""
    ok = isinstance(x, (SuperPoly, VarSymbol, int, Fraction))
    return SuperPoly.promote(x) if ok else NotImplemented


def _multiply_into(out: dict, lhs: dict, rhs: dict):
    """Add the product of two parts maps to out, {mask: {key: c}}; the
    coefficients are summed as they come, and a sum of zero is dropped."""
    rhs = [(m2, part2.items()) for m2, part2 in rhs.items()]
    for m1, part1 in lhs.items():
        for m2, items2 in rhs:
            if m1 & m2:
                continue
            m = m1 | m2
            part = out.get(m)
            if part is None:
                part = out[m] = {}
            get = part.get
            flip = m1 and m2 and _flips(m1, m2)
            for k1, c1 in part1.items():
                if flip:
                    c1 = -c1
                for k2, c2 in items2:
                    k = k1 + k2
                    c = c1 * c2
                    s = get(k)
                    if s is None:
                        part[k] = c
                    else:
                        s += c
                        if s:
                            part[k] = s
                        else:
                            del part[k]


def _numerators(p: SuperPoly):
    """(d, parts): d the lcm of p's coefficient denominators and parts
    p's parts with each coefficient times d, all ints.  Kept on p, so an
    operand of many sums is scanned once."""
    got = getattr(p, "_scaled", None)
    if got is None:
        parts = p._parts
        d = lcm(*{c.denominator for part in parts.values()
                  for c in part.values()})
        if d > 1:
            parts = {m: {k: c.numerator * (d // c.denominator)
                         for k, c in part.items()}
                     for m, part in parts.items()}
        got = p._scaled = d, parts
    return got


_ZERO = SuperPoly()
_ONE = SuperPoly.const(1)


def invert(p: SuperPoly) -> SuperPoly:
    """Inverse of a unit u*(1 + n): single invertible monomial times
    a nonzero rational, plus a nilpotent part.

    Computed as u^{-1} * sum((-n)^j), a finite geometric series since
    every term of n carries an odd variable.
    """
    body = p._parts.get(0)
    if not body:
        raise NotAUnit("zero constant part: every term is nilpotent")
    if len(body) > 1:
        raise NotAUnit("more than one non-nilpotent term")
    (key, c), = body.items()
    factors = _even_factors(key)
    if any(not v.invertible for v, _ in factors):
        unit = _product_text(sorted(factors, key=_by_name))
        raise NotAUnit(
            f"unit part {unit} involves a variable not declared invertible"
        )
    u_inv = SuperPoly._of({0: {-key: _coeff(1 / Fraction(c))}}, p._bound)
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
    every power built on the way: base^(n // 2) times base^(n - n // 2),
    binary powering, so the recursion depth is logarithmic in n and a
    power already in the table ends its branch."""
    out = built.get(n)
    if out is None:
        d = n // 2
        out = built[n] = _power(built, d) * _power(built, n - d)
    return out


class PowerTable:
    """The values of one assignment and the powers of them built so far.

    Substitutions through one table share its powers: each rep^e is built
    once, as the product of its two halves (`_power`), and
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
        """p with the values substituted: p is sum(c * m) with m a monomial
        in the assigned variables and c free of them (`coefficients`), so
        the image is sum(c * image of m), one product per factor of each
        distinct m, and the images are summed in one pass."""
        kind, order = self.kind, tuple(self.values)
        images = []
        for exps, coeff in p.coefficients(order).items():
            image = kind.promote(coeff)
            for v, e in zip(order, exps):
                if e:
                    image = image * self.power(v, e)
            images.append(image)
        return kind.sum(images)
