"""Matrices over supercommutative rings with (p|q) block structure.

A SuperMatrix is square of shape (p|q) x (p|q): the diagonal blocks A
(p x p) and D (q x q) carry even entries, the off-diagonal blocks B and
C carry odd entries.  Inverses use the explicit block formula

    [ A^-1 + A^-1 B S^-1 C A^-1 , -A^-1 B S^-1 ]
    [ -S^-1 C A^-1              ,  S^-1        ]

with S = -C A^-1 B + D; the diagonal blocks are inverted through a
finite geometric series around the exact inverse of their numeric
reductions (SingularReduction when a reduction is singular).  Every
matrix product, the Schur complement and the series terms included, sums
its entry products with `SuperPoly.dot`.

This module is also the package's one exact linear elimination over the
rationals, shared by `rational_inverse` and the obstruction solver.
`_echelon` reduces each incoming sparse row against the earlier pivot
rows in ascending pivot order and pivots on its smallest remaining
column; `_back_substitute` works in descending pivot order and sets the
free unknowns to zero.  The leading columns of a row space do not
depend on how it is reduced, so the pivots, and the solution with free
unknowns zero, are those of a full Gauss-Jordan reduction.  Entries
stay Python ints while integral (a pivot of +-1 is normalised by a sign
flip).  `_echelon` reads rows from any iterable and, given the number
of unknowns, stops once every unknown is a pivot, so a lazy caller
builds only the rows read; they have full column rank, so their
solution is unique and later rows only confirm or contradict it.
`obstruction.solve_laurent_system` builds its rows per equation and
certifies the values: every equation's residual must equal the
right-hand side up to the last row read, a mismatch above it making
the system infeasible.  `rational_inverse` reads every row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParityMismatch, ShapeMismatch, SingularReduction
from .ring import ParityClass, SuperPoly, _coeff


@dataclass(frozen=True)
class SuperMatrix:
    p: int
    q: int
    rows: tuple  # (p+q) x (p+q) tuple of tuples of SuperPoly

    def __post_init__(self):
        n = self.p + self.q
        if self.p < 0 or self.q < 0:
            raise ShapeMismatch("block sizes must be nonnegative")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ShapeMismatch(f"expected {n}x{n} entries")
        for i in range(n):
            for j in range(n):
                entry = self.rows[i][j]
                if entry.is_zero():
                    continue
                even_slot = (i < self.p) == (j < self.p)
                want = ParityClass.EVEN if even_slot else ParityClass.ODD
                if entry.parity_class() is not want:
                    raise ParityMismatch(
                        f"entry ({i},{j}) must be {want.value}"
                    )

    @staticmethod
    def from_lists(p, q, rows) -> "SuperMatrix":
        return SuperMatrix(
            p, q, tuple(tuple(SuperPoly.promote(e) for e in row) for row in rows)
        )

    @staticmethod
    def identity(p, q) -> "SuperMatrix":
        n = p + q
        return SuperMatrix.from_lists(
            p, q, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def size(self) -> int:
        return self.p + self.q

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.size)
            for j in range(self.size)
        )

    def block(self, which: str):
        p, q = self.p, self.q
        if which == "A":
            return [[self.rows[i][j] for j in range(p)] for i in range(p)]
        if which == "B":
            return [[self.rows[i][p + j] for j in range(q)] for i in range(p)]
        if which == "C":
            return [[self.rows[p + i][j] for j in range(p)] for i in range(q)]
        if which == "D":
            return [[self.rows[p + i][p + j] for j in range(q)] for i in range(q)]
        raise ValueError(which)


def matmul(m: SuperMatrix, n: SuperMatrix) -> SuperMatrix:
    if (m.p, m.q) != (n.p, n.q):
        raise ShapeMismatch(
            f"({m.p}|{m.q}) and ({n.p}|{n.q}) matrices cannot be multiplied"
        )
    rows = _lists_matmul(m.rows, n.rows)
    return SuperMatrix(m.p, m.q, tuple(tuple(r) for r in rows))


def _lists_matmul(a, b):
    cols = list(zip(*b))
    return [[SuperPoly.dot(zip(row, col)) for col in cols] for row in a]


def _lists_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _lists_neg(a):
    return [[-x for x in row] for row in a]


def _numeric(rows):
    """The entries with all odd-variable terms killed, as rationals.

    Raises SingularReduction when an entry's reduction is not constant.
    """
    out = []
    for row in rows:
        out_row = []
        for entry in row:
            try:
                out_row.append(entry.bosonic().as_constant())
            except ValueError:
                raise SingularReduction(
                    "numeric reduction is not a rational matrix"
                ) from None
        out.append(out_row)
    return out


def rational_inverse(matrix):
    """Exact inverse of a rational matrix; integral entries are ints.
    SingularReduction when it is singular.

    One elimination of the rows of A x - y = 0 serves every column: the
    unknowns y come after x, so an invertible A puts every pivot on x,
    and column j is the back substitution with y = e_j, entered as the
    pivot rows y_k = [k == j] of no other column."""
    n = len(matrix)
    pivots = _echelon(({c: x for c, x in enumerate(row) if x} | {n + i: -1}, 0)
                      for i, row in enumerate(matrix))
    if set(pivots) != set(range(n)):
        raise SingularReduction("numeric reduction is singular")
    columns = [
        _back_substitute(pivots | {n + k: ({}, int(k == j)) for k in range(n)},
                         2 * n)[:n]
        for j in range(n)
    ]
    return [[_coeff(x) for x in row] for row in zip(*columns)]


def _echelon(rows, n_unknowns=None):
    """Forward elimination: {pivot column: (coeffs, rhs)} with the pivot
    normalised to 1 and dropped from coeffs, every other column of a
    pivot row above its pivot; None when some row reduces to 0 = c != 0.
    The rows are consumed: each row's dict is reduced in place.  Given
    the number of unknowns, it stops reading rows once every unknown is
    a pivot; the rows after that are left unread."""
    pivots = {}
    is_pivot = pivots.__contains__
    for coeffs, rhs in rows:
        # the row's pivot columns in ascending order; a pivot row only
        # fills in columns above its own, so the heap stays ahead
        heap = list(filter(is_pivot, coeffs))
        if len(heap) > 1:
            heapq.heapify(heap)
        while heap:
            u = heapq.heappop(heap)
            factor = coeffs.pop(u, 0)
            if not factor:
                continue  # cancelled, or a repeated push
            p_coeffs, p_rhs = pivots[u]
            for pu, pc in p_coeffs.items():
                old = coeffs.get(pu)
                if old is None:
                    coeffs[pu] = -factor * pc
                    if pu in pivots:
                        heapq.heappush(heap, pu)
                else:
                    s = old - factor * pc
                    if s:
                        coeffs[pu] = s
                    else:
                        del coeffs[pu]
            rhs -= factor * p_rhs
        if not coeffs:
            if rhs:
                return None
            continue
        u_star = min(coeffs)
        lead = coeffs.pop(u_star)
        if lead == -1:
            for u in coeffs:
                coeffs[u] = -coeffs[u]
            rhs = -rhs
        elif lead != 1:
            inv = 1 / Fraction(lead)
            coeffs = {u: _coeff(c * inv) for u, c in coeffs.items()}
            rhs = _coeff(rhs * inv)
        pivots[u_star] = (coeffs, rhs)
        if len(pivots) == n_unknowns:
            break
    return pivots


def _back_substitute(pivots, n_unknowns: int) -> list:
    """Values of all unknowns from an echelon form, free ones zero; the
    zero values are skipped."""
    values = [0] * n_unknowns
    for u_star in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[u_star]
        for u, c in coeffs.items():
            if values[u]:
                rhs -= c * values[u]
        values[u_star] = rhs
    return values


def _even_block_inverse(block):
    """Inverse of an even-entried block whose numeric reduction is
    invertible: (A0 + N)^-1 = sum((-A0^-1 N)^j) A0^-1.  The entries of
    N, and so of -A0^-1 N, are even nilpotents, so the powers reach zero
    and the sum ends at the first zero power."""
    n = len(block)
    reduction = _numeric(block)
    a0_inv_rat = rational_inverse(reduction)
    a0_inv = [[SuperPoly.const(x) for x in row] for row in a0_inv_rat]
    nil = [
        [block[i][j] - SuperPoly.const(reduction[i][j]) for j in range(n)]
        for i in range(n)
    ]
    x = _lists_neg(_lists_matmul(a0_inv, nil))
    acc = power = a0_inv
    while True:
        power = _lists_matmul(x, power)
        if all(e.is_zero() for row in power for e in row):
            return acc
        acc = [[p + t for p, t in zip(ra, rb)] for ra, rb in zip(acc, power)]


def left_inverse(m: SuperMatrix) -> SuperMatrix:
    """Two-sided inverse via the explicit block formula."""
    if m.q == 0:
        inv = _even_block_inverse(m.block("A"))
        return SuperMatrix(m.p, 0, tuple(tuple(row) for row in inv))
    if m.p == 0:
        inv = _even_block_inverse(m.block("D"))
        return SuperMatrix(0, m.q, tuple(tuple(row) for row in inv))
    a = m.block("A")
    b = m.block("B")
    c = m.block("C")
    d = m.block("D")
    a_inv = _even_block_inverse(a)
    c_a_inv = _lists_matmul(c, a_inv)
    s_inv = _even_block_inverse(_lists_sub(d, _lists_matmul(c_a_inv, b)))
    a_inv_b_s_inv = _lists_matmul(_lists_matmul(a_inv, b), s_inv)
    tl = [
        [x + y for x, y in zip(row1, row2)]
        for row1, row2 in zip(a_inv, _lists_matmul(a_inv_b_s_inv, c_a_inv))
    ]
    tr = _lists_neg(a_inv_b_s_inv)
    bl = _lists_neg(_lists_matmul(s_inv, c_a_inv))
    br = s_inv
    rows = []
    for i in range(m.p):
        rows.append(tuple(tl[i] + tr[i]))
    for i in range(m.q):
        rows.append(tuple(bl[i] + br[i]))
    return SuperMatrix(m.p, m.q, tuple(rows))


def reduce_mod_odd(m: SuperMatrix):
    """Kill every odd-containing term; returns rational (p+q)x(p+q) lists."""
    return _numeric(m.rows)
