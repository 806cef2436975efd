import random
from collections import Counter
from fractions import Fraction

import pytest

from superhilb.errors import ParityMismatch, ShapeMismatch, SingularReduction
from superhilb.matrix import (
    SuperMatrix,
    left_inverse,
    matmul,
    rational_inverse,
    reduce_mod_odd,
)
from superhilb.ring import SuperPoly, even, invert, odd

X = even("x", invertible=True)
ODDS = [odd(f"w{i}") for i in range(4)]


def random_super_matrix(rng, p, q, odd_pool=ODDS, fractions=False):
    """Invertible numeric reduction plus random nilpotent perturbations.
    The numbers are integers, or with `fractions` each is k/3 or k/4 half
    of the time, so one entry product can mix ints and Fractions."""

    def number(lo, hi):
        k = rng.randint(lo, hi)
        if fractions and rng.random() < 0.5:
            return Fraction(k, rng.choice((3, 4)))
        return Fraction(k)

    n = p + q
    while True:
        base = [[number(-4, 4) for _ in range(n)] for _ in range(n)]
        a_block = [row[:p] for row in base[:p]]
        d_block = [row[p:] for row in base[p:]]
        if _cofactor_det(a_block) != 0 and _cofactor_det(d_block) != 0:
            break
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            even_slot = (i < p) == (j < p)
            entry = SuperPoly.const(base[i][j]) if even_slot else SuperPoly.zero()
            for _ in range(rng.randint(0, 2)):
                k = 2 if even_slot else 1
                vars_ = rng.sample(odd_pool, k)
                mono = SuperPoly.const(number(-3, 3))
                for v in sorted(vars_, key=lambda s: s.name):
                    mono = mono * SuperPoly.var(v)
                entry = entry + mono
            row.append(entry)
        rows.append(row)
    return SuperMatrix.from_lists(p, q, rows)


class TestMatmul:
    def test_identity(self, rng):
        m = random_super_matrix(rng, 2, 2)
        i = SuperMatrix.identity(2, 2)
        assert matmul(i, m) == m
        assert matmul(m, i) == m

    def test_diagonal_units(self):
        m = SuperMatrix.from_lists(1, 0, [[SuperPoly.var(X)]])
        n = SuperMatrix.from_lists(1, 0, [[invert(SuperPoly.var(X))]])
        assert matmul(m, n) == SuperMatrix.identity(1, 0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            matmul(random_super_matrix(rng, 1, 1), random_super_matrix(rng, 2, 1))

    def test_parity_validation(self):
        with pytest.raises(ParityMismatch):
            SuperMatrix.from_lists(1, 1, [[1, 1], [0, 1]])


class TestLeftInverse:
    def test_zero_by_zero(self):
        empty = SuperMatrix(0, 0, ())
        assert left_inverse(empty) == empty

    def test_identity_case(self):
        i = SuperMatrix.identity(2, 1)
        assert left_inverse(i) == i

    def test_odd_perturbation_of_identity(self):
        w0, w1 = ODDS[0], ODDS[1]
        gamma = SuperMatrix.from_lists(
            1,
            1,
            [[1, SuperPoly.var(w0)], [SuperPoly.var(w1), 1]],
        )
        inv = left_inverse(gamma)
        assert matmul(inv, gamma) == SuperMatrix.identity(1, 1)
        assert matmul(gamma, inv) == SuperMatrix.identity(1, 1)

    def test_one_one_block_formula(self):
        beta, gamma = ODDS[0], ODDS[1]
        m = SuperMatrix.from_lists(
            1, 1, [[2, SuperPoly.var(beta)], [SuperPoly.var(gamma), 1]]
        )
        inv = left_inverse(m)
        assert matmul(inv, m) == SuperMatrix.identity(1, 1)
        assert matmul(m, inv) == SuperMatrix.identity(1, 1)

    @pytest.mark.parametrize("fractions", [False, True],
                             ids=["integers", "fractions"])
    def test_random_two_sided(self, fractions):
        rng = random.Random(5150)
        for _ in range(30):
            p = rng.randint(0, 3)
            q = rng.randint(0, 3)
            if p + q == 0:
                continue
            m = random_super_matrix(rng, p, q, fractions=fractions)
            inv = left_inverse(m)
            assert matmul(inv, m) == SuperMatrix.identity(p, q)
            assert matmul(m, inv) == SuperMatrix.identity(p, q)

    @pytest.mark.parametrize("fractions", [False, True],
                             ids=["integers", "fractions"])
    def test_reduction_compatibility(self, fractions):
        rng = random.Random(31)
        for _ in range(10):
            m = random_super_matrix(rng, 2, 2, fractions=fractions)
            inv = left_inverse(m)
            assert reduce_mod_odd(inv) == rational_inverse(reduce_mod_odd(m))

    def test_products_make_no_fraction_arithmetic(self, monkeypatch):
        """Entry products are summed as integer numerators over one common
        denominator, so checking a (3|3) inverse on both sides adds and
        multiplies no Fractions."""
        m = random_super_matrix(random.Random(33), 3, 3)
        inv = left_inverse(m)
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(a, b, _op=getattr(Fraction, name), _name=name):
                calls.append(_name)
                return _op(a, b)
            monkeypatch.setattr(Fraction, name, counted)
        identity = SuperMatrix.identity(3, 3)
        assert matmul(inv, m) == identity
        assert matmul(m, inv) == identity
        assert len(calls) == 0, Counter(calls)

    def test_block_products_built_once(self, monkeypatch):
        """C A^-1 serves the Schur complement and both bottom-left and
        top-left blocks, and (A^-1 B) S^-1 both top blocks: a (3|3)
        inverse makes 14 list products (126 entry dots), not 16 (144)."""
        import superhilb.matrix as matrix

        m = random_super_matrix(random.Random(1), 3, 3)
        counts = Counter()
        lists_matmul, dot = matrix._lists_matmul, SuperPoly.dot

        def counted_matmul(a, b):
            counts["_lists_matmul"] += 1
            return lists_matmul(a, b)

        def counted_dot(pairs):
            counts["dot"] += 1
            return dot(pairs)

        monkeypatch.setattr(matrix, "_lists_matmul", counted_matmul)
        monkeypatch.setattr(SuperPoly, "dot", staticmethod(counted_dot))
        inv = left_inverse(m)
        monkeypatch.undo()
        assert counts == {"_lists_matmul": 14, "dot": 126}, counts
        identity = SuperMatrix.identity(3, 3)
        assert matmul(inv, m) == identity
        assert matmul(m, inv) == identity

    def test_singular_reduction(self):
        w0, w1 = ODDS[0], ODDS[1]
        nil = SuperPoly.var(w0) * SuperPoly.var(w1)
        m = SuperMatrix.from_lists(1, 1, [[nil, 0], [0, 1]])
        with pytest.raises(SingularReduction):
            left_inverse(m)

    def test_polynomial_reduction_rejected(self):
        m = SuperMatrix.from_lists(1, 0, [[SuperPoly.var(X)]])
        with pytest.raises(SingularReduction):
            left_inverse(m)


class TestRationalHelpers:
    @pytest.mark.parametrize("m", [
        [[0]],
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]],
        [[Fraction(1, 2), 1, 0], [1, 2, 0], [3, -1, 7]],
    ])
    def test_rank_deficient_inverse_raises(self, m):
        with pytest.raises(SingularReduction):
            rational_inverse(m)

    def test_inverse_round_trip(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 4)
            while True:
                m = [
                    [Fraction(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(n)
                ]
                if _cofactor_det(m) != 0:
                    break
            inv = rational_inverse(m)
            prod = [
                [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == [
                [Fraction(int(i == j)) for j in range(n)] for i in range(n)
            ]

    def test_rational_inverse_keeps_integral_entries_ints(self):
        rng = random.Random(21)
        integral = 0
        for _ in range(30):
            n = rng.randint(1, 6)
            while True:
                m = [
                    [rng.choice((rng.randint(-4, 4),
                                 Fraction(rng.randint(-4, 4),
                                          rng.choice((2, 3)))))
                     for _ in range(n)]
                    for _ in range(n)
                ]
                if _cofactor_det(m) != 0:
                    break
            inv = rational_inverse(m)
            for x in (x for row in inv for x in row):
                if Fraction(x).denominator == 1:
                    integral += 1
                    assert type(x) is int, x
                else:
                    assert type(x) is Fraction, x
            prod = [
                [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        assert integral

    def test_one_elimination_serves_both_solvers(self, monkeypatch):
        """rational_inverse eliminates once for all its columns and the
        bounded Laurent solver once, both through matrix._echelon."""
        import superhilb.matrix as matrix
        import superhilb.obstruction as ob

        assert ob._echelon is matrix._echelon
        echelon, calls = matrix._echelon, []

        def counted(rows, *rest):
            calls.append(1)
            return echelon(rows, *rest)

        monkeypatch.setattr(matrix, "_echelon", counted)
        monkeypatch.setattr(ob, "_echelon", counted)
        assert rational_inverse([[1, 2], [3, 4]]) == [
            [-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
        assert len(calls) == 1
        assert ob.solve_laurent_system(ob.build_coboundary_system(0, 2))
        assert len(calls) == 2


def _cofactor_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total
