"""Exact matrix arithmetic against plain-Gauss and Laplace oracles."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gorlef import linalg
from gorlef.errors import NonSquareError, WorkBudgetError
from gorlef.linalg import (Mat, det, exact_str, nullspace, pivot_columns,
                           rank)

from oracles import (gauss_pivot_columns, gauss_rank, identity, laplace_det,
                     matmul, transpose)


def F(v):
    return Fraction(v)


def mat(rows):
    return Mat([[Fraction(v) for v in r] for r in rows])


def random_mat(rng, rows, cols, box=9, den=False):
    def entry():
        num = rng.randint(-box, box)
        return Fraction(num, rng.randint(1, 4)) if den else Fraction(num)
    return Mat([[entry() for _ in range(cols)] for _ in range(rows)])


class TestDet:
    def test_hand_cases(self):
        assert det(mat([[2]])) == 2
        assert det(mat([[1, 2], [3, 4]])) == -2
        assert det(mat([[1, 2, 0], [3, 9, 6], [0, 7, 8]])) == -18
        assert det(identity(5)) == 1
        assert det(Mat([[0] * 4] * 4)) == 0

    def test_empty_matrix(self):
        assert det(Mat([])) == 1

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            det(mat([[1, 2, 3], [4, 5, 6]]))

    def test_rational_entries(self):
        m = mat([[Fraction(1, 2), Fraction(1, 3)],
                 [Fraction(1, 5), Fraction(1, 7)]])
        assert det(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_matches_laplace_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = random_mat(rng, n, n, den=True)
            assert det(m) == laplace_det(m.entries)

    def test_multiplicative(self):
        rng = random.Random(102)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_mat(rng, n, n)
            b = random_mat(rng, n, n)
            assert det(matmul(a, b)) == det(a) * det(b)

    def test_singular_with_repeated_row(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = random_mat(rng, n, n)
            i, j = rng.sample(range(n), 2)
            m.entries[i] = list(m.entries[j])
            assert det(m) == 0


@st.composite
def symmetric_matrices(draw):
    """Symmetric int matrices of size 0..7 with entries up to 2^70.

    A third are drawn entry by entry, some diagonal entries then zeroed.
    The rest are U^T D U for U unit upper triangular, whose leading
    principal minors are D's, so the symmetric pass meets its first zero
    pivot where D has its first zero: at the first, a middle or the last
    step.  Unless that is the last, D holds a 2x2 block [[0, c], [c, c]]
    there, which keeps the matrix nonsingular and leaves the general
    pass work after the fallback; a second zero on D's diagonal may make
    it singular.
    """
    n = draw(st.integers(0, 7))
    if draw(st.integers(0, 2)) == 0:
        entry = st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70))
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(entry)
        for k in draw(st.sets(st.integers(0, n - 1))) if n else ():
            a[k][k] = 0
        return a
    d = [[0] * n for _ in range(n)]
    for k in range(n):  # not +-1, so a skipped scaling shows
        d[k][k] = draw(st.integers(2, 2**62)) * draw(st.sampled_from((1, -1)))
    if n:
        k = draw(st.sampled_from(sorted({0, n // 2, n - 1})))
        d[k][k] = 0
        if k + 1 < n:
            d[k][k + 1] = d[k + 1][k] = d[k + 1][k + 1]
        if draw(st.booleans()):
            z = draw(st.integers(0, n - 1))
            d[z][z] = 0
    u = [[int(i == j) if j <= i else draw(st.integers(-3, 3))
          for j in range(n)] for i in range(n)]  # unit upper triangular
    return [[sum(u[k][i] * d[k][l] * u[l][j]
                 for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


class TestSymmetricDet:
    """integer_det eliminates a symmetric matrix in the symmetric mode,
    forming each row from its diagonal on and mirroring the live block
    before the general pass at the first zero pivot."""

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    def test_matches_laplace_oracle(self, a):
        assert all(a[i][j] == a[j][i] for i in range(len(a))
                   for j in range(i))
        modes = []
        eliminate = linalg._eliminate
        with mock.patch.object(linalg, "_eliminate", lambda a, cols, sym:
                               modes.append(sym) or eliminate(a, cols, sym)):
            assert linalg.integer_det([row[:] for row in a]) == laplace_det(a)
        assert modes == [True]

    @pytest.mark.parametrize("a, value", [
        ([[0, 1], [1, 0]], -1),                       # first step
        ([[1, 1, 2], [1, 1, 3], [2, 3, 1]], -1),      # middle step
        ([[2, 1, 0], [1, 3, 0], [0, 0, 0]], 0),       # last step
        ([[1, 2], [2, 4]], 0),                        # zero last pivot
    ], ids=["first", "middle", "last", "singular"])
    def test_zero_pivots_fall_back(self, a, value):
        assert laplace_det(a) == value
        assert linalg.integer_det([row[:] for row in a]) == value

    def test_a_matrix_that_is_not_symmetric_takes_the_general_pass(self):
        modes = []
        eliminate = linalg._eliminate
        with mock.patch.object(linalg, "_eliminate", lambda a, cols, sym:
                               modes.append(sym) or eliminate(a, cols, sym)):
            assert linalg.integer_det([[1, 2], [3, 4]]) == -2
        assert modes == [False]


class TestRank:
    def test_hand_cases(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1
        assert rank(mat([[1, 0], [0, 1]])) == 2
        assert rank(Mat([[0] * 5] * 3)) == 0
        assert rank(mat([[0, 0, 1]])) == 1

    def test_matches_gauss_oracle(self):
        rng = random.Random(104)
        for _ in range(80):
            r = rng.randint(1, 7)
            c = rng.randint(1, 7)
            m = random_mat(rng, r, c, box=4)
            assert rank(m) == gauss_rank(m.entries)

    def test_rank_of_transpose(self):
        rng = random.Random(105)
        for _ in range(40):
            m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 6), box=3)
            assert rank(m) == rank(transpose(m))

    def test_rank_bounded_by_product_factors(self):
        rng = random.Random(106)
        for _ in range(30):
            a = random_mat(rng, 4, 2)
            b = random_mat(rng, 2, 5)
            assert rank(matmul(a, b)) <= 2


class TestPivots:
    def test_pivot_columns_hand(self):
        m = mat([[1, 2, 0], [2, 4, 1]])
        assert pivot_columns(m) == [0, 2]

    def test_pivot_count_is_rank(self):
        rng = random.Random(107)
        for _ in range(40):
            m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 6), box=3)
            assert len(pivot_columns(m)) == rank(m)
            assert len(pivot_columns(transpose(m))) == rank(m)

    def test_pivot_rows_are_independent(self):
        rng = random.Random(108)
        for _ in range(20):
            m = random_mat(rng, rng.randint(2, 6), rng.randint(2, 6), box=3)
            rows = pivot_columns(transpose(m))
            if rows:
                assert rank(Mat([m.entries[i] for i in rows])) == len(rows)


entries = st.one_of(st.just(0), st.integers(-6, 6),
                    st.fractions(min_value=-5, max_value=5, max_denominator=9),
                    st.integers(-2 ** 80, 2 ** 80))


@st.composite
def column_runs(draw):
    """Columns of one length: fresh, zero, or a duplicate, a multiple or
    a sum of earlier ones, so that dependent columns are common."""
    length = draw(st.integers(1, 5))
    cols = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(
            ["fresh", "zero", "copy", "multiple", "sum"] if cols
            else ["fresh", "zero"]))
        if kind == "fresh":
            col = draw(st.lists(entries, min_size=length, max_size=length))
        elif kind == "zero":
            col = [0] * length
        else:
            a = draw(st.sampled_from(cols))
            b = draw(st.sampled_from(cols))
            c = draw(entries.filter(bool))
            col = {"copy": a, "multiple": [c * x for x in a],
                   "sum": [x + c * y for x, y in zip(a, b)]}[kind]
        cols.append([linalg.exact(x) for x in col])
    return length, cols


class TestExtendEchelon:
    """The kept columns are the greedy left-to-right independent set of
    the columns the echelon was built from followed by the new ones."""

    @settings(max_examples=200, deadline=None)
    @given(column_runs(), st.data())
    def test_kept_columns_are_the_greedy_independent_set(self, run, data):
        length, cols = run
        seeded = data.draw(st.integers(0, len(cols)))
        limit = data.draw(st.integers(0, length + 1))
        echelon = []
        assert linalg.extend_echelon(echelon, cols[:seeded], length) == (
            gauss_pivot_columns(list(zip(*cols[:seeded]))))
        start = len(echelon)
        kept = linalg.extend_echelon(echelon, cols[seeded:], limit)
        greedy = [c - seeded for c in gauss_pivot_columns(list(zip(*cols)))
                  if c >= seeded]
        assert kept == greedy[:max(limit - start, 0)]
        assert len(echelon) == start + len(kept) <= max(limit, start)
        pivots = []
        for p, e in echelon:
            assert all(type(x) is int for x in e) and len(e) == length
            assert e[p] and all(x == 0 for x in e[:p])
            assert all(e[q] == 0 for q in pivots)
            pivots.append(p)

    def test_kept_vectors_are_divided_by_their_gcd(self):
        echelon = [(0, [1, 1, 1])]
        cols = [[1, 2, 3], [Fraction(1, 2), 2, Fraction(9, 2)]]
        assert linalg.extend_echelon(echelon, cols, 3) == [0, 1]
        assert echelon[1:] == [(1, [0, 1, 2]), (2, [0, 0, 1])]


class TestNullspace:
    def test_hand_case(self):
        m = mat([[1, 1, 0], [0, 0, 1]])
        basis = nullspace(m)
        assert len(basis) == 1
        assert basis[0] == [Fraction(-1), Fraction(1), Fraction(0)]

    def test_full_rank_has_trivial_kernel(self):
        assert nullspace(identity(4)) == []

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(109)
        for _ in range(40):
            m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 6), box=3)
            basis = nullspace(m)
            assert len(basis) == m.cols - rank(m)
            for v in basis:
                for row in m.entries:
                    assert sum(a * b for a, b in zip(row, v)) == 0


class TestMat:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Mat([[Fraction(1)], [Fraction(1), Fraction(2)]])

    def test_matmul_shapes(self):
        a = mat([[1, 2, 3]])
        b = mat([[1], [1], [1]])
        assert matmul(a, b).entries == [[Fraction(6)]]
        with pytest.raises(ValueError):
            matmul(b, b)  # 3x1 times 3x1


class TestEliminationBudget:
    def test_default_is_pinned(self):
        # 4.4 times 120 x 120, the largest matrix the tests or the
        # benchmark eliminate (a catalecticant in test_acceptance)
        assert linalg.MAX_ELIMINATION_CELLS == 64_000

    def test_a_matrix_at_the_budget_is_eliminated(self):
        m = identity(3)
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 9):
            assert rank(m) == 3 and det(m) == 1
            assert pivot_columns(m) == [0, 1, 2] and nullspace(m) == []

    @pytest.mark.parametrize("kernel", [rank, det, pivot_columns, nullspace])
    def test_a_matrix_above_the_budget_is_refused(self, kernel):
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 8):
            with pytest.raises(WorkBudgetError, match="3x3"):
                kernel(identity(3))


class TestExactStr:
    @pytest.mark.parametrize("x", [
        0, 7, -12, Fraction(-3, 4), Fraction(6, 3), 10 ** 700 + 1,
        -(10 ** 1500) - 37, Fraction(3 ** 2000, 2 ** 3000 + 1)],
        ids=["0", "7", "-12", "-3/4", "6/3", "10^700+1", "-10^1500-37",
             "3^2000/(2^3000+1)"])
    def test_str_without_a_digit_limit(self, x):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        expected = str(x)
        sys.set_int_max_str_digits(640)
        try:
            assert exact_str(x) == expected
        finally:
            sys.set_int_max_str_digits(limit)


class TestExact:
    def test_a_decimal_with_an_exponent(self):
        assert linalg.exact("12.5e-3") == Fraction(1, 80)
        assert linalg.exact(" -2E+3 ") == -2000

    def test_the_exponent_bound_is_the_digits_int_reads(self):
        limit = sys.get_int_max_str_digits()
        assert linalg.exact(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert linalg.exact(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        with pytest.raises(ValueError, match="decimal exponent"):
            linalg.exact(f"1e{limit}")

    @pytest.mark.parametrize("literal", [
        "-1e-999999999", "2.5E+999_999_999", "1e" + "1" * 5000])
    def test_an_exponent_past_int_digits_is_refused(self, literal):
        with pytest.raises(ValueError, match="decimal exponent") as info:
            linalg.exact(literal)
        assert len(str(info.value)) < 120  # the literal quoted by reprlib
