"""Exact linear algebra over the rationals, computed in integers.

Stored scalars, here and in every module, are Python ints when
integral and fractions.Fraction otherwise.  `exact` is the one place
that decides, and it runs only in the constructors that store scalars
(Mat entries, Poly terms, linear forms, points, weights); Mat passes a
plain int through as it is, Mat.of_ints takes int rows unchecked, and
the kernels convert nothing.  `det` returns a Fraction, `integer_det`
an int.  `exact_str` is the one place that writes a scalar as output
text, with no digit limit.

Every elimination of a whole matrix runs through one exact forward
pass: each row is cleared of denominators on entry, and the
fraction-free pass (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination") gives rank, pivot columns and
the determinant together.  `integer_det` runs a symmetric matrix (the
Grams of `gorenstein.gram`) in the symmetric mode: with no row swap
every minor stays symmetric, so row i is formed from column i on, until
a zero diagonal pivot mirrors the live block for the general pass.
`nullspace` back-solves a kernel vector per free column, in fractions.
A matrix of more than MAX_ELIMINATION_CELLS entries is refused with a
WorkBudgetError (exit 2) before the pass, whose cost grows with the
cube of the size, starts.

`extend_echelon` is the one other elimination: an incremental column
echelon that a caller keeps and extends column by column, as the
Buchberger-Moller algorithm for ideals of points does (the point bases
of `points.PointSet.basis`).  Its vectors outlive any one matrix, so
there is no previous pivot to divide by: each kept vector is divided
by the gcd of its entries instead, which on Vandermonde columns also
removes the large common factors that Bareiss's division would keep.
Its callers check the budget.

Pivoting is deterministic (left-to-right, first nonzero row), which
downstream modules rely on for reproducible basis selection.  Every
entry of the integer pass is a nonzero multiple of the matching entry
of plain rational elimination, so the pivots are the same.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .errors import NonSquareError, WorkBudgetError

# Entries in one elimination: 4.4 times the largest matrix the test suite
# or the benchmark eliminates (a 120x120 catalecticant in the tests).
MAX_ELIMINATION_CELLS = 64_000


def exact(x):
    """x as an int when integral, else as a Fraction.

    Accepts anything Fraction accepts: ints, Fractions, decimal or
    "p/q" strings, finite floats.  Infinite floats, NaNs, zero
    denominators and bools are ValueErrors: True is not the number 1.
    So is a string whose decimal exponent would mean more digits than
    int() reads (sys.get_int_max_str_digits(), 0 for no limit), before
    Fraction spends the time to build 10 to that power.
    """
    if type(x) is not int:
        if isinstance(x, bool):
            raise ValueError(f"{x!r} is not a rational number")
        if isinstance(x, str):
            limit = sys.get_int_max_str_digits()
            m = re.search(r"[eE]([-+]?\d+(_\d+)*)\s*\Z", x)
            if limit and m and (len(m[1]) > limit or abs(int(m[1])) >= limit):
                raise ValueError(f"{reprlib.repr(x)} has a decimal exponent"
                                 " beyond the digits int() reads")
        if not isinstance(x, Fraction):
            try:
                x = Fraction(x)
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"{reprlib.repr(x)} is not a finite rational number") from None
            except ValueError:  # Fraction's message quotes all of a string
                if not isinstance(x, str):
                    raise
                raise ValueError(f"Invalid literal for Fraction: {reprlib.repr(x)}") from None
        if x.denominator == 1:
            return x.numerator
    return x


def exact_str(x) -> str:
    """An exact scalar as output text: decimal, "p/q" for a non-integer.

    Output has no digit limit.  str() refuses an int of more digits than
    sys.get_int_max_str_digits(), so a longer one is written in halves;
    inputs keep their limit.
    """
    if type(x) is not int and x.denominator != 1:
        return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
    x = int(x)
    try:
        return str(x)
    except ValueError:
        k = x.bit_length() * 3 // 20  # about half of the digits
        hi, lo = divmod(abs(x), 10 ** k)
        return "-" * (x < 0) + exact_str(hi) + exact_str(lo).zfill(k)


class Mat:
    """Dense rational matrix, row-major, with int or Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        self.entries: List[list] = [
            [x if type(x) is int else exact(x) for x in row]
            for row in entries
        ]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def of_ints(cls, entries: List[List[int]]) -> "Mat":
        """A square Mat that takes its rows of ints as they are, unchecked."""
        m = cls.__new__(cls)
        m.entries, m.rows, m.cols = entries, len(entries), len(entries)
        return m

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat)
                and self.entries == other.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols}: {body})"


def check_cells(rows: int, cols: int) -> None:
    """WorkBudgetError when a rows x cols elimination is above the budget."""
    if rows * cols > MAX_ELIMINATION_CELLS:
        raise WorkBudgetError(
            f"a {rows}x{cols} elimination is above the budget of"
            f" {MAX_ELIMINATION_CELLS} entries")


def _integer_rows(rows) -> Tuple[List[List[int]], int]:
    """Each row times the lcm of its denominators, and the product of those."""
    out = []
    scale = 1
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    return out, scale


def _eliminate(a: List[List[int]], cols: int,
               symmetric: bool = False) -> Tuple[List[int], int, int]:
    """Fraction-free forward elimination of integer rows, in place.

    Returns the pivot columns, the sign of the row permutation and the
    last pivot (1 when there is none).  After pivot step k every entry
    right of the pivots is a (k+1)-minor of the input, so each division
    by the previous pivot is exact and the last pivot of a nonsingular
    square matrix is its determinant.  A row with a zero in the pivot
    column is still scaled by pivot/previous, or later divisions would
    not be exact; entries left of a row's pivot are not kept.  The
    symmetric mode (module docstring) reads a[i][c] as a[c][i].
    """
    n = len(a)
    check_cells(n, cols)
    pivots: List[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        if r == n:
            break
        if symmetric and not a[c][c]:  # r == c while symmetric
            for i in range(c + 1, n):
                a[i][c:i] = [a[k][i] for k in range(c, i)]
            symmetric = False
        for i in range(r, n):
            if a[i][c]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(r + 1, n):
            row = a[i]
            lo, f = (i, top[i]) if symmetric else (c + 1, row[c])
            if f:
                row[lo:] = [(p * x - f * y) // prev
                            for x, y in zip(row[lo:], top[lo:])]
            elif p != prev:
                row[lo:] = [p * x // prev for x in row[lo:]]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign, prev


def integer_det(a: List[List[int]]) -> int:
    """Determinant of square integer rows, which are eliminated in place:
    the signed last pivot of the fraction-free pass, or 0.  A symmetric
    matrix is eliminated in the symmetric mode."""
    symmetric = list(zip(*a)) == list(map(tuple, a))
    pivots, sign, last = _eliminate(a, len(a), symmetric)
    return sign * last if len(pivots) == len(a) else 0


def det(m: Mat) -> Fraction:
    """Determinant as a Fraction: integer_det of the rows cleared of
    denominators, over the lcms that cleared them.

    The determinant of a 0x0 matrix is 1.
    """
    if m.rows != m.cols:
        raise NonSquareError(f"determinant of {m.rows}x{m.cols} matrix")
    a, scale = _integer_rows(m.entries)
    return Fraction(integer_det(a), scale)


def rank(m: Mat) -> int:
    """Rank over the rationals."""
    a, _ = _integer_rows(m.entries)
    return len(_eliminate(a, m.cols)[0])


def pivot_columns(m: Mat) -> List[int]:
    """Pivot columns under deterministic left-to-right elimination."""
    a, _ = _integer_rows(m.entries)
    return _eliminate(a, m.cols)[0]


def extend_echelon(echelon: List[Tuple[int, List[int]]], columns,
                   limit: int) -> List[int]:
    """Indices of the columns independent of the echelon and of the
    columns kept before them, in order; each one kept joins the echelon.

    The echelon holds (pivot row, integer vector) pairs, each vector
    zero at the pivot rows of the pairs before it.  A column is cleared
    of its denominators by their lcm (scaling one column keeps its
    independence), then reduced fraction-free against every pair whose
    pivot row it does not vanish at: v <- e_p v - v_p e, both factors
    divided by their gcd.  A nonzero remainder, divided by the gcd of
    its entries, joins with its first nonzero row as pivot.  Stops once
    the echelon holds `limit` vectors.
    """
    kept = []
    for j, col in enumerate(columns):
        if len(echelon) >= limit:
            break
        den = lcm(*[x.denominator for x in col])
        v = [x.numerator * (den // x.denominator) for x in col]
        for p, e in echelon:
            f = v[p]
            if f:
                g = gcd(e[p], f)
                q, f = e[p] // g, f // g
                v = [q * x - f * y for x, y in zip(v, e)]
        g = gcd(*v)
        if g:
            echelon.append((next(i for i, x in enumerate(v) if x),
                            [x // g for x in v]))
            kept.append(j)
    return kept


def nullspace(m: Mat) -> List[List[Fraction]]:
    """Basis of the right kernel {v : m v = 0}.

    The integer forward pass, then, for each free column f, the kernel
    vector with v[f] = 1 and every other free entry 0: its pivot entries
    are solved bottom-up through the echelon rows.  That vector is the
    unique reduced-echelon one, so the basis does not depend on how the
    forward pass scaled its rows.
    """
    a, _ = _integer_rows(m.entries)
    piv = _eliminate(a, m.cols)[0]
    echelon = list(zip(a, piv))[::-1]
    basis = []
    for f in range(m.cols):
        if f in piv:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, c in echelon:
            v[c] = -sum((x * y for x, y in zip(row[c + 1:], v[c + 1:])
                         if x), Fraction(0)) / row[c]
        basis.append(v)
    return basis
