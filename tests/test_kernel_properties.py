"""The fraction-free kernel against plain-Fraction oracles, by property.

Random rational matrices cover non-integral entries, huge integers,
rank-deficient products, all-zero columns (the column-skip branch),
wide, tall and 1x1 shapes, and pivots that need a row swap.  The
oracles in `oracles.py` use Fraction arithmetic only.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from gorlef.linalg import Mat, det, nullspace, pivot_columns, pivot_rows, rank

from oracles import gauss_pivot_columns, gauss_rank, laplace_det

SETTINGS = settings(max_examples=150, deadline=None)

entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.integers(-2 ** 80, 2 ** 80),
)
dims = st.integers(1, 6)


def _product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


@st.composite
def matrices(draw, square=False):
    rows = draw(dims)
    cols = rows if square else draw(dims)
    kind = draw(st.sampled_from(["dense", "product", "zero_columns"]))
    if kind == "product":
        # rank at most k: a rows x k times k x cols product
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        a = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                          min_size=rows, max_size=rows))
        b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=k, max_size=k))
        return _product(a, b)
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if kind == "zero_columns":
        for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            for row in m:
                row[c] = 0
    return m


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


SWAP = [[0, 2, 1], [0, 0, 3], [5, 1, 0]]  # column 0 pivots in the last row
SKIP = [[0, 1, 2], [0, 2, 4], [0, 3, 7]]  # column 0 is all zero
HALVES = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]


@SETTINGS
@given(matrices())
@example([[7]])
@example([[0]])
@example(SWAP)
@example(SKIP)
@example(HALVES)
def test_rank_and_pivots_match_oracle(rows):
    m = Mat(rows)
    assert rank(m) == gauss_rank(rows)
    assert pivot_columns(m) == gauss_pivot_columns(rows)
    assert pivot_rows(m) == gauss_pivot_columns(_transpose(rows))


@SETTINGS
@given(matrices(square=True))
@example([[7]])
@example(SWAP)
@example(SKIP)
@example(HALVES)
@example([[0, 0, 0, 1], [0, 0, 2, 0], [0, 3, 0, 0], [4, 0, 0, 0]])
def test_det_matches_laplace(rows):
    value = det(Mat(rows))
    assert isinstance(value, Fraction)
    assert value == laplace_det(rows)


@SETTINGS
@given(matrices())
@example(SWAP)
@example(SKIP)
@example(HALVES)
def test_nullspace_is_the_reduced_echelon_kernel(rows):
    n_cols = len(rows[0])
    pivots = gauss_pivot_columns(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = nullspace(Mat(rows))
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        # The reduced-echelon kernel basis is unique: 1 at its own free
        # column, 0 at the other free columns, and m v = 0.
        assert [v[c] for c in free] == [int(c == fc) for c in free]
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0


@SETTINGS
@given(matrices(square=True))
def test_det_nonzero_iff_full_rank(rows):
    assert (det(Mat(rows)) != 0) == (gauss_rank(rows) == len(rows))
