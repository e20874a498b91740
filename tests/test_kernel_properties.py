"""The integer kernels against plain-Fraction oracles, by property.

Random rational matrices cover non-integral entries, huge integers,
rank-deficient products, all-zero columns (the column-skip branch),
wide, tall and 1x1 shapes, and pivots that need a row swap.  Random
forms and linear forms check the one-contraction Hessian and the
integer ell^k contraction the same way, and random forms of degree up
to 9 in up to 5 variables check the packed divided-power pass and
block reader against Fraction derivatives and (u+v)! g_(u+v).  The
oracles in `oracles.py` use Fraction arithmetic only.  Random weighted
point sets of any degree
check that the bases and Hessians of an of_points algebra, on either
side of the route threshold tau <= ceil(d/2), equal the catalecticant
bases and one-contraction Hessians of the expanded power sum.
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gorlef import gorenstein
from gorlef.apolar import (LinearFormS, Poly, RING_R, cat_block, contract,
                           divided_powers, monomials_of_degree, packed_keys,
                           power_sum)
from gorlef.construct import construct_slp_algebra
from gorlef.errors import HessianRankMismatchError
from gorlef.gorenstein import GorensteinAlgebra
from gorlef.hvector import HVector, is_SI
from gorlef.linalg import Mat, det, nullspace, pivot_columns, rank
from gorlef.points import PointSet
from gorlef.theorems import verify_corollary_families, verify_rnc_slp

from oracles import (catalecticant, gauss_det, gauss_pivot_columns,
                     gauss_rank, hessian_by_contraction, laplace_det,
                     linear_power_contraction, transpose)

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
    assert pivot_columns(transpose(m)) == gauss_pivot_columns(
        [list(col) for col in zip(*rows)])


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
@given(matrices(square=True))
@example(SWAP)
@example(SKIP)
@example(HALVES)
def test_the_gauss_oracle_is_the_cofactor_det(rows):
    # gauss_det checks dets too large for the cofactor expansion
    assert gauss_det(rows) == laplace_det(rows)


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


# ---------------------------------------------------------------------------
# Hessians from one ell^(d-2j) contraction

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.integers(-2 ** 80, 2 ** 80),
)
ell_coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


@st.composite
def forms(draw, homogeneous=True):
    """(F, d): sparse F of degree d, or of degree <= d; possibly zero."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 6))
    degrees = [d] if homogeneous else list(range(d + 1))
    mons = [m for e in degrees for m in monomials_of_degree(n, e)]
    chosen = draw(st.lists(st.sampled_from(mons), max_size=8, unique=True))
    coefs = draw(st.lists(coefficients, min_size=len(chosen),
                          max_size=len(chosen)))
    return Poly(n, RING_R, dict(zip(chosen, coefs))), d


@st.composite
def linear_forms(draw, n):
    coeffs = draw(st.lists(ell_coefficients, min_size=n, max_size=n)
                  .filter(any))
    return LinearFormS(coeffs)


@st.composite
def hessian_cases(draw):
    f, d = draw(forms())
    ell = draw(linear_forms(f.n_vars))
    j = draw(st.integers(0, d // 2))
    mons = monomials_of_degree(f.n_vars, j)
    # a frame need not be a basis: any list of degree-j monomials, repeats too
    frame = draw(st.one_of(st.none(), st.lists(st.sampled_from(mons),
                                               max_size=5)))
    return f, d, j, ell, frame


CUBIC = Poly(2, RING_R, {(2, 1): Fraction(1, 3), (0, 3): 2 ** 79})


def _contracted_hessian(f, j, ell, frame, d):
    """Cat^j(ell^(d-2j) o F)[B, B] / (d-2j)!, the one-contraction
    Hessian that certify_at's chain builds, as rows of Fractions."""
    k_fact = factorial(d - 2 * j)
    g = linear_power_contraction(ell.coeffs, d - 2 * j, f.terms)
    block = catalecticant(Poly(f.n_vars, RING_R, g), j, 2 * j, frame, frame)
    return [[Fraction(v, k_fact) for v in row] for row in block.entries]


@settings(max_examples=200, deadline=None)
@given(hessian_cases())
@example((CUBIC, 3, 0, LinearFormS([Fraction(1, 2), 0]), None))
@example((CUBIC, 3, 1, LinearFormS([0, 3]), [(1, 0), (1, 0), (0, 1)]))
@example((Poly(2, RING_R, {(2, 2): Fraction(-7, 2)}), 4, 2,
          LinearFormS([1, Fraction(2, 3)]), [(2, 0), (1, 1), (0, 2)]))
@example((Poly(3, RING_R), 4, 1, LinearFormS([1, 0, 2]),
          [(1, 0, 0), (0, 0, 1)]))
def test_hessian_matches_per_entry_contraction(case):
    f, d, j, ell, frame = case
    b = frame
    if frame is None:  # the zero F has no algebra, and an empty basis
        b = [] if f.is_zero() else GorensteinAlgebra(f, d).basis(j)
    assert _contracted_hessian(f, j, ell, b, d) == hessian_by_contraction(
        f, b, ell.coeffs)


@settings(max_examples=200, deadline=None)
@given(forms(homogeneous=False), st.data())
def test_integer_contraction_matches_fractions(form, data):
    f, d = form
    ell = data.draw(linear_forms(f.n_vars))
    k = data.draw(st.integers(0, d + 1))
    g = contract(ell, k, divided_powers(f, d + 1), d + 1)
    assert g == _packed(linear_power_contraction(ell.coeffs, k, f.terms),
                        f.n_vars, d + 1)
    # the pass converts nothing; its values are stored by the Mat that
    # the block reader fills (column key 0, the monomial 1, reads g as is)
    stored = Mat(cat_block(g, list(g), [0])).entries
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for c, in stored)


# ---------------------------------------------------------------------------
# The packed divided-power form: key(m) -> m! F_m, base d + 1


def _divided(m):
    return prod(map(factorial, m))


def _packed(terms, n_vars, base):
    """The packed divided-power form of the Fraction terms of a form."""
    keys = packed_keys(list(terms), n_vars, base)
    return {key: c * _divided(m) for key, (m, c) in zip(keys, terms.items())}


@st.composite
def packed_cases(draw):
    """(F, d, ell, k, rows, cols): F a sparse or one-term form of degree
    d in 1-5 variables, k up to d + 2, and monomials u, v with
    deg(u) + deg(v) <= d."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 9))
    one_term = draw(st.booleans())
    chosen = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                           min_size=1, max_size=1 if one_term else 8,
                           unique=True))
    coefs = draw(st.lists(coefficients.filter(bool), min_size=len(chosen),
                          max_size=len(chosen)))
    ell = draw(linear_forms(n))
    k = draw(st.integers(0, d + 2))
    rows, cols = [], []
    if k <= d and draw(st.booleans()):
        # u + v = a term of F less k units: an entry the block may not miss
        w = list(draw(st.sampled_from(chosen)))
        for _ in range(k):
            w[draw(st.sampled_from([i for i, e in enumerate(w) if e]))] -= 1
        u = tuple(draw(st.integers(0, e)) for e in w)
        v = tuple(e - x for e, x in zip(w, u))
        rows, cols, a, b = [u], [v], sum(u), sum(v)
    else:
        a = draw(st.integers(0, d))
        b = draw(st.integers(0, d - a))
    rows += draw(st.lists(st.sampled_from(monomials_of_degree(n, a)),
                          max_size=4))
    cols += draw(st.lists(st.sampled_from(monomials_of_degree(n, b)),
                          max_size=4))
    return Poly(n, RING_R, dict(zip(chosen, coefs))), d, ell, k, rows, cols


def _unit(n, i, e=1):
    return tuple(e if v == i else 0 for v in range(n))


def _add(*monomials):
    return tuple(map(sum, zip(*monomials)))


# 24 variables at d = 8: keys run to 24 log2(9) > 76 bits
_WIDE = Poly(24, RING_R, {
    _unit(24, 0, 8): 1, _unit(24, 23, 8): Fraction(3, 2),
    _add(_unit(24, 1), _unit(24, 5, 3), _unit(24, 23, 4)): -7})


@settings(max_examples=200, deadline=None)
@given(packed_cases())
@example((_WIDE, 8, LinearFormS([1] + [0] * 22 + [2]), 3,
          [_unit(24, 23, 2), _add(_unit(24, 5), _unit(24, 23))],
          [_unit(24, 23, 3), _add(_unit(24, 1), _unit(24, 5, 2))]))
@example((Poly(3, RING_R, {(0, 4, 0): Fraction(-5, 3)}), 4,
          LinearFormS([0, 2, 0]), 6, [(0, 1, 0)], [(0, 0, 0)]))
@example((Poly(3, RING_R, {(0, 0, 2): 2, (1, 1, 0): 3}), 2,
          LinearFormS([0, 0, 1]), 1, [(0, 0, 1), (1, 0, 0)], [(0, 0, 0)]))
def test_packed_pass_and_reader_match_the_definitions(case):
    # the pass against Fraction derivatives and the reader against
    # (u+v)! g_(u+v), both on the chain's base d + 1; the catalecticant
    # oracle, which packs nothing, against the same entries
    f, d, ell, k, rows, cols = case
    g = linear_power_contraction(ell.coeffs, k, f.terms)
    packed = contract(ell, k, divided_powers(f, d + 1), d + 1)
    assert packed == _packed(g, f.n_vars, d + 1)
    expected = [[_divided(w) * g.get(w, 0)
                 for w in (_add(u, v) for v in cols)] for u in rows]
    assert cat_block(packed, packed_keys(rows, f.n_vars, d + 1),
                     packed_keys(cols, f.n_vars, d + 1)) == expected
    if rows and cols:
        a, b = sum(rows[0]), sum(cols[0])
        assert catalecticant(Poly(f.n_vars, RING_R, g), a, a + b, rows,
                             cols).entries == expected


# ---------------------------------------------------------------------------
# Point-side bases of F = sum alpha_i L_i^d

coordinates = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
weights = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
).filter(bool)


@st.composite
def point_sets(draw):
    """Up to 8 distinct points of P^n, n <= 3; coordinates as drawn, so
    the first one is rarely 1 and sometimes 0 before normalization."""
    n = draw(st.integers(0, 3))
    pts = draw(st.lists(st.lists(coordinates, min_size=n + 1, max_size=n + 1)
                        .filter(any), min_size=1, max_size=8))
    try:
        return PointSet(pts)
    except ValueError:  # two draws gave the same projective point
        assume(False)


@st.composite
def power_sums(draw, d_range):
    x = draw(point_sets())
    alphas = draw(st.lists(weights, min_size=x.size, max_size=x.size))
    lo, hi = d_range(x.tau())
    assume(lo <= hi)
    return x, tuple(alphas), draw(st.integers(lo, hi))


@settings(max_examples=180, deadline=None)
@given(power_sums(lambda t: (0, 2 * t + 3)),
       st.lists(ell_coefficients, min_size=4, max_size=4))
@example((PointSet([[2, 1], [3, -1], [0, 5]]), (Fraction(-1, 2), 3, -7), 3),
         [3, Fraction(-2, 5), 0, 0])
# d = 2 tau - 2: F = 2X^2 + 2Y^2 - (X+Y)^2 = (X-Y)^2 has h = (1, 1, 1),
# while the points' V_1 has rank 2
@example((PointSet([[1, 0], [0, 1], [1, 1]]), (2, 2, -1), 2),
         [1, 2, 0, 0])
def test_point_side_bases_match_catalecticants(g, ell_coeffs):
    x, alphas, d = g
    f = power_sum(x.points, alphas, d, x.n + 1)
    ell_coeffs = ell_coeffs[:x.n + 1]
    assume(any(ell_coeffs))
    assume(not f.is_zero())  # low d can cancel every term
    # any d: of_points takes V_j's pivot columns only when they are the
    # basis of A_j (tau <= ceil(d/2)), catalecticants below that
    by_points = GorensteinAlgebra.of_points(x, alphas, d)
    by_catalecticants = GorensteinAlgebra(f, d)
    assert by_points.hilbert == by_catalecticants.hilbert
    for j in range(d // 2 + 1):
        assert by_points.basis(j) == by_catalecticants.basis(j)
    # the sum over the points equals the one-contraction Hessian of F
    ell = LinearFormS(ell_coeffs)
    for j in range(d // 2 + 1):
        assert by_points.hessian(j, ell)[0].entries == _contracted_hessian(
            f, j, ell, by_points.basis(j), d)



SI_CASES = ("1,2,1", "1,3,1", "1,2,2,1", "1,3,3,1", "1,3,5,3,1",
            "1,3,4,4,3,1", "1,3,6,6,3,1", "1,4,5,5,4,1", "1,2,3,3,2,1")


def _without_point(drop):
    """power_sum that leaves out the term of point `drop` (mod |X|)."""
    def without_one(points, alphas, d, n_vars):
        keep = [i for i in range(len(points)) if i != drop % len(points)]
        return power_sum([points[i] for i in keep], [alphas[i] for i in keep],
                         d, n_vars)
    return without_one


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SI_CASES), st.integers(0, 2 ** 16), st.data())
def test_a_term_missing_from_f_fails_the_rank_audit(h, seed, data):
    # bases and h come from the points, so only certify_at's rank route,
    # taken on the expanded F, can see that F lost a point's term
    assert is_SI(HVector.parse(h))
    s = max(HVector.parse(h))
    drop = data.draw(st.integers(0, s - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gorenstein, "power_sum", _without_point(drop))
        with pytest.raises(HessianRankMismatchError):
            construct_slp_algebra(HVector.parse(h), random.Random(seed))


VERIFIERS = {
    "rnc": lambda rng: verify_rnc_slp(2, 5, 4, rng),
    "rnc-p3": lambda rng: verify_rnc_slp(3, 7, 4, rng),
    "families": lambda rng: verify_corollary_families([1, 2], rng),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(VERIFIERS)), st.integers(0, 2 ** 16),
       st.integers(0, 2 ** 8))
def test_a_term_missing_from_f_fails_the_verifiers_rank_audit(name, seed,
                                                              drop):
    # check_slp on an of_points algebra takes its Hessians from the points
    # too: the lost term is a det/rank disagreement (a bug), not a
    # theorem instance without a Lefschetz witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gorenstein, "power_sum", _without_point(drop))
        with pytest.raises(HessianRankMismatchError):
            VERIFIERS[name](random.Random(seed))
