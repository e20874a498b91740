"""Stored scalars are ints when integral and Fractions otherwise.

linalg.exact decides once, in the constructors that store scalars;
the kernels convert nothing.  So every constructor must normalise
whatever it is given (ints, integral and non-integral Fractions, "p/q"
strings, dyadic floats), and every kernel must give the same values
whether integral data comes in as ints or as Fractions.
"""

from fractions import Fraction
from math import factorial

from hypothesis import assume, example, given, settings, strategies as st

from gorlef.apolar import (LinearFormS, Poly, RING_R, contract,
                           divided_powers, monomials_of_degree, power_sum)
from gorlef.gorenstein import GorensteinAlgebra, gram, point_weights
from gorlef.linalg import Mat, det
from gorlef.points import PointSet

SETTINGS = settings(max_examples=120, deadline=None)

integral = st.integers(-40, 40)
rational = st.fractions(min_value=-9, max_value=9, max_denominator=12)
scalars = st.one_of(
    integral,
    integral.map(Fraction),
    rational,
    integral.map(str),
    rational.map(str),
    st.sampled_from([0.5, -2.0, 1.25, 3.0]),
)


def is_exact(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def all_exact(values) -> bool:
    return all(is_exact(c) for c in values)


@SETTINGS
@given(st.lists(scalars, min_size=1, max_size=6))
def test_poly_terms(coefs):
    mons = monomials_of_degree(2, 3)
    f = Poly(2, RING_R, dict(zip(mons, coefs)))
    assert all_exact(f.terms.values())
    doc = {"n_vars": 2, "ring": RING_R,
           "terms": [{"exp": list(m), "coef": str(Fraction(c))}
                     for m, c in zip(mons, coefs)]}
    assert Poly.from_json_dict(doc) == f
    assert all_exact(Poly.from_json_dict(doc).terms.values())


@SETTINGS
@given(st.lists(scalars, min_size=1, max_size=5))
def test_linear_form_coefficients(coeffs):
    assume(any(Fraction(c) for c in coeffs))
    assert all_exact(LinearFormS(coeffs).coeffs)


@SETTINGS
@given(st.lists(st.lists(scalars, min_size=3, max_size=3),
                min_size=1, max_size=5))
@example([[0, 3, 6], [2, 1, "1/2"], [Fraction(4), 0, 0]])
@example([["-2", 1.25, Fraction(1, 3)]])
def test_point_coordinates(points):
    try:
        x = PointSet(points)
    except ValueError:  # a zero vector or a repeated projective point
        assume(False)
    for p in x.points:
        assert all_exact(p)
        assert next(c for c in p if c != 0) == 1


@SETTINGS
@given(st.lists(scalars, min_size=3, max_size=3))
def test_generator_weights(alphas):
    assume(all(Fraction(a) for a in alphas))
    x = PointSet([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = GorensteinAlgebra.of_points(x, alphas, 2)
    assert all_exact(g.alphas)
    assert all_exact(g.f.terms.values())


@SETTINGS
@given(st.lists(st.lists(scalars, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_matrix_entries(rows):
    assert all(all_exact(row) for row in Mat(rows).entries)


# ---------------------------------------------------------------------------
# The same integral data as ints and as Fractions

small = st.integers(-9, 9)


def as_fractions(values):
    return [Fraction(v) for v in values]


@SETTINGS
@given(st.lists(st.lists(small, min_size=3, max_size=3).filter(any),
                min_size=1, max_size=4,
                unique_by=lambda p: PointSet([p]).points),
       st.data())
def test_kernels_agree_on_int_and_fraction_input(points, data):
    s = len(points)
    alphas = data.draw(st.lists(small, min_size=s, max_size=s))
    d = data.draw(st.integers(0, 5))
    fpoints = [as_fractions(p) for p in points]
    falphas = as_fractions(alphas)
    f = power_sum(points, alphas, d, 3)
    assert power_sum(fpoints, falphas, d, 3) == f
    assert all_exact(f.terms.values())

    ell = data.draw(st.lists(small, min_size=3, max_size=3).filter(any))
    j = data.draw(st.integers(0, d // 2))
    frame = monomials_of_degree(3, j)
    # a PointSet stores ints either way; the weights and ell still differ
    scale = factorial(d) // factorial(d - 2 * j)
    x, fx = PointSet(points), PointSet(fpoints)
    m, dv = gram(x, frame,
                 point_weights(x, alphas, d - 2 * j, LinearFormS(ell)), scale)
    assert gram(fx, frame,
                point_weights(fx, falphas, d - 2 * j,
                              LinearFormS(as_fractions(ell))), scale) == (m, dv)
    assert all(all_exact(row) for row in m.entries)
    assert dv == det(Mat([as_fractions(row) for row in m.entries]))

    k = data.draw(st.integers(0, d))
    g = contract(LinearFormS(ell), k, divided_powers(f, d + 1), d + 1)
    fg = contract(LinearFormS(as_fractions(ell)), k,
                  divided_powers(Poly(3, RING_R, {e: Fraction(c)
                                                  for e, c in f.terms.items()}),
                                 d + 1), d + 1)
    assert g == fg
    assert all_exact(g.values())
