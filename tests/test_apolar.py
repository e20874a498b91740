"""Polynomials and the differentiation pairing, against a dict oracle."""

import random
import re
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gorlef import apolar
from gorlef.apolar import (LinearFormS, Poly, RING_R, RING_S,
                           divided_powers, monomials_of_degree, power_sum)
from gorlef.errors import RingMismatchError, WorkBudgetError

from oracles import (apply_monomial, contract, contract_monomial,
                     degree_then_descending_lex, evaluate, is_homogeneous,
                     linear_form_poly, linear_power_terms, scale)


def rpoly(terms):
    return Poly(len(next(iter(terms))), RING_R, terms)


def spoly(terms):
    return Poly(len(next(iter(terms))), RING_S, terms)


class TestMonomials:
    def test_descending_lex_order(self):
        ms = monomials_of_degree(3, 2)
        assert ms[0] == (2, 0, 0)
        assert ms[-1] == (0, 0, 2)
        assert len(ms) == 6
        assert all(sum(m) == 2 for m in ms)

    def test_one_variable(self):
        assert monomials_of_degree(1, 4) == ((4,),)

    def test_degree_zero(self):
        assert monomials_of_degree(3, 0) == ((0, 0, 0),)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("deg", range(-1, 6))
    def test_every_monomial_once_in_descending_lex(self, n, deg):
        everything = [e for e in product(range(max(deg, 0) + 1), repeat=n)
                      if sum(e) == deg]
        assert list(monomials_of_degree(n, deg)) == sorted(everything,
                                                           reverse=True)

    def test_many_variables_within_the_budget(self):
        # 1,000 variables used to exceed Python's recursion limit
        ms = monomials_of_degree(1000, 1)
        assert len(ms) == 1000 and ms[0][0] == 1 and ms[-1][-1] == 1


class TestWorkBudget:
    def test_default_is_pinned(self):
        # far above the 7,722 exponents of the largest table the tests
        # or the benchmark ask for, power_sum in 6 variables at degree 8:
        # its walk visits only the prefixes some point keeps nonzero (376
        # terms for the benchmark's F), but the budget counts them all
        assert apolar.MAX_MONOMIAL_CELLS == 10 ** 6

    def test_a_table_at_the_budget_is_built(self):
        with mock.patch.object(apolar, "MAX_MONOMIAL_CELLS", 3 * 6):
            assert len(monomials_of_degree(3, 2)) == 6

    def test_a_table_above_the_budget_is_refused(self):
        with mock.patch.object(apolar, "MAX_MONOMIAL_CELLS", 3 * 6 - 1):
            with pytest.raises(WorkBudgetError):
                monomials_of_degree(3, 2)
            with pytest.raises(WorkBudgetError):
                power_sum([[1, 2, 3]], [1], 2, 3)

    def test_billions_of_variables_are_refused_before_building(self):
        with pytest.raises(WorkBudgetError, match="10000000000 variables"):
            monomials_of_degree(10 ** 10, 0)
        with pytest.raises(WorkBudgetError):
            power_sum([[1] * 3], [1], 2, 10 ** 10)


class TestContraction:
    """The oracle contraction that the package's kernels are checked against."""

    def test_simple_derivative(self):
        # x0 o X0^3 = 3 X0^2
        f = rpoly({(3, 0): 1})
        a = spoly({(1, 0): 1})
        assert contract(a, f) == rpoly({(2, 0): 3})

    def test_mixed_monomial(self):
        # x0 x1 o X0 X1 X2 = X2
        f = rpoly({(1, 1, 1): 1})
        a = spoly({(1, 1, 0): 1})
        assert contract(a, f) == rpoly({(0, 0, 1): 1})

    def test_annihilation(self):
        # x2 o X0 X1 = 0
        f = rpoly({(1, 1, 0): 1})
        a = spoly({(0, 0, 1): 1})
        assert contract(a, f).is_zero()

    def test_factorials_not_divided_powers(self):
        # x0^2 o X0^4 = 4*3 X0^2
        f = rpoly({(4,): 1})
        a = spoly({(2,): 1})
        assert contract(a, f) == rpoly({(2,): 12})

    def test_ring_mismatch_raises(self):
        f = rpoly({(1, 0): 1})
        with pytest.raises(RingMismatchError):
            contract(f, f)

    def test_module_action_composes(self):
        rng = random.Random(50)
        for _ in range(25):
            n = rng.randint(1, 3)
            f = _random_rpoly(rng, n, rng.randint(2, 5))
            a = _random_monomial(rng, n, rng.randint(0, 2))
            b = _random_monomial(rng, n, rng.randint(0, 2))
            ab = tuple(x + y for x, y in zip(a, b))
            lhs = contract_monomial(ab, f)
            rhs = contract_monomial(a, contract_monomial(b, f))
            assert lhs == rhs

    def test_linearity(self):
        rng = random.Random(51)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = _random_rpoly(rng, n, 4)
            g = _random_rpoly(rng, n, 4)
            a = spoly({_random_monomial(rng, n, 2): 1})
            assert contract(a, f + g) == contract(a, f) + contract(a, g)

    def test_against_derivative_oracle(self):
        rng = random.Random(52)
        for _ in range(40):
            n = rng.randint(1, 3)
            f = _random_rpoly(rng, n, rng.randint(1, 5))
            m = _random_monomial(rng, n, rng.randint(0, 3))
            expected = apply_monomial(dict(f.terms), m)
            got = contract_monomial(m, f)
            assert dict(got.terms) == expected


def _random_monomial(rng, n, deg):
    exp = [0] * n
    for _ in range(deg):
        exp[rng.randrange(n)] += 1
    return tuple(exp)


def _random_rpoly(rng, n, deg):
    mons = monomials_of_degree(n, deg)
    p = Poly(n, RING_R, {m: rng.randint(-4, 4) for m in mons})
    return Poly(n, RING_R, {mons[0]: 1}) if p.is_zero() else p


class TestPowersOfLinearForms:
    def test_expansion_matches_repeated_multiplication(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            d = rng.randint(0, 6)
            assert dict(power_sum([coeffs], [1], d, n).terms) == linear_power_terms(coeffs, d)

    def test_contract_power_formula(self):
        # x^m o L^d = d!/(d-j)! m(P_L) L^(d-j) for |m| = j
        L = [Fraction(1), Fraction(2), Fraction(-1)]
        f = power_sum([L], [1], 5, 3)
        m = (1, 1, 0)
        lhs = contract_monomial(m, f)
        rhs = power_sum([L], [5 * 4 * 1 * 2], 3, 3)
        assert lhs == rhs

    def test_packed_contraction_iterates(self):
        rng = random.Random(54)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = _random_rpoly(rng, n, 5)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            ell = LinearFormS(coeffs)
            k = rng.randint(0, 3)
            expected = f
            one_step = linear_form_poly(ell)
            for _ in range(k):
                expected = contract(one_step, expected)
            assert apolar.contract(ell, k, divided_powers(f, 6), 6) == \
                divided_powers(expected, 6)

    def test_packed_contraction_refuses_a_negative_power(self):
        f = Poly(2, RING_R, {(2, 1): 1})
        with pytest.raises(ValueError, match="k >= 0"):
            apolar.contract(LinearFormS([1, 1]), -1, divided_powers(f, 4), 4)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            LinearFormS([Fraction(0), Fraction(0)])


# Mostly zero coordinates, as in distraction points, so the walk skips
# most prefixes; some coordinates are Fractions.
_COORDS = st.sampled_from([0] * 6 + [1, -1, 2, -3, Fraction(1, 2),
                                     Fraction(-2, 3)])


@st.composite
def _point_sums(draw):
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.lists(_COORDS, min_size=n, max_size=n),
                           min_size=1, max_size=5))
    alphas = draw(st.lists(st.sampled_from([1, -1, 2, 0, Fraction(3, 2)]),
                           min_size=len(points), max_size=len(points)))
    return points, alphas, draw(st.integers(0, 6)), n


class TestPowerSum:
    """power_sum against sum_i alpha_i L_i^d by repeated multiplication."""

    @settings(max_examples=150, deadline=None)
    @given(_point_sums())
    @example(([[0, 1, 2], [1, 0, 0]], [1, 2], 3, 3))         # x0 = 0
    @example(([[0, 0, 5], [0, 2, 0]], [3, -1], 4, 3))        # one nonzero
    @example(([[Fraction(1, 3), 0, Fraction(-5, 2)]], [Fraction(2, 7)], 3,
              3))                                            # Fractions
    @example(([[1, 1], [1, -1]], [1, 1], 3, 2))  # the odd powers of X1 cancel
    @example(([[2, 3], [1, 0]], [5, -7], 0, 2))              # d = 0
    @example(([[3], [-2], [0]], [1, 4, 9], 5, 1))            # n_vars = 1
    def test_matches_the_sum_of_powers(self, case):
        points, alphas, d, n = case
        expected = {}
        for p, a in zip(points, alphas):
            for m, c in linear_power_terms(p, d).items():
                expected[m] = expected.get(m, 0) + a * c
        f = power_sum(points, alphas, d, n)
        assert f.terms == {m: c for m, c in expected.items() if c}
        assert list(f.terms) == sorted(f.terms, reverse=True)

    @pytest.mark.parametrize("args, message", [
        (([[1, 2], [1, 3]], [1], 2, 2), "2 points and 1 weights"),
        (([[1, 2]], [1, 5], 2, 2), "1 points and 2 weights"),
        (([[1, 2, 7]], [1], 2, 2), r"\[1, 2, 7\] needs 2 coordinates, has 3"),
        (([[1]], [1], 2, 2), r"\[1\] needs 2 coordinates, has 1"),
        (([[1, 2]], [1], -1, 2), "got -1 and 2"),
        (([[]], [1], 2, 0), "got 2 and 0"),
    ], ids=["a-point-without-weight", "a-weight-without-point",
            "a-coordinate-too-many", "a-coordinate-too-few",
            "negative-degree", "no-variables"])
    def test_mismatched_input_is_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            power_sum(*args)


class TestPolyBasics:
    def test_degree_and_homogeneity(self):
        p = rpoly({(2, 0): 1, (1, 1): 2})
        assert p.degree() == 2
        assert is_homogeneous(p)
        q = p + rpoly({(1, 0): 1})
        assert not is_homogeneous(q)

    def test_zero_polynomial_degree(self):
        assert Poly(2, RING_R).degree() == -1

    def test_evaluate(self):
        p = rpoly({(2, 1): 3})  # 3 X0^2 X1
        assert evaluate(p, [Fraction(2), Fraction(5)]) == 60

    @pytest.mark.parametrize("exp, bad", [
        ((Fraction(5, 2), 0), "Fraction(5, 2)"), ((2.7, 0), "2.7"),
        ((True, 1), "True"), ((-1, 3), "-1"), (("2", 0), "'2'")])
    def test_exponents_are_nonnegative_ints(self, exp, bad):
        with pytest.raises(ValueError, match=f"holds {re.escape(bad)}, not a"
                                             " nonnegative int"):
            Poly(2, RING_R, {exp: 1})

    @pytest.mark.parametrize("terms, message", [
        ({(1, 2, 3): 0, (1, 1): 2}, "wrong arity"),
        ({(-1, 2.5): 0, (1, 1): 2}, "not a nonnegative int")])
    def test_a_zero_term_is_checked_before_it_is_dropped(self, terms, message):
        with pytest.raises(ValueError, match=message):
            Poly(2, RING_R, terms)

    @pytest.mark.parametrize("exp", [[2.7, 0], [True, 1], [-1, 3]])
    def test_json_exponents_keep_their_message(self, exp):
        doc = {"n_vars": 2, "ring": "R", "terms": [{"exp": exp, "coef": "1"}]}
        with pytest.raises(ValueError) as info:
            Poly.from_json_dict(doc)
        assert str(info.value) == ('polynomial terms must be a list of '
                                   '{"exp": [int, ...], "coef": ...} objects')

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), st.integers(-3, 3), max_size=25)))
    def test_sorted_terms_follow_degree_then_descending_lex(self, terms):
        n = len(next(iter(terms), (0,)))
        p = Poly(n, RING_R, terms)
        assert p.sorted_terms() == sorted(
            p.terms.items(), key=lambda mc: degree_then_descending_lex(mc[0]))

    def test_json_roundtrip(self):
        p = rpoly({(1, 1, 1): 1, (3, 0, 0): -2})
        q = Poly.from_json_dict(p.to_json_dict())
        assert p == q and q.ring == RING_R

    def test_arithmetic_identities(self):
        rng = random.Random(55)
        for _ in range(10):
            f = _random_rpoly(rng, 2, 3)
            g = _random_rpoly(rng, 2, 2)
            assert (f + scale(f, -1)).is_zero()
            assert (f + g).degree() == max(f.degree(), g.degree())
            assert f + g == g + f

    def test_pairing_of_dual_forms(self):
        # ell o L = <ell, P_L>, as the packed contraction gives it
        ell = LinearFormS([Fraction(1), Fraction(2)])
        L = power_sum([[Fraction(3), Fraction(-1)]], [1], 1, 2)
        assert apolar.contract(ell, 1, divided_powers(L, 2), 2) == \
            divided_powers(Poly(2, RING_R, {(0, 0): 1}), 2)
