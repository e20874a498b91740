"""Power-sum algebras, Hilbert formula, realization pipeline."""

import random
from fractions import Fraction
from math import factorial

import pytest

from gorlef.apolar import LinearFormS, Poly, RING_R
from gorlef.construct import (ConstructionResult, _separating_form,
                              construct_slp_algebra,
                              hess_coefficient_criterion,
                              hilbert_formula_check, random_power_sum)
from gorlef.errors import (BadSubsetSizeError, HessianRankMismatchError,
                           NoWitnessFoundError, NotSIError,
                           PreconditionViolatedError)
from gorlef.gorenstein import (GorensteinAlgebra, check_slp, gram,
                               point_weights)
from gorlef.hvector import HVector
from gorlef.linalg import det
from gorlef.points import (PointSet, gen_collinear, gen_distraction,
                           gen_generic, gen_rnc, gen_two_lines,
                           lex_order_ideal)

from oracles import (catalecticant, linear_power_contraction,
                     linear_power_terms)


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def random_alphas(rng, size, box=9):
    return tuple(Fraction(rng.choice([k for k in range(-box, box + 1)
                                      if k != 0])) for _ in range(size))


def point_hessian(x, alphas, d, j, frame, ell):
    """Hess^j of sum alpha_i L_i^d at P_ell over any frame, from the
    points; zero weights allowed."""
    k = d - 2 * j
    return gram(x, frame, point_weights(x, alphas, k, ell),
                factorial(d) // factorial(k))[0]


class TestStructuredGenerator:
    """A power sum's weights, degree and expansion, as
    GorensteinAlgebra.of_points checks and builds them."""

    def test_expanded_matches_manual_sum(self):
        x = gen_two_lines(2, 2, False)
        g = GorensteinAlgebra.of_points(x, F(1, -2, 3, 5), 3)
        total = None
        for a, p in zip(g.alphas, x.points):
            term = Poly(3, RING_R, {m: a * c for m, c in
                                    linear_power_terms(p, 3).items()})
            total = term if total is None else total + term
        assert g.f.terms == total.terms

    def test_expanded_rational_points_match_repeated_multiplication(self):
        x = PointSet([F(1, Fraction(1, 2), Fraction(3, 7)), F(1, -2, 5),
                      F(Fraction(2, 5), 1, Fraction(-1, 4))])
        alphas = F(Fraction(1, 2), -3, Fraction(5, 4))
        for d in range(5):
            expected = {}
            for a, p in zip(alphas, x.points):
                for m, c in linear_power_terms(p, d).items():
                    expected[m] = expected.get(m, 0) + a * c
            g = GorensteinAlgebra.of_points(x, alphas, d)
            assert g.f.terms == {m: c for m, c in expected.items() if c}

    def test_zero_weight_rejected(self):
        x = gen_collinear(2, 2)
        with pytest.raises(ValueError):
            GorensteinAlgebra.of_points(x, F(1, 0), 2)

    def test_length_mismatch_rejected(self):
        x = gen_collinear(2, 3)
        with pytest.raises(ValueError):
            GorensteinAlgebra.of_points(x, F(1, 1), 2)

    def test_json_dict(self):
        x = gen_collinear(2, 2)
        doc = GorensteinAlgebra.of_points(x, F(1, -1), 4).power_sum_json()
        assert doc["d"] == 4
        assert doc["alphas"] == ["1", "-1"]
        assert "points" in doc


class TestStructuredHessian:
    def test_agrees_with_expanded_hessian(self):
        rng = random.Random(80)
        configs = [gen_two_lines(3, 2, False), gen_rnc(2, 5, [0, 1, 2, 3, 4])]
        for x in configs:
            tau = x.tau()
            d = 2 * tau
            alphas = random_alphas(rng, x.size)
            g = GorensteinAlgebra.of_points(x, alphas, d)
            algebra = GorensteinAlgebra(g.f, d)
            for _ in range(3):
                coeffs = [rng.randint(-9, 9) for _ in range(x.n + 1)]
                if not any(coeffs):
                    coeffs[0] = 1
                ell = LinearFormS(coeffs)
                for j in range(d // 2 + 1):
                    frame = algebra.basis(j)
                    fast = point_hessian(x, alphas, d, j, frame, ell)
                    # (d-2j)! Hess^j = Cat^j(ell^(d-2j) o F)[B, B]
                    h = linear_power_contraction(ell.coeffs, d - 2 * j,
                                                 g.f.terms)
                    slow = catalecticant(Poly(g.n_vars, RING_R, h), j, 2 * j,
                                         frame, frame)
                    k_fact = factorial(d - 2 * j)
                    assert [[k_fact * v for v in row]
                            for row in fast.entries] == slow.entries

    def test_zero_weights_allowed_in_assembly(self):
        x = gen_collinear(2, 3)
        ell = LinearFormS(F(1, 1, 1))
        m = point_hessian(x, F(0, 0, 0), 4, 1, [(1, 0, 0), (0, 1, 0)], ell)
        assert all(v == 0 for row in m.entries for v in row)

    def test_affine_linear_in_each_weight(self):
        # det Hess^j is multilinear in the alphas: the second finite
        # difference in any single weight vanishes identically.
        rng = random.Random(81)
        x = gen_two_lines(2, 2, False)
        d, j = 4, 2
        ones = GorensteinAlgebra.of_points(x, F(1, 1, 1, 1), d)
        frame = GorensteinAlgebra(ones.f, d).basis(j)
        ell = LinearFormS(F(3, 1, 2))
        base = list(random_alphas(rng, x.size))
        for i in range(x.size):
            vals = []
            for shift in (0, 1, 2):
                a = list(base)
                a[i] = base[i] + shift
                vals.append(det(point_hessian(x, a, d, j, frame, ell)))
            assert vals[2] - 2 * vals[1] + vals[0] == 0


class TestHilbertFormulaCheck:
    def test_matches_on_standard_configs(self):
        rng = random.Random(82)
        cases = [(gen_rnc(2, 5, [0, 1, 2, 3, 4]), None),
                 (gen_two_lines(3, 3, False), None),
                 (gen_generic(2, 6, rng), None),
                 (gen_collinear(3, 4), None)]
        for x, _ in cases:
            tau = x.tau()
            for d in (2 * tau - 1, 2 * tau, 2 * tau + 1):
                if d < 1:
                    continue
                g = GorensteinAlgebra.of_points(x, random_alphas(rng, x.size),
                                                d)
                match, actual, predicted = hilbert_formula_check(g)
                assert match, (actual, predicted)
                assert actual == tuple(x.hilbert(min(i, d - i))
                                       for i in range(d + 1))

    def test_low_degree_rejected(self):
        x = gen_two_lines(3, 3, False)  # tau = 3
        g = GorensteinAlgebra.of_points(x, F(1, 1, 1, 1, 1, 1), 4)
        with pytest.raises(PreconditionViolatedError):
            hilbert_formula_check(g)

    def test_an_algebra_from_a_polynomial_is_refused(self):
        # it used to be an AttributeError on the missing points
        x = gen_two_lines(3, 3, False)
        f = GorensteinAlgebra.of_points(x, F(1, 1, 1, 1, 1, 1), 6).f
        with pytest.raises(PreconditionViolatedError, match="of_points"):
            hilbert_formula_check(GorensteinAlgebra(f))


class TestCoefficientCriterion:
    def test_routes_agree_everywhere_small(self):
        from itertools import combinations
        rng = random.Random(83)
        x = PointSet([[Fraction(1), Fraction(0), Fraction(0)],
                      [Fraction(1), Fraction(1), Fraction(0)],
                      [Fraction(1), Fraction(2), Fraction(0)],
                      [Fraction(1), Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(1), Fraction(2)]])
        tau = x.tau()
        d = 2 * tau
        for j in range(tau):
            size = x.hilbert(j)
            for idx in combinations(range(x.size), size):
                det_route, hilb_route = hess_coefficient_criterion(
                    x, j, d, idx, rng, trials=30)
                assert det_route == hilb_route, (j, idx)

    def test_collinear_subset_fails_both(self):
        rng = random.Random(84)
        x = PointSet([[Fraction(1), Fraction(k), Fraction(0)]
                      for k in range(4)] + [[Fraction(1), Fraction(0),
                                             Fraction(1)],
                                            [Fraction(1), Fraction(1),
                                             Fraction(1)]])
        # h(1) = 3; three collinear points span only 2 in degree 1
        det_route, hilb_route = hess_coefficient_criterion(
            x, 1, 2 * x.tau(), [0, 1, 2], rng, trials=30)
        assert det_route is False and hilb_route is False

    def test_generic_subset_passes_both(self):
        rng = random.Random(85)
        x = gen_generic(2, 6, rng)
        det_route, hilb_route = hess_coefficient_criterion(
            x, 1, 2 * x.tau(), [0, 3, 5], rng, trials=30)
        assert det_route is True and hilb_route is True

    def test_subset_size_enforced(self):
        rng = random.Random(86)
        x = gen_generic(2, 6, rng)
        with pytest.raises(BadSubsetSizeError):
            hess_coefficient_criterion(x, 1, 2 * x.tau(), [0, 1], rng)
        with pytest.raises(BadSubsetSizeError):
            hess_coefficient_criterion(x, 1, 2 * x.tau(), [0, 1, 1], rng)
        with pytest.raises(BadSubsetSizeError):
            hess_coefficient_criterion(x, 1, 2 * x.tau(), [0, 1, 99], rng)

    def test_zero_trials_rejected(self):
        # the det route used to report False without computing a determinant
        x = gen_distraction(lex_order_ideal((1, 2, 3), 2))
        with pytest.raises(ValueError, match="trials"):
            hess_coefficient_criterion(x, 1, 2 * x.tau(), [0, 1, 2],
                                       random.Random(0), trials=0)

    def test_degree_window_enforced(self):
        rng = random.Random(87)
        x = gen_generic(2, 6, rng)
        tau = x.tau()
        with pytest.raises(PreconditionViolatedError):
            hess_coefficient_criterion(x, tau, 2 * tau, list(range(6)), rng)
        with pytest.raises(PreconditionViolatedError):
            hess_coefficient_criterion(x, 1, 2 * tau - 2, [0, 1, 2], rng)


class TestConstructSlpAlgebra:
    def test_trivial_single_entry(self):
        res = construct_slp_algebra(HVector.parse("1"), random.Random(88))
        assert tuple(res.algebra.hilbert) == (1,)
        assert res.certificate.verdict is True

    def test_trivial_one_variable(self):
        res = construct_slp_algebra(HVector.parse("1,1,1,1"),
                                    random.Random(89))
        assert tuple(res.algebra.hilbert) == (1, 1, 1, 1)
        assert res.algebra.x.size == 1
        assert res.certificate.verdict is True

    def test_flagship_sequence(self):
        res = construct_slp_algebra(HVector.parse("1,3,5,5,3,1"),
                                    random.Random(90))
        assert tuple(res.algebra.hilbert) == (1, 3, 5, 5, 3, 1)
        assert res.algebra.x.size == 5
        assert res.certificate.verdict is True
        methods = {r.j: r.method for r in res.certificate.per_degree}
        # hbar(1,3,5,5,3,1) stabilizes at t = 2
        assert methods[0] == "hessian-det" and methods[1] == "hessian-det"
        assert methods[2] == "map-rank"
        for r in res.certificate.per_degree:
            assert r.ok()

    def test_an_attempt_draws_the_weights_then_ell(self):
        res = construct_slp_algebra(HVector.parse("1,3,5,5,3,1"),
                                    random.Random(90))
        assert res.attempts_used == res.certificate.attempts == 1
        rng = random.Random(90)
        algebra = random_power_sum(res.algebra.x, 5, rng)
        ell = _separating_form(res.algebra.x, rng)
        assert res.algebra.alphas == algebra.alphas
        assert res.certificate.ell.coeffs == ell.coeffs

    def test_plateau_and_codim_two(self):
        for text in ("1,2,2,1", "1,2,3,3,2,1", "1,4,4,1", "1,3,3,3,1"):
            hv = HVector.parse(text)
            res = construct_slp_algebra(hv, random.Random(91))
            assert tuple(res.algebra.hilbert) == hv.entries

    def test_not_si_rejected(self):
        with pytest.raises(NotSIError):
            construct_slp_algebra(HVector.parse("1,13,12,13,1"),
                                  random.Random(92))
        with pytest.raises(NotSIError):
            construct_slp_algebra(HVector.parse("1,3,2,3,1"),
                                  random.Random(93))

    def test_json_document_shape(self):
        res = construct_slp_algebra(HVector.parse("1,2,2,1"),
                                    random.Random(94))
        doc = res.to_json_dict()
        for key in ("h", "points", "alphas", "d", "dual_generator",
                    "hilbert", "certificate", "attempts_used"):
            assert key in doc, key
        assert doc["h"] == [1, 2, 2, 1]
        assert doc["hilbert"] == [1, 2, 2, 1]
        assert doc["certificate"]["verdict"] is True

    def test_accepts_plain_sequences(self):
        res = construct_slp_algebra((1, 3, 1), random.Random(95))
        assert tuple(res.algebra.hilbert) == (1, 3, 1)


class TestRouteCheck:
    """One certificate path: a power sum's Hessian that differs from the
    catalecticant block of ell^(d-2j) o F raises on every caller.  An
    algebra built from a polynomial takes its det from that block, so it
    has no second computation to compare."""

    @pytest.fixture
    def lying_hessian(self, monkeypatch):
        # one entry off: the Hessian is no longer the catalecticant block
        true_hessian = GorensteinAlgebra.hessian

        def lie(algebra, j, ell):
            m, dv = true_hessian(algebra, j, ell)
            m.entries[0][0] += 1
            return m, dv

        monkeypatch.setattr(GorensteinAlgebra, "hessian", lie)

    @pytest.mark.parametrize("h", ["1,3,5,5,3,1", "1,1,1,1"],
                             ids=["points", "trivial"])
    def test_construct_raises(self, lying_hessian, h):
        with pytest.raises(HessianRankMismatchError):
            construct_slp_algebra(HVector.parse(h), random.Random(96))

    def test_a_lie_below_the_diagonal_raises(self, monkeypatch):
        # every entry is compared, not one triangle: the lie sits below
        # the diagonal only, on every line with more than one row
        true_hessian = GorensteinAlgebra.hessian

        def lie(algebra, j, ell):
            m, dv = true_hessian(algebra, j, ell)
            if m.rows > 1:
                m.entries[-1][0] += 1
            return m, dv

        monkeypatch.setattr(GorensteinAlgebra, "hessian", lie)
        with pytest.raises(HessianRankMismatchError):
            construct_slp_algebra(HVector.parse("1,3,5,5,3,1"),
                                  random.Random(96))

    def test_check_slp_raises(self, lying_hessian):
        algebra = GorensteinAlgebra.of_points(
            PointSet([[1, 2, 3], [1, -1, 1]]), [1, 1], 3)
        with pytest.raises(HessianRankMismatchError):
            check_slp(algebra, random.Random(97), attempts=3)
