"""Catalecticants, Hilbert functions, Hessians, Lefschetz certificates."""

import random
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gorlef.apolar import (LinearFormS, Poly, RING_R, RING_S,
                           monomials_of_degree, power_sum)
from gorlef.errors import (DegreeOutOfRangeError, HessianRankMismatchError,
                           NotHomogeneousError, PreconditionViolatedError,
                           RingMismatchError, WorkBudgetError,
                           ZeroGeneratorError)
from gorlef.gorenstein import (GorensteinAlgebra, certify_at, check_slp, check_wlp, gram,
                               point_weights, sample_linear_form)
from gorlef import apolar, gorenstein, linalg, points as points_module
from gorlef.construct import construct_slp_algebra
from gorlef.hvector import HVector
from gorlef.linalg import det, rank
from gorlef.points import PointSet

from oracles import (catalecticant, evaluate, exact_multiplication_rank,
                     gauss_pivot_columns, gauss_rank, laplace_det,
                     linear_power_contraction, point_gram, transpose)


def rmono(n, exp, c=1):
    return Poly(n, RING_R, {exp: c})


X0X1X2 = rmono(3, (1, 1, 1))
X0X1X2_B1 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]  # basis of A_1, d = 3


def pivot_basis(f, j, d):
    """The basis of A_j: the algebra's for j <= floor(d/2), above that
    the pivot rows of Cat^j(F) by the Fraction elimination."""
    if j <= d // 2:
        return GorensteinAlgebra(f, d).basis(j)
    transposed = [list(col) for col in zip(*catalecticant(f, j, d).entries)]
    rows = monomials_of_degree(f.n_vars, j)
    return [rows[i] for i in gauss_pivot_columns(transposed)]


def algebra_cat(f, j, d):
    """Cat^j(F) as GorensteinAlgebra(f, d) reads it off its packed F,
    checked against the definitional oracle."""
    algebra = GorensteinAlgebra(f, d)
    m = algebra._block(algebra._divided, monomials_of_degree(f.n_vars, j),
                       monomials_of_degree(f.n_vars, d - j))
    assert m == catalecticant(f, j, d)
    return m


class TestCatalecticant:
    def test_hand_case(self):
        # F = X0 X1: Cat^1 over rows (x0, x1), cols (x0, x1)
        m = algebra_cat(rmono(2, (1, 1)), 1, 2)
        assert m.rows == 2 and m.cols == 2
        assert m.entries == [[0, 1], [1, 0]]

    def test_factorial_normalization(self):
        # F = X0^2: (x0 * x0) o F = 2, recorded with 2! not 1
        m = algebra_cat(rmono(2, (2, 0)), 1, 2)
        assert m.entries[0][0] == 2

    def test_rank_symmetry(self):
        f = X0X1X2
        for j in range(4):
            assert rank(algebra_cat(f, j, 3)) == rank(algebra_cat(f, 3 - j, 3))

    def test_generator_in_s_is_a_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            GorensteinAlgebra(Poly(3, RING_S, {(1, 1, 1): 1}))

    def test_form_checks_come_before_the_ring_check(self):
        with pytest.raises(NotHomogeneousError):
            GorensteinAlgebra(Poly(3, RING_S, {(1, 1, 1): 1, (1, 0, 0): 1}))
        with pytest.raises(DegreeOutOfRangeError):
            GorensteinAlgebra(Poly(3, RING_S, {(1, 1, 1): 1}), 2)

    def test_the_degree_j_table_meets_the_budget_first(self):
        # 11 variables: the degree-0 table holds 11 exponents, the
        # degree-3 one 3,146; the first table checked names the error
        with mock.patch.object(apolar, "MAX_MONOMIAL_CELLS", 10):
            with pytest.raises(WorkBudgetError, match="degree-0 monomials"):
                GorensteinAlgebra(rmono(11, (3,) + (0,) * 10))

    def test_matches_gauss_oracle(self):
        rng = random.Random(60)
        for _ in range(15):
            f = _random_form(rng, 3, 4)
            for j in range(3):
                m = algebra_cat(f, j, 4)
                assert rank(m) == gauss_rank(m.entries)


def _random_form(rng, n, d):
    p = Poly(n, RING_R,
             {m: rng.randint(-3, 3) for m in monomials_of_degree(n, d)})
    if p.is_zero():
        p = rmono(n, monomials_of_degree(n, d)[0])
    return p


class TestHilbertFunction:
    def test_frozen_cases(self):
        assert tuple(GorensteinAlgebra(rmono(1, (3,))).hilbert) == (1, 1, 1, 1)
        assert tuple(GorensteinAlgebra(X0X1X2).hilbert) == (1, 3, 3, 1)
        f = rmono(2, (2, 0)) + rmono(2, (0, 2))
        assert tuple(GorensteinAlgebra(f).hilbert) == (1, 2, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroGeneratorError):
            GorensteinAlgebra(Poly(2, RING_R))

    def test_symmetric_always(self):
        rng = random.Random(61)
        for _ in range(20):
            f = _random_form(rng, rng.randint(1, 3), rng.randint(1, 5))
            h = tuple(GorensteinAlgebra(f).hilbert)
            assert h == h[::-1]


class TestBasis:
    def test_basis_size_is_hilbert_value(self):
        f = X0X1X2
        h = GorensteinAlgebra(f).hilbert
        for j in range(4):
            assert len(pivot_basis(f, j, 3)) == h[j]

    def test_basis_of_monomial_algebra(self):
        # F = X0^3: only powers of x0 survive
        f = rmono(2, (3, 0))
        assert pivot_basis(f, 1, 3) == [(1, 0)]
        assert pivot_basis(f, 2, 3) == [(2, 0)]


def _certified_dets(f, d, ell):
    """det Hess^j(F)(P_ell), j <= floor(d/2), as certify_at records them
    for the algebra built from the polynomial F."""
    return [r.det for r in certify_at(GorensteinAlgebra(f, d), ell)]


class TestHessian:
    """Hess^j(F)(P_ell): certify_at's det for an algebra built from a
    polynomial, gram's matrix and det over points."""

    def test_monomial_product_hand_case(self):
        assert _certified_dets(X0X1X2, 3, LinearFormS([1, 1, 1]))[1] == 2

    def test_degenerate_direction(self):
        assert _certified_dets(X0X1X2, 3, LinearFormS([1, 0, 0]))[1] == 0

    def test_hess0_is_evaluation(self):
        ell = LinearFormS([2, 1, 1])
        assert _certified_dets(X0X1X2, 3, ell)[0] == evaluate(X0X1X2,
                                                              ell.coeffs)

    def test_symmetric_matrix(self):
        # the block Cat^j(ell^(d-2j) o F)[B, B] that certify_at eliminates
        rng = random.Random(62)
        f = _random_form(rng, 3, 4)
        ell = sample_linear_form(3, rng)
        b = pivot_basis(f, 1, 4)
        g = linear_power_contraction(ell.coeffs, 2, f.terms)
        m = catalecticant(Poly(3, RING_R, g), 1, 2, b, b)
        assert m == transpose(m)

    def test_rank_one_for_pure_power(self):
        # Hess^j(L^d) has rank one wherever it is nonzero, on any frame
        x = PointSet([[1, 2, 3]])
        ell = LinearFormS([1, 1, 1])
        hess, dv = gram(x, monomials_of_degree(3, 1),
                        point_weights(x, [1], 2, ell), 12)
        assert rank(hess) == 1 and dv == 0

    def test_non_form_rejected(self):
        # lower-degree terms would be silently dropped by the contraction
        with pytest.raises(NotHomogeneousError):
            GorensteinAlgebra(X0X1X2 + rmono(3, (1, 0, 0)), 3)
        with pytest.raises(DegreeOutOfRangeError):
            GorensteinAlgebra(X0X1X2, 4)

    def test_zero_generator_gives_zero_matrix(self):
        # every weight zero: F = 0 over the points
        x = PointSet([[1, 0, 0], [1, 1, 2]])
        hess, dv = gram(x, [(1, 0, 0), (0, 1, 0)], [0, 0], 12)
        assert hess.entries == [[0, 0], [0, 0]] and dv == 0

    def test_variable_count_mismatch(self):
        with pytest.raises(RingMismatchError):
            certify_at(GorensteinAlgebra(X0X1X2), LinearFormS([1, 2]))

    def test_an_algebra_from_a_polynomial_has_no_hessian_call(self):
        with pytest.raises(PreconditionViolatedError, match="of_points"):
            GorensteinAlgebra(X0X1X2).hessian(1, LinearFormS([1, 1, 1]))

    def test_an_algebra_from_a_polynomial_has_no_power_sum_json(self):
        # it used to be an AttributeError on the missing points
        with pytest.raises(PreconditionViolatedError, match="of_points"):
            GorensteinAlgebra(X0X1X2).power_sum_json()


def _wlp_ranks(algebra, ell):
    """The rank of x ell: A_i -> A_(i+1) on each WLP line, i < d."""
    return [r.rank for r in gorenstein._wlp_lines(algebra, ell)]


class TestMultiplicationRank:
    A = GorensteinAlgebra(X0X1X2, 3)

    def test_full_rank_for_separating_form(self):
        ell = LinearFormS([1, 1, 1])
        h = self.A.hilbert
        assert _wlp_ranks(self.A, ell) == [min(h[i], h[i + 1])
                                           for i in range(3)]

    def test_annihilating_power(self):
        # x0 o X1^2 X2 = 0, so x0 is 0 in A and multiplies with rank 0
        algebra = GorensteinAlgebra(rmono(3, (0, 2, 1)))
        assert _wlp_ranks(algebra, LinearFormS([1, 0, 0])) == [0, 0, 0]

    def test_large_multiple_keeps_its_exact_rank(self):
        # 1073741789 is prime: every entry of this F's catalecticants is
        # 0 modulo it, so only an exact rank gets these right
        f = rmono(3, (1, 1, 1), 1073741789)
        ell = LinearFormS([1, 2, 3])
        ranks = _wlp_ranks(GorensteinAlgebra(f), ell)
        assert ranks == [exact_multiplication_rank(f, i, 1, ell, 3)
                         for i in range(3)]
        assert all(ranks)

    def test_construct_audit_ranks_the_basis_blocks(self, monkeypatch):
        # every det is nonzero on a verdict-true certificate, so the audit
        # builds one h(j) x h(j) block per line and eliminates none of them
        shapes, ranked = [], []
        real = gorenstein.cat_block

        def spy(*args):
            m = real(*args)
            shapes.append((len(m), len(m[0])))
            return m

        monkeypatch.setattr(gorenstein, "cat_block", spy)
        monkeypatch.setattr(linalg, "rank", lambda m: ranked.append(m))
        h = HVector.parse("1,3,5,5,3,1")
        res = construct_slp_algebra(h, random.Random(7))
        assert res.certificate.verdict
        assert set(shapes) == {(h[j], h[j]) for j in range(3)}
        assert ranked == []


class TestLefschetzChecks:
    def test_slp_for_monomial_complete_intersections(self):
        rng = random.Random(63)
        for f in (rmono(1, (4,)), X0X1X2, rmono(2, (2, 1))):
            cert = check_slp(GorensteinAlgebra(f), rng)
            assert cert.verdict
            assert cert.ell is not None
            for rec in cert.per_degree:
                assert rec.ok()

    def test_wlp_follows_slp_here(self):
        rng = random.Random(64)
        cert = check_wlp(GorensteinAlgebra(X0X1X2), rng)
        assert cert.verdict
        assert [r.required for r in cert.per_degree] == [1, 3, 1]

    def test_certificate_json_shape(self):
        rng = random.Random(65)
        cert = check_slp(GorensteinAlgebra(X0X1X2), rng)
        doc = cert.to_json_dict()
        assert doc["kind"] == "slp" and doc["verdict"] is True
        assert isinstance(doc["ell"], list)
        assert {"j", "method", "det", "rank", "required"} <= set(doc["degrees"][0])

    def test_det_and_rank_routes_agree(self):
        # the MW equivalence is enforced internally; a run over random
        # forms must never raise the mismatch error
        rng = random.Random(66)
        for _ in range(10):
            f = _random_form(rng, 3, rng.choice([2, 3, 4]))
            try:
                check_slp(GorensteinAlgebra(f), rng, attempts=5)
            except HessianRankMismatchError as exc:  # pragma: no cover
                pytest.fail(f"routes disagree: {exc}")

    def test_verdict_false_without_witness_is_not_an_error(self, monkeypatch):
        # an algebra that genuinely fails WLP in characteristic 0 is hard
        # to produce here; instead check exhaustion semantics with a tiny
        # box that forces ell = 0 rejection paths to still terminate
        monkeypatch.setattr(gorenstein, "_COEFF_BOX", 1)
        rng = random.Random(67)
        cert = check_slp(GorensteinAlgebra(X0X1X2), rng, attempts=1)
        assert cert.attempts == 1
        assert isinstance(cert.verdict, bool)

    @pytest.mark.parametrize("n_vars", [0, -1])
    def test_no_variables_is_refused_before_any_draw(self, n_vars):
        # the only coefficient vector used to be empty, redrawn forever
        rng = random.Random(68)
        state = rng.getstate()
        with pytest.raises(ValueError, match="variable"):
            sample_linear_form(n_vars, rng)
        assert rng.getstate() == state


class TestAlgebraContainer:
    def test_eager_hilbert_and_codim(self):
        a = GorensteinAlgebra(X0X1X2)
        assert tuple(a.hilbert) == (1, 3, 3, 1)
        assert a.codimension() == 3
        assert a.d == 3

    def test_inhomogeneous_rejected(self):
        f = X0X1X2 + rmono(3, (1, 0, 0))
        with pytest.raises(NotHomogeneousError):
            GorensteinAlgebra(f)

    @pytest.mark.parametrize("d", [2, 4])
    def test_degree_other_than_d_rejected(self, d):
        with pytest.raises(DegreeOutOfRangeError):
            GorensteinAlgebra(X0X1X2, d)


def _algebras():
    """One algebra from a polynomial and one from points, d = 3 and 4."""
    x = PointSet([[1, 0], [0, 1], [1, 1]])
    return [GorensteinAlgebra(X0X1X2),
            GorensteinAlgebra.of_points(x, (1, 2, -1), 4)]


class TestBasisRange:
    """The algebra keeps the bases of A_j for 0 <= j <= floor(d/2) only."""

    @pytest.mark.parametrize("algebra", _algebras(), ids=["poly", "points"])
    def test_kept_degrees(self, algebra):
        for j in range(algebra.d // 2 + 1):
            assert len(algebra.basis(j)) == algebra.hilbert[j]

    @pytest.mark.parametrize("algebra", _algebras(), ids=["poly", "points"])
    def test_other_degrees_raise(self, algebra):
        for j in (-1, algebra.d // 2 + 1):
            with pytest.raises(DegreeOutOfRangeError):
                algebra.basis(j)

    @pytest.mark.parametrize("algebra", _algebras(), ids=["poly", "points"])
    def test_hessian_past_half_raises(self, algebra):
        ell = LinearFormS([1] * algebra.n_vars)
        with pytest.raises(DegreeOutOfRangeError):
            algebra.hessian(algebra.d // 2 + 1, ell)


@st.composite
def _sparse_forms(draw):
    """Homogeneous F in 2-4 variables, not built from points."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 6 if n < 4 else 5))
    mons = monomials_of_degree(n, d)
    chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=6,
                           unique=True))
    coefs = draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool),
        min_size=len(chosen), max_size=len(chosen)))
    return Poly(n, RING_R, dict(zip(chosen, coefs))), d


class TestHalfCatalecticants:
    """The algebra eliminates only Cat^(d-j), j <= d/2; check it in full."""

    @settings(max_examples=60, deadline=None)
    @given(_sparse_forms())
    def test_mirrored_hilbert_and_bases(self, form):
        f, d = form
        full = [gauss_rank(catalecticant(f, j, d).entries) for j in range(d + 1)]
        algebra = GorensteinAlgebra(f, d)
        assert list(algebra.hilbert) == full
        for j in range(d // 2 + 1):
            cat = catalecticant(f, j, d)
            rows = monomials_of_degree(f.n_vars, j)
            transposed = [list(col) for col in zip(*cat.entries)]
            expected = [rows[i] for i in gauss_pivot_columns(transposed)]
            assert algebra.basis(j) == expected
            assert pivot_basis(f, j, d) == expected


@st.composite
def _power_sums(draw, on_points):
    """F = sum alpha_i L_i^d over 1-6 points of P^1 or P^2, with d on the
    point-basis route (2 tau <= d+1) or below it (catalecticant route),
    and F != 0."""
    n = draw(st.integers(1, 2))
    rest = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    x = PointSet([[1, *p] for p in draw(
        st.lists(rest, min_size=1, max_size=6, unique_by=tuple))])
    tau = x.tau()
    assume(on_points or tau >= 2)
    d = draw(st.integers(max(1, 2 * tau - 1), 2 * tau + 1) if on_points
             else st.integers(1, 2 * tau - 2))
    alphas = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=x.size,
                           max_size=x.size))
    # Below the regularity the L_i^d can be dependent (three collinear
    # points and d = 1), so the sum may cancel to F = 0: no algebra.
    assume(not power_sum(x.points, alphas, d, n + 1).is_zero())
    return GorensteinAlgebra.of_points(x, alphas, d)


_ELLS = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


class TestBlockAudit:
    """_wlp_lines ranks x ell: A_i -> A_(i+1) on the block of Cat^i(ell o
    F) with rows B_i and, when d-1-i <= floor(d/2), columns B_(d-1-i),
    once per mirror pair of lines: it must still give the exact rank of
    the whole catalecticant, degenerate ell too, so the block loses no
    rank the full matrix has."""

    @staticmethod
    def _every_line(algebra, coeffs):
        assume(any(coeffs[:algebra.n_vars]))
        ell = LinearFormS(coeffs[:algebra.n_vars])
        n, d, h = algebra.n_vars, algebra.d, algebra.hilbert
        shapes = []
        real = gorenstein.cat_block

        def spy(*args):
            m = real(*args)
            shapes.append((len(m), len(m[0])))
            return m

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gorenstein, "cat_block", spy)
            lines = gorenstein._wlp_lines(algebra, ell)
        halves = [(i, d - 1 - i) for i in range((d + 1) // 2)]
        assert shapes == [(h[i], h[lo] if lo <= d // 2
                           else len(monomials_of_degree(n, lo)))
                          for i, lo in halves]
        for r in lines:
            assert r.rank == exact_multiplication_rank(algebra.f, r.j, 1,
                                                       ell, d)

    @settings(max_examples=60, deadline=None)
    @given(_power_sums(on_points=True), _ELLS)
    def test_point_basis_route(self, algebra, coeffs):
        assert 2 * algebra.x.tau() <= algebra.d + 1
        self._every_line(algebra, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(_power_sums(on_points=False), _ELLS)
    def test_catalecticant_basis_route(self, algebra, coeffs):
        assert 2 * algebra.x.tau() > algebra.d + 1
        self._every_line(algebra, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(_sparse_forms(), st.lists(st.integers(-2, 2), min_size=4,
                                     max_size=4))
    def test_polynomial_algebras(self, form, coeffs):
        f, d = form
        assume(not f.is_zero())
        self._every_line(GorensteinAlgebra(f, d), coeffs)


def _through(points):
    """A linear form vanishing at the first point of P^1 or first two of P^2."""
    if len(points[0]) == 2:
        a0, a1 = points[0]
        return [a1, -a0]
    (a0, a1, a2), (b0, b1, b2) = points[:2]
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


class TestCertifiedRanks:
    """certify_at records h(j) on a line with a nonzero det and the exact
    rank of its block otherwise: on every SLP line that must be the rank
    of the whole catalecticant of ell^(d-2j) o F.  Coordinate forms, and
    forms through points of X, are where det = 0 lines turn up.  The WLP
    lines past the middle reuse the rank of their mirror line, which must
    be their own rank too."""

    @staticmethod
    def _every_line(algebra, data):
        n, d, x = algebra.n_vars, algebra.d, algebra.x
        ells = [st.integers(0, n - 1).map(lambda i: [int(c == i)
                                                     for c in range(n)]),
                st.lists(st.integers(-2, 2), min_size=n, max_size=n)]
        if x is not None and x.size >= n - 1:
            ells.append(st.permutations(x.points).map(_through))
        coeffs = data.draw(st.one_of(ells))
        assume(any(coeffs))
        ell = LinearFormS(coeffs)
        records = certify_at(algebra, ell)
        assert [r.j for r in records] == list(range(d // 2 + 1))
        for r in records:
            assert r.rank == exact_multiplication_rank(
                algebra.f, r.j, d - 2 * r.j, ell, d)
            assert (r.det != 0) == (r.rank == r.required)
        wlp = gorenstein._wlp_lines(algebra, ell)
        assert [r.j for r in wlp] == list(range(d))
        for r in wlp:
            assert r.rank == exact_multiplication_rank(algebra.f, r.j, 1,
                                                       ell, d)

    @settings(max_examples=60, deadline=None)
    @given(_power_sums(on_points=True), st.data())
    def test_point_basis_route(self, algebra, data):
        self._every_line(algebra, data)

    @settings(max_examples=60, deadline=None)
    @given(_power_sums(on_points=False), st.data())
    def test_catalecticant_basis_route(self, algebra, data):
        self._every_line(algebra, data)

    @settings(max_examples=60, deadline=None)
    @given(_sparse_forms(), st.data())
    def test_polynomial_algebras(self, form, data):
        f, d = form
        assume(not f.is_zero())
        self._every_line(GorensteinAlgebra(f, d), data)


@st.composite
def _plateau_power_sums(draw):
    """F = sum alpha_i L_i^d over 1-5 points of P^1 or P^2, some with
    x0 = 0, Fraction weights, and d >= 2 tau: the lines tau..floor(d/2)
    have h(j) = s."""
    n = draw(st.integers(1, 2))
    x = PointSet(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
        .filter(any), min_size=1, max_size=5,
        unique_by=lambda p: PointSet([p]).points)))
    alphas = draw(st.lists(st.fractions(-4, 4, max_denominator=5)
                           .filter(bool), min_size=x.size, max_size=x.size))
    d = draw(st.integers(2 * x.tau(), 2 * x.tau() + 3))
    return GorensteinAlgebra.of_points(x, alphas, d)


class TestPlateauDeterminants:
    """On a line with h(j) = s, certify_at records det Hess^j(F)(P_ell)
    as a product over the points.  The oracle expands the Hessian that
    the algebra sums over the points by cofactors, and ranks the whole
    catalecticant of ell^(d-2j) o F when the det is 0."""

    @settings(max_examples=80, deadline=None)
    @given(_plateau_power_sums(), st.data())
    def test_recorded_det_is_the_cofactor_det(self, algebra, data):
        n, d, x = algebra.n_vars, algebra.d, algebra.x
        ells = [st.lists(st.integers(-2, 2), min_size=n, max_size=n)]
        if x.size >= n - 1:
            ells.append(st.permutations(x.points).map(_through))
        coeffs = data.draw(st.one_of(ells))
        assume(any(coeffs))
        ell = LinearFormS(coeffs)
        plateau = [r for r in certify_at(algebra, ell)
                   if len(algebra.basis(r.j)) == x.size]
        assert [r.j for r in plateau] == list(range(x.tau(), d // 2 + 1))
        for r in plateau:
            assert r.det == laplace_det(algebra.hessian(r.j, ell)[0].entries)
            assert r.rank == exact_multiplication_rank(
                algebra.f, r.j, d - 2 * r.j, ell, d)

    @settings(max_examples=40, deadline=None)
    @given(_plateau_power_sums(), _ELLS)
    def test_catalecticant_pivots_as_the_frame(self, algebra, coeffs):
        # algebra.hessian on the algebra's basis, and gram's det on
        # any frame of s monomials, so on the pivots of Cat^(d-j) of the
        # expanded F as well
        assume(any(coeffs[:algebra.n_vars]))
        ell = LinearFormS(coeffs[:algebra.n_vars])
        g, d = algebra, algebra.d
        for j in range(g.x.tau(), d // 2 + 1):
            hess, dv = g.hessian(j, ell)
            assert dv == laplace_det(hess.entries)
            frame = pivot_basis(algebra.f, j, d)
            assert len(frame) == g.x.size
            weights = point_weights(g.x, g.alphas, d - 2 * j, ell)
            scale = factorial(d) // factorial(d - 2 * j)
            hess, dv = gram(g.x, frame, weights, scale)
            assert dv == laplace_det(hess.entries)

    def test_an_ell_through_a_point_leaves_a_square_support(self, monkeypatch):
        # s = 5 points of P^1, d = 2 tau = 8: at j = 3, h(j) = 4 = s - 1, and
        # an ell through one point leaves |S| = m = 4 < s points, so the det
        # is det(V_S)^2 times the weights, V_S eliminated once per support
        x = PointSet([[1, t] for t in (-2, -1, 0, 1, 3)])
        algebra = GorensteinAlgebra.of_points(
            x, [2, Fraction(-1, 3), 5, 1, Fraction(7, 2)], 2 * x.tau())
        j = 3
        assert len(algebra.basis(j)) == x.size - 1
        ell = LinearFormS(_through(x.points[1:]))
        assert point_weights(x, algebra.alphas, algebra.d - 2 * j,
                             ell)[1] == 0
        sizes = []
        det = linalg.det
        monkeypatch.setattr(linalg, "det",
                            lambda m: sizes.append(m.rows) or det(m))
        for _ in range(2):
            hess, val = algebra.hessian(j, ell)
            assert type(val) is Fraction and val != 0
            assert val == laplace_det(hess.entries)
        assert sizes == [x.size - 1]

    @settings(max_examples=40, deadline=None)
    @given(_power_sums(on_points=False))
    def test_no_plateau_on_the_catalecticant_route(self, algebra):
        # h(j) <= h_X(j) < s for j <= floor(d/2) < tau there
        assert all(len(algebra.basis(j)) < algebra.x.size
                   for j in range(algebra.d // 2 + 1))

    def test_an_ell_through_two_points_gives_det_zero_and_the_rank(self):
        x = PointSet([[0, 1, 2], [1, 0, 0], [1, 1, 1], [0, 0, 1], [1, -1, 3]])
        algebra = GorensteinAlgebra.of_points(
            x, [1, Fraction(2, 3), -3, Fraction(1, 2), 5], 2 * x.tau() + 2)
        ell = LinearFormS(_through(x.points))
        records = certify_at(algebra, ell)
        zero = [r for r in records if r.required == x.size and r.det == 0]
        assert zero and all(r.rank == x.size - 2 for r in zero)
        for r in zero:
            assert laplace_det(algebra.hessian(r.j, ell)[0].entries) == 0

    def test_one_vandermonde_det_per_point_set(self, monkeypatch):
        # h = 1,3,6,6,6,3,1: plateau lines j = 2, 3, over two draws of ell
        x = PointSet([[1, a, b] for a, b in ((0, 0), (1, 0), (0, 1), (2, 0),
                                             (1, 1), (0, 2))])
        algebra = GorensteinAlgebra.of_points(x, [1, 2, 3, -1, -2, 5], 6)
        sizes = []
        # every det, linalg.det's and gram's integer Grams, runs here
        integer_det = linalg.integer_det
        monkeypatch.setattr(linalg, "integer_det",
                            lambda a: sizes.append(len(a)) or integer_det(a))
        for coeffs in ([3, 1, 2], [5, -1, 7]):
            certify_at(algebra, LinearFormS(coeffs))
        assert sizes.count(x.size) == 1 and sizes.count(3) == 2


@st.composite
def _gram_cases(draw):
    """Points of P^1 or P^2 with int and Fraction coordinates, some with
    x0 = 0; a frame of 1-4 distinct degree-j monomials; weights with
    zeros; k from 0 (where an ell through a point keeps its weight) up;
    and an ell that may pass through a point."""
    n = draw(st.integers(1, 2))
    coord = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    x = PointSet(draw(st.lists(
        st.lists(coord, min_size=n + 1, max_size=n + 1).filter(any),
        min_size=1, max_size=6, unique_by=lambda p: PointSet([p]).points)))
    j = draw(st.integers(0, 3))
    frame = draw(st.lists(st.sampled_from(monomials_of_degree(n + 1, j)),
                          min_size=1, max_size=4, unique=True))
    alphas = draw(st.lists(st.one_of(st.just(0), st.integers(-4, 4),
                                     st.fractions(-4, 4, max_denominator=5)),
                           min_size=x.size, max_size=x.size))
    k = draw(st.integers(0, 3))
    through = ([] if n == 2 and x.size == 1
               else [st.permutations(x.points).map(_through)])
    coeffs = draw(st.one_of(
        st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1),
        *through))
    assume(any(coeffs))
    scale = draw(st.integers(1, 60))
    return x, frame, alphas, k, LinearFormS(coeffs), scale


class TestGramDet:
    """gram's matrix, and its det by the rule 0 below the frame size, the
    entry itself for one monomial, one Cauchy-Binet term at the frame
    size and an elimination above it, against the Gram that
    oracles.point_gram builds from rank-one pieces and its cofactor det."""

    @settings(max_examples=300, deadline=None)
    @given(_gram_cases())
    def test_rule_is_the_cofactor_det(self, case):
        x, frame, alphas, k, ell, scale = case
        oracle = point_gram(x.points, alphas, k, ell.coeffs, frame, scale)
        weights = point_weights(x, alphas, k, ell)
        hess, val = gram(x, frame, weights, scale)
        assert hess.entries == oracle
        assert type(val) is Fraction and val == laplace_det(oracle)

    def test_weights_keep_the_zero_rules(self):
        x = PointSet([[1, 1, 0], [1, 2, 3], [0, 1, 1]])
        ell = LinearFormS([1, -1, 0])  # through the first point only
        assert point_weights(x, [2, 0, 3], 2, ell) == [0, 0, 3]
        assert point_weights(x, [2, 0, 3], 0, ell) == [2, 0, 3]

    @pytest.mark.parametrize("zeros, eliminated", [
        ((0, 1, 2), []),        # |S| = 1 < m = 2: no elimination at all
        ((0, 1), [2]),          # |S| = m = 2: det(V_S) once, then cached
        ((), [2, 2]),           # |S| = 4 > m: the Gram, each call
    ], ids=["below", "at", "above"])
    def test_each_branch_eliminates_what_it_needs(self, monkeypatch, zeros,
                                                  eliminated):
        x = PointSet([[1, t, t * t] for t in (1, 2, 3, 5)])
        frame = [(1, 0, 0), (0, 0, 1)]
        alphas = [0 if i in zeros else i + 1 for i in range(x.size)]
        weights = point_weights(x, alphas, 2, LinearFormS([1, 1, 1]))
        oracle = laplace_det(point_gram(x.points, alphas, 2, (1, 1, 1),
                                        frame, 12))
        sizes = []
        integer_det = linalg.integer_det
        monkeypatch.setattr(linalg, "integer_det",
                            lambda a: sizes.append(len(a)) or integer_det(a))
        assert [gram(x, frame, weights, 12)[1]
                for _ in range(2)] == [oracle] * 2
        assert sizes == eliminated


    @pytest.mark.parametrize("weights", [[1, 2, 0, 3], [0, 0, 5, 0]],
                             ids=["above", "at"])
    def test_one_monomial_is_its_entry(self, monkeypatch, weights):
        def forbid(*args):
            raise AssertionError("a 1 x 1 frame was eliminated")

        monkeypatch.setattr(linalg, "integer_det", forbid)
        monkeypatch.setattr(linalg, "det", forbid)
        x = PointSet([[1, t, t * t] for t in (1, 2, 3, 5)])
        hess, val = gram(x, [(0, 1, 0)], weights, 7)
        entry = 7 * sum(c * t * t for c, t in zip(weights, (1, 2, 3, 5)))
        assert hess.entries == [[entry]]
        assert type(val) is Fraction and val == entry

    @pytest.mark.parametrize("points, alphas", [
        ([[1, t, t * t] for t in (1, 2, 3, 5)], [1, 2, 3, 4]),
        ([[1, t, t * t] for t in (1, 2, 3, 5)], [1, Fraction(2, 3), 3, 4]),
        ([[1, t, Fraction(t, 2)] for t in (1, 2, 3, 5)], [1, 2, 3, 4]),
        ([[0, 1, 2], [1, 0, 0], [1, 1, 1], [1, -1, 3]], [2, -1, 5, 3]),
    ], ids=["ints", "fraction-weight", "fraction-points", "x0-zero"])
    def test_above_eliminates_the_gram_without_its_scale(self, points,
                                                          alphas):
        # scale G0 is returned; G0 = V^T diag(c) V is what is eliminated:
        # straight to integer_det on ints, through det on Fractions
        x = PointSet(points)
        frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        ell = (1, 1, 1)
        weights = point_weights(x, alphas, 2, LinearFormS(ell))
        assert sum(map(bool, weights)) > len(frame)
        unscaled = point_gram(x.points, alphas, 2, ell, frame, 1)
        seen = []
        integer_det, det = linalg.integer_det, linalg.det
        with mock.patch.object(linalg, "integer_det", lambda a: seen.append(
                ("integer_det", [list(r) for r in a])) or integer_det(a)), \
                mock.patch.object(linalg, "det", lambda m: seen.append(
                    ("det", m.entries)) or det(m)):
            hess, val = gram(x, frame, weights, 12)
        integral = x.integral and all(type(a) is int for a in alphas)
        assert seen[0] == ("integer_det" if integral else "det", unscaled)
        assert len(seen) == 1 + (not integral)
        assert hess.entries == [[12 * v for v in row] for row in unscaled]
        assert val == 12 ** 3 * laplace_det(unscaled)


class TestColumnsOncePerPointSet:
    """Each monomial's column is built once per PointSet, one product per
    point, across its bases, every gram frame and every ell."""

    @pytest.mark.parametrize("points", [
        [[1, a, b] for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                (0, 2))],
        [[0, 0, 1], [1, 0, 1], [1, 0, 2], [0, 1, 1], [0, 1, 2], [1, 0, 3]],
    ], ids=["x0-one", "two-lines"])
    def test_each_column_is_built_once(self, monkeypatch, points):
        products = []
        real = points_module.mul
        monkeypatch.setattr(points_module, "mul",
                            lambda a, b: products.append(a) or real(a, b))
        x = PointSet(points)
        algebra = GorensteinAlgebra.of_points(x, [1, 2, 3, -1, -2, 5],
                                              2 * x.tau() + 1)
        for coeffs in ([3, 1, 2], [5, -1, 7]):
            ell = LinearFormS(coeffs)
            certify_at(algebra, ell)
            for j in range(algebra.d // 2 + 1):
                gram(x, monomials_of_degree(3, j), point_weights(
                    x, algebra.alphas, algebra.d - 2 * j, ell), 1)
        # keyed without x0 when every x0 = 1; the monomial 1 is not built
        skip = int(all(p[0] for p in x.points))
        assert set(x._columns) == {m[skip:] for j in range(algebra.d // 2 + 1)
                                   for m in monomials_of_degree(3, j)}
        assert len(products) == x.size * (len(x._columns) - 1)


class TestOneHessianCall:
    """algebra.hessian(j, ell) gives the Hessian and its det for an
    of_points algebra, from one pass of point weights per line: a det
    that is the cofactor det of the matrix returned, in every branch of
    gram's rule, and the det certify_at records for the algebra built
    from the expanded polynomial."""

    # 5 points of P^1, d = 2 tau + 1 = 9: h(j) = j + 1 for j <= 4, and
    # every weight carries L_i(P_ell)^(d-2j), so an ell through a point
    # zeroes one
    X = PointSet([[1, t] for t in (-2, -1, 0, 1, 3)])
    ALPHAS = [2, Fraction(-1, 3), 5, 1, Fraction(7, 2)]

    @pytest.mark.parametrize("j, through, branch", [
        (4, True, -1),   # |S| = 4 < m = 5: det 0
        (3, True, 0),    # |S| = 4 = m
        (4, False, 0),   # |S| = 5 = m
        (2, False, 1),   # |S| = 5 > m = 3
        (2, True, 1),    # |S| = 4 > m = 3
    ], ids=["below-plateau", "at-through", "at-plateau", "above",
            "above-through"])
    def test_det_is_the_cofactor_det_on_both_routes(self, j, through, branch):
        x = self.X
        points = GorensteinAlgebra.of_points(x, self.ALPHAS, 9)
        ell = LinearFormS(_through(x.points[1:]) if through else [3, 1])
        support = sum(map(bool, point_weights(x, points.alphas, 9 - 2 * j,
                                              ell)))
        m = len(points.basis(j))
        assert (support > m) - (support < m) == branch
        hess, dv = points.hessian(j, ell)
        assert type(dv) is Fraction and dv == laplace_det(hess.entries)
        assert (dv == 0) == (branch < 0)
        assert certify_at(GorensteinAlgebra(points.f, 9), ell)[j].det == dv

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(_power_sums), _ELLS)
    def test_det_is_the_cofactor_det_on_any_power_sum(self, algebra, coeffs):
        assume(any(coeffs[:algebra.n_vars]))
        ell = LinearFormS(coeffs[:algebra.n_vars])
        records = certify_at(GorensteinAlgebra(algebra.f, algebra.d), ell)
        for j in range(algebra.d // 2 + 1):
            hess, dv = algebra.hessian(j, ell)
            assert dv == laplace_det(hess.entries) == records[j].det

    def test_one_weight_pass_per_line(self, monkeypatch):
        calls = []
        real = gorenstein.point_weights
        monkeypatch.setattr(gorenstein, "point_weights",
                            lambda *args: calls.append(args) or real(*args))
        six = PointSet([[1, a, b] for a, b in ((0, 0), (1, 0), (0, 1), (2, 0),
                                               (1, 1), (0, 2))])
        for algebra in (GorensteinAlgebra.of_points(self.X, self.ALPHAS, 9),
                        GorensteinAlgebra.of_points(six, [1, 2, 3, -1, -2, 5],
                                                    6),
                        GorensteinAlgebra.of_points(PointSet([[1]]), [1], 3)):
            for coeffs in ([3, 1, 2], [5, -1, 7], [1, 0, 1]):
                calls.clear()
                certify_at(algebra, LinearFormS(coeffs[:algebra.n_vars]))
                assert len(calls) == algebra.d // 2 + 1
        calls.clear()
        res = construct_slp_algebra(HVector.parse("1,3,5,5,3,1"),
                                    random.Random(2020))
        assert len(calls) == res.certificate.attempts * 3

    @pytest.mark.parametrize("d", [3, 8, 9])
    def test_one_contraction_per_line_on_the_polynomial_route(self, monkeypatch,
                                                              d):
        # the chain's g = ell^(d-2j) o F gives the det too, as
        # det(Cat^j(g)[B, B]) / ((d-2j)!)^h(j): no second contraction
        points = GorensteinAlgebra.of_points(self.X, self.ALPHAS, d)
        algebra = GorensteinAlgebra(points.f, d)
        calls = []
        real = gorenstein.contract
        monkeypatch.setattr(gorenstein, "contract",
                            lambda *args: calls.append(args) or real(*args))
        for coeffs in ([3, 1], [2, 1], [1, 0]):  # [2, 1] is through a point
            ell = LinearFormS(coeffs)
            calls.clear()
            records = certify_at(algebra, ell)
            assert len(calls) == d // 2 + 1
            assert records == certify_at(points, ell)
            assert [r.det for r in records] == [
                points.hessian(r.j, ell)[1] for r in records]


class TestSharedAlgebra:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", '
         '"terms": [{"exp": [2, 1], "coef": "1"}]}'],
        ["verify", "--theorem", "conic", "--s1", "2", "--s2", "2",
         "--eval-points", "1"],
    ], ids=["analyze", "conic"])
    def test_one_algebra_per_call(self, capsys, monkeypatch, argv):
        from gorlef import cli
        built = []
        init = GorensteinAlgebra.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GorensteinAlgebra, "__init__", counting_init)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(built) == 1
