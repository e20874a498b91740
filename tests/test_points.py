"""Point configurations, order ideals, distractions, curve search."""

import json
import random
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gorlef import cli, linalg
from gorlef.apolar import Poly, RING_R, monomials_of_degree
from gorlef.errors import (DuplicateParameterError, NotOSequenceError,
                           NotPlaneConfigError, RealizationMismatchError,
                           WorkBudgetError)
from gorlef.hvector import hbar, macaulay_bound
from gorlef.points import (OrderIdeal, PointSet, check_rnc, davis_hint,
                           find_subset_on_curve, gen_collinear,
                           gen_distraction, gen_generic, gen_rnc,
                           gen_two_lines, has_collinear_triple,
                           lex_order_ideal)
from gorlef.theorems import _FAMILIES

from oracles import (collinear_triples, evaluate, gauss_pivot_columns,
                     lex_order_ideal_by_search, macaulay_bound_by_scan)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def P(*coords):
    return [Fraction(c) for c in coords]


coordinates = st.one_of(st.integers(-5, 5),
                        st.fractions(min_value=-4, max_value=4,
                                     max_denominator=6))


@st.composite
def points_and_frames(draw):
    """1-5 distinct points of P^0..P^3 with int and Fraction coordinates,
    x0 = 0 at some points of some sets, and 1-4 frames of up to 8
    monomials with exponents up to 3, some frames empty."""
    n_vars = draw(st.integers(1, 4))
    first = st.one_of(st.just(0), st.just(1), coordinates)
    pts = draw(st.lists(st.tuples(first, *[coordinates] * (n_vars - 1))
                        .filter(any),
                        min_size=1, max_size=5,
                        unique_by=lambda p: PointSet([p]).points))
    mono = st.tuples(*[st.integers(0, 3)] * n_vars)
    return PointSet(pts), draw(st.lists(st.lists(mono, max_size=8),
                                        min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(points_and_frames())
def test_values_are_the_frame_evaluated_at_each_point(case):
    # the frames of one PointSet share its cached columns, and a frame
    # lifted by x0 shares them too when every x0 = 1
    x, frames = case
    carried = all(p[0] == 1 for p in x.points)
    for frame in frames:
        lifted = [(m[0] + 1,) + m[1:] for m in frame]
        for f in (frame, lifted):
            rows = x.values(f)
            assert rows == tuple(
                tuple(evaluate(Poly(x.n + 1, RING_R, {m: 1}), p) for m in f)
                for p in x.points)
            cols = x.columns(f)
            assert rows == (tuple(zip(*cols)) if f else ((),) * x.size)
            # cached per monomial
            assert list(map(id, x.columns(list(f)))) == list(map(id, cols))
        if carried:
            assert (list(map(id, x.columns(lifted)))
                    == list(map(id, x.columns(frame))))
    for i in range(3):
        mons = monomials_of_degree(x.n + 1, i)
        assert x.evaluation_matrix(i).entries == [list(r) for r in
                                                  x.values(mons)]


@pytest.mark.parametrize("points, frame, rows", [
    ([[0, 1], [1, 0], [1, 1]], [(0, 3000), (1500, 1500)],
     ((1, 0), (0, 0), (1, 1))),
    ([[1, 2], [1, 3]], [(0, 3000), (2999, 1)],
     ((2 ** 3000, 2), (3 ** 3000, 3))),
], ids=["x0-zero", "x0-one"])
def test_a_high_degree_column_is_built_in_a_loop(points, frame, rows):
    # 3000 ancestors, each one multiplication from its parent
    assert PointSet(points).values(frame) == rows


@st.composite
def point_sets(draw):
    """1-6 distinct points of P^1..P^3 with Fraction coordinates; x0 is
    0 for some points of some sets, which keeps them off the x0 route."""
    n_vars = draw(st.integers(2, 4))
    first = st.one_of(st.just(0), coordinates)
    pts = draw(st.lists(st.tuples(first, *[coordinates] * (n_vars - 1))
                        .filter(any),
                        min_size=1, max_size=6,
                        unique_by=lambda p: PointSet([p]).points))
    return PointSet(pts)


@st.composite
def carried_sets(draw):
    """7-15 distinct points of P^1 or P^2, every x0 = 1, with int and
    Fraction coordinates and many zeros: h(2) < 7 <= s, so the echelon
    is carried through at least three degrees."""
    n = draw(st.integers(1, 2))
    other = st.one_of(st.just(0), coordinates)
    return PointSet(draw(st.lists(st.tuples(st.just(1), *[other] * n),
                                  min_size=7, max_size=15, unique=True)))


@settings(max_examples=160, deadline=None)
@given(st.one_of(point_sets(), carried_sets()))
def test_bases_are_the_pivots_of_the_full_evaluation_matrix(x):
    # V_i built term by term from the oracle, over every degree-i monomial
    for i in range(x.tau() + 3):
        mons = monomials_of_degree(x.n + 1, i)
        v = [[evaluate(Poly(x.n + 1, RING_R, {m: 1}), p) for m in mons]
             for p in x.points]
        assert x.basis(i) == tuple(mons[c] for c in gauss_pivot_columns(v))


class TestCarriedBases:
    """With every x0 = 1, B_i = x0 B_(i-1) plus pivots among the x0-free
    monomials; the budget is checked before a frame is evaluated."""

    def test_a_high_degree_is_built_in_a_loop(self):
        x = PointSet([P(1, 0), P(1, 1)])
        assert x.basis(5000) == ((5000, 0), (4999, 1))
        assert x.hilbert(4999) == 2

    @pytest.mark.parametrize("first", [1, 0], ids=["x0-route", "full-route"])
    def test_a_refused_frame_is_never_evaluated(self, monkeypatch, first):
        # six general points of P^2: V_1 has 3 columns (18 entries), the
        # degree-2 frame has 6 (36 entries), above a budget of 20
        pts = [P(first, 0, 1)] + [P(1, a, a * a - b)
                                  for a, b in ((0, 0), (1, 0), (2, 1),
                                               (-1, 3), (3, -2))]
        evaluated = []
        columns = PointSet.columns

        def spy(self, frame):
            evaluated.append(len(frame))
            return columns(self, frame)

        monkeypatch.setattr(PointSet, "columns", spy)
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 20):
            with pytest.raises(WorkBudgetError, match="6x6"):
                PointSet(pts)
        assert evaluated and max(evaluated) <= 3
        assert PointSet(pts).tau() == 2

    def test_only_the_x0_free_columns_are_reduced(self, monkeypatch):
        x = gen_distraction(lex_order_ideal([1, 2, 3, 1], 2))
        assert x.hilbert_vector(4) == (1, 3, 6, 7, 7) and x.tau() == 3
        evaluated, reduced = [], []
        real_columns, extend = PointSet.columns, linalg.extend_echelon

        def spy_columns(self, frame):
            evaluated.append(tuple(frame))
            return real_columns(self, frame)

        def spy_extend(echelon, columns, limit):
            columns = list(columns)
            reduced.append(len(columns))
            return extend(echelon, columns, limit)

        monkeypatch.setattr(PointSet, "columns", spy_columns)
        monkeypatch.setattr(linalg, "extend_echelon", spy_extend)
        x = PointSet(x.points)
        # one call per degree 1..tau, on the x0-free monomials alone
        assert evaluated == [tuple((0,) + m for m in monomials_of_degree(2, k))
                             for k in (1, 2, 3)]
        assert reduced == [2, 3, 4]
        # nothing is reduced once h(i-1) = s
        assert x.basis(9) == tuple((m[0] + 6,) + m[1:] for m in x.basis(3))
        assert len(reduced) == 3

    def test_plateau_frames_share_one_det(self, monkeypatch):
        # the distraction's points, in a set that eliminates its dets
        read = gen_distraction(lex_order_ideal([1, 2, 1], 2))
        x = PointSet(list(read.points))
        b = x.basis(x.tau())
        assert len(b) == x.size
        eliminated = []
        det = linalg.det
        monkeypatch.setattr(linalg, "det",
                            lambda m: eliminated.append(m.rows) or det(m))
        lifted = [tuple((m[0] + 3,) + m[1:]) for m in b]
        every = range(x.size)
        assert x.frame_det(b, every) == x.frame_det(lifted, every) != 0
        assert list(map(id, x.columns(b))) == list(map(id, x.columns(lifted)))
        assert eliminated == [x.size]


class TestPointSet:
    def test_normalization(self):
        x = PointSet([P(2, 4, 6), P(0, 3, 9)])
        assert x.points[0] == (1, 2, 3)
        assert x.points[1] == (0, 1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PointSet([P(1, 2, 3), P(2, 4, 6)])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PointSet([P(0, 0, 0)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PointSet([P(1, 2), P(1, 2, 3)])

    def test_hilbert_of_collinear(self):
        x = gen_collinear(2, 3)
        assert list(x.hilbert_vector(3)) == [1, 2, 3, 3]
        assert x.tau() == 2

    def test_single_point(self):
        x = PointSet([P(1, 5)])
        assert x.tau() == 0
        assert x.hilbert(0) == 1

    def test_json_roundtrip(self):
        x = gen_two_lines(3, 2, True)
        y = PointSet.from_json_dict(x.to_json_dict())
        assert x.points == y.points

    def test_subset(self):
        x = gen_collinear(2, 4)
        y = x.subset([0, 2])
        assert y.size == 2
        assert y.points[0] == x.points[0]


class TestTwoLines:
    def test_disjoint_counts(self):
        x = gen_two_lines(3, 3, False)
        assert x.size == 6
        assert list(x.hilbert_vector(4)) == [1, 3, 5, 6, 6]
        assert x.tau() == 3

    def test_shared_point(self):
        x = gen_two_lines(3, 3, True)
        assert x.size == 5
        assert (0, 0, 1) in x.points

    def test_derived_hilbert_formula(self):
        # h(i) = min(i+1, s1) + min(i+1, s2) - [i + 1 <= min(s1, s2)]
        for s1, s2 in ((2, 2), (4, 2), (5, 3), (5, 5)):
            x = gen_two_lines(s1, s2, False)
            for i in range(8):
                expected = (min(i + 1, s1) + min(i + 1, s2)
                            - (1 if i + 1 <= min(s1, s2) else 0))
                assert x.hilbert(i) == expected

    def test_single_point_each(self):
        x = gen_two_lines(1, 1, False)
        assert x.size == 2 and x.tau() == 1


class TestRnc:
    def test_tau_formula(self):
        for n in (2, 3):
            for s in range(3, 9):
                x = gen_rnc(n, s, list(range(s)))
                assert x.tau() == -(-(s - 1) // n)

    def test_conic_cap(self):
        x = gen_rnc(2, 7, list(range(7)))
        assert list(x.hilbert_vector(3)) == [1, 3, 5, 7]

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(DuplicateParameterError):
            gen_rnc(2, 3, [1, 1, 2])

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_curve_below_p1(self, n):
        # n = 0 used to read as duplicate points, n = -1 as empty ones
        with pytest.raises(ValueError, match=f"^need n >= 1, got {n}$"):
            gen_rnc(n, 3, [1, 2, 3])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 14), st.integers(1, 300))
    def test_the_budget_check_refuses_the_frame_basis_refuses(
            self, n, s, budget):
        # h(i) = min(n i + 1, s) gives every carried frame up front, so the
        # first refusal is the one PointSet.basis meets, message and all
        pts = [[t ** k for k in range(n + 1)] for t in range(-3, s - 3)]
        refusals = []
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", budget):
            for build in (lambda: PointSet(pts), lambda: check_rnc(n, s)):
                try:
                    build()
                    refusals.append(None)
                except WorkBudgetError as exc:
                    refusals.append(str(exc))
        assert refusals[0] == refusals[1]

    def test_one_point_checks_v1(self):
        # tau = 0, so no frame is carried, but the point is n + 1 long
        with pytest.raises(WorkBudgetError, match="^a 1x64001 elimination"):
            check_rnc(64_000, 1)
        check_rnc(63_999, 1)


class TestGenGeneric:
    def test_generic_hilbert(self):
        rng = random.Random(70)
        for n, s in ((2, 5), (2, 8), (3, 7)):
            x = gen_generic(n, s, rng)
            from math import comb
            for i in range(x.tau() + 1):
                assert x.hilbert(i) == min(comb(n + i, i), s)

    def test_no_collinear_triples_in_plane(self):
        rng = random.Random(71)
        x = gen_generic(2, 6, rng)
        assert not has_collinear_triple(x)
        assert collinear_triples(x.points) == []


class TestOrderIdeals:
    def test_lex_ideal_frozen_cases(self):
        ideal = lex_order_ideal((1, 2, 2), 2)
        assert set(ideal.monomials) == {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)}
        ideal2 = lex_order_ideal((1, 3, 1), 3)
        assert set(ideal2.monomials) == {(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                         (0, 0, 1), (0, 0, 2)}

    def test_lex_ideal_avoids_greedy_dead_end(self):
        # taking the largest compatible monomials would stall at 3 in
        # degree 3 here; the lex-smallest segments realize the counts
        ideal = lex_order_ideal((1, 3, 3, 4), 3)
        assert sorted(map(sum, ideal.monomials)) == [0, 1, 1, 1, 2, 2, 2,
                                                     3, 3, 3, 3]

    def test_ideal_is_downward_closed(self):
        ideal = lex_order_ideal((1, 3, 4, 2), 3)
        mset = set(ideal.monomials)
        for m in mset:
            for i in range(3):
                if m[i] > 0:
                    lower = list(m)
                    lower[i] -= 1
                    assert tuple(lower) in mset

    def test_degree_counts_match_input(self):
        delta = (1, 3, 4, 2)
        ideal = lex_order_ideal(delta, 3)
        assert sorted(map(sum, ideal.monomials)) == [
            i for i, count in enumerate(delta) for _ in range(count)]

    def test_not_o_sequence_rejected(self):
        with pytest.raises(NotOSequenceError):
            lex_order_ideal((1, 2, 5), 2)
        with pytest.raises(NotOSequenceError):
            lex_order_ideal((1, 4), 3)  # needs 4 variables

    def test_validation_in_constructor(self):
        with pytest.raises(ValueError):
            OrderIdeal(2, [(1, 0)])  # missing the unit monomial


@st.composite
def o_sequences(draw, n):
    """Delta of up to 6 degrees with Delta(1) <= n and entries up to 6."""
    delta = [1, draw(st.integers(1, n))]
    for i in range(1, draw(st.integers(1, 5))):
        delta.append(draw(st.integers(1, min(macaulay_bound(delta[i], i), 6))))
    return delta


@st.composite
def order_ideals(draw):
    """An order ideal in 0-4 variables: the lex segments of an O-sequence
    (lex_order_ideal), or the downward closure of up to 4 monomials of
    degree <= 4, lex only by chance."""
    n = draw(st.integers(0, 4))
    if n and draw(st.booleans()):
        return lex_order_ideal(draw(o_sequences(n)), n)
    closure = {(0,) * n}
    for _ in range(draw(st.integers(0, 4))):
        top = []
        for _ in range(n):
            top.append(draw(st.integers(0, min(3, 4 - sum(top)))))
        closure.update(product(*(range(e + 1) for e in top)))
    return OrderIdeal(n, closure)


def _o_sequences_upto(n, length=6, top=12):
    """Every O-sequence with delta(1) <= n, at most `length` entries and
    each entry in 1..top, grown by Macaulay's bound from the linear scan."""
    out, stack = [], [(1,)]
    while stack:
        delta = stack.pop()
        out.append(delta)
        if len(delta) < length:
            i = len(delta) - 1
            most = n if i == 0 else macaulay_bound_by_scan(delta[i], i)
            stack.extend(delta + (v,) for v in range(1, min(most, top) + 1))
    return out


def _assert_lex_segments_are_the_search(delta, n):
    assert lex_order_ideal(delta, n).monomials == \
        lex_order_ideal_by_search(delta, n), (delta, n)


class TestLexSegments:
    # lex_order_ideal reads each degree's lex-smallest delta(i) monomials
    # off the table, by Macaulay's theorem; these tests check them
    # against the closure search they replaced, a check a run never makes
    def test_every_small_o_sequence_matches_the_search(self):
        pairs = [(delta, n) for n in range(5) for delta in _o_sequences_upto(n)]
        assert len(pairs) == 4921
        for delta, n in pairs:
            _assert_lex_segments_are_the_search(delta, n)

    def test_every_benchmark_and_family_delta_matches_the_search(self):
        # the 232 construct sequences of perfbench and the five flat-tail
        # families through m = 6, each Delta as construct takes it
        hs = [[int(v) for v in key.split()[2].split(",")]
              for key in json.loads(REFERENCE.read_text())
              if key.startswith("construct ")]
        for _, make in _FAMILIES:
            for m in range(7):
                half = list(accumulate(make(m)))
                hs.append(half + half[-2::-1])
        assert len(hs) == 232 + 35
        for h in hs:
            if len(h) > 1 and h[1] > 1:
                _assert_lex_segments_are_the_search(hbar(h).delta(), h[1] - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_drawn_o_sequences_match_the_search(self, n, data):
        _assert_lex_segments_are_the_search(data.draw(o_sequences(n)), n)

    @pytest.mark.parametrize("delta, entry", [
        ((1, 2.9), r"2\.9"), (["1", "2"], "'1'"), ((1, True), "True"),
        ((1, 2, 0.0), r"0\.0")])  # refused before zeros are trimmed
    def test_non_int_counts_are_refused_not_truncated(self, delta, entry):
        with pytest.raises(ValueError, match=f"^h-vector entry {entry} is not an int$"):
            lex_order_ideal(delta, 2)

    @pytest.mark.parametrize("bad", [(True, 0), (1.0, 0), ("a", 0)])
    def test_non_int_exponents_are_refused(self, bad):
        with pytest.raises(ValueError, match="^bad exponent vector "):
            OrderIdeal(2, [(0, 0), bad])


def _assert_read_bases_are_the_pivots(ideal):
    x = gen_distraction(ideal)
    eliminated = PointSet(list(x.points))
    assert x.tau() == eliminated.tau() == max(map(sum, ideal.monomials))
    for k in range(x.tau() + 3):
        assert x.basis(k) == eliminated.basis(k), k


def _forbid_elimination(m):
    raise AssertionError("a distraction's plateau det was eliminated")


def _assert_given_det_is_the_eliminated_det(ideal):
    """frame_det of B_tau and of x0 B_tau at all the points, read off the
    order ideal with no elimination, against the signed det that a set
    of the same points eliminates."""
    x = gen_distraction(ideal)
    every = range(x.size)
    frames = [x.basis(x.tau()), x.basis(x.tau() + 1)]
    with mock.patch.object(linalg, "det", _forbid_elimination):
        given = [x.frame_det(b, every) for b in frames]
    eliminated = PointSet(list(x.points)).frame_det(frames[0], every)
    assert given == [eliminated] * 2 and eliminated > 0


class TestDistraction:
    # gen_distraction reads its bases and its plateau det off the order
    # ideal; these tests check them against the pivots PointSet.basis
    # eliminates and the det that frame_det eliminates, checks a run no
    # longer makes
    @settings(max_examples=200, deadline=None)
    @given(order_ideals())
    def test_read_bases_are_the_eliminated_pivots(self, ideal):
        _assert_read_bases_are_the_pivots(ideal)

    def test_every_benchmark_distraction_reads_the_pivots(self):
        # the 229 corpus sequences and the 3 large cases of perfbench
        hs = [[int(v) for v in key.split()[2].split(",")]
              for key in json.loads(REFERENCE.read_text())
              if key.startswith("construct ")]
        assert len(hs) == 232
        for h in hs:
            if len(h) > 1 and h[1] > 1:
                _assert_read_bases_are_the_pivots(
                    lex_order_ideal(hbar(h).delta(), h[1] - 1))

    @settings(max_examples=200, deadline=None)
    @given(order_ideals())
    def test_given_plateau_det_is_the_eliminated_det(self, ideal):
        _assert_given_det_is_the_eliminated_det(ideal)

    def test_every_benchmark_distraction_gives_the_eliminated_det(self):
        hs = [[int(v) for v in key.split()[2].split(",")]
              for key in json.loads(REFERENCE.read_text())
              if key.startswith("construct ")]
        for h in hs:
            if len(h) > 1 and h[1] > 1:
                _assert_given_det_is_the_eliminated_det(
                    lex_order_ideal(hbar(h).delta(), h[1] - 1))

    def test_construct_eliminates_no_plateau_det(self, capsys, monkeypatch):
        # h = 1,3,6,10,6,3,1: s = 10 points, tau = 3, and the line j = 3
        # takes det V_X of B_3 from the order ideal
        rows = []
        frame_det = PointSet.frame_det

        def without_elimination(x, frame, support):
            rows.append(len(support))
            with mock.patch.object(linalg, "det", _forbid_elimination):
                return frame_det(x, frame, support)

        monkeypatch.setattr(PointSet, "frame_det", without_elimination)
        assert cli.main(["construct", "--h", "1,3,6,10,6,3,1",
                         "--seed", "0"]) == 0
        capsys.readouterr()
        assert rows and set(rows) == {10}

    def test_nothing_is_eliminated_or_budgeted(self, monkeypatch):
        def forbid(*args):
            raise AssertionError("a distraction basis was eliminated")

        ideal = lex_order_ideal((1, 3, 6, 10, 6, 3), 3)
        monkeypatch.setattr(linalg, "extend_echelon", forbid)
        monkeypatch.setattr(linalg, "check_cells", forbid)
        x = gen_distraction(ideal)
        assert x.hilbert_vector(7) == (1, 4, 10, 20, 26, 29, 29, 29)
        assert x.tau() == 5

    def test_frozen_example(self):
        x = gen_distraction(lex_order_ideal((1, 2, 2), 2))
        assert set(x.points) == {(1, 0, 0), (1, 1, 0), (1, 0, 1),
                                 (1, 1, 1), (1, 0, 2)}
        assert list(x.hilbert_vector(2)) == [1, 3, 5]

    def test_cumulative_sum_property(self):
        rng = random.Random(72)
        deltas = [(1, 2, 2), (1, 3, 4, 2), (1, 2, 3, 3, 1), (1, 1, 1, 1),
                  (1, 3, 6, 7)]
        for delta in deltas:
            x = gen_distraction(lex_order_ideal(delta, max(delta[1], 1)))
            total = 0
            for i, c in enumerate(delta):
                total += c
                assert x.hilbert(i) == total
            assert x.tau() == len(delta) - 1
            assert x.size == total


    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 300), st.data())
    def test_the_budget_check_refuses_the_frame_basis_refuses(
            self, n, budget, data):
        # Delta summed is h, so every carried frame is known before the
        # order ideal is built, and lex_order_ideal refuses the first one
        # over the budget as PointSet.basis does when it eliminates on
        # the distraction's points
        delta = data.draw(o_sequences(n))
        points = gen_distraction(lex_order_ideal(delta, n)).points
        refusals = []
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", budget):
            for build in (lambda: PointSet(points),
                          lambda: lex_order_ideal(delta, n)):
                try:
                    build()
                    refusals.append(None)
                except WorkBudgetError as exc:
                    refusals.append(str(exc))
        assert refusals[0] == refusals[1]


class TestCurveSearch:
    def test_finds_collinear_subset(self):
        pts = [P(1, 0, 0), P(1, 1, 0), P(1, 2, 0), P(1, 3, 0),
               P(1, 0, 1), P(1, 1, 2)]
        x = PointSet(pts)
        found = find_subset_on_curve(x, 1, 4)
        assert found is not None
        assert sorted(found) == [0, 1, 2, 3]

    def test_finds_conic_subset(self):
        on = [(Fraction(1), Fraction(t), Fraction(t * t)) for t in range(5)]
        off = [P(1, 1, 5)]
        x = PointSet(on + off)
        found = find_subset_on_curve(x, 2, 5)
        assert found is not None
        assert sorted(found) == [0, 1, 2, 3, 4]

    def test_none_when_absent(self):
        rng = random.Random(73)
        x = gen_generic(2, 6, rng)
        assert find_subset_on_curve(x, 1, 3) is None

    def test_exact_count_required(self):
        # five collinear points: no line through exactly four
        x = gen_collinear(2, 5)
        assert find_subset_on_curve(x, 1, 4) is None
        assert find_subset_on_curve(x, 1, 5) is not None


class TestDavisHint:
    def test_line_plus_one(self):
        pts = [P(1, k, 0) for k in range(4)] + [P(1, 0, 1)]
        hint = davis_hint(PointSet(pts))
        assert hint is not None
        assert hint.r == 1 and hint.j == 2
        assert hint.complement_delta == (1,)

    def test_seven_on_conic(self):
        x = gen_rnc(2, 7, list(range(7)))
        hint = davis_hint(x)
        assert hint is not None
        assert hint.r == 2 and hint.j == 2
        assert hint.complement_delta == ()

    def test_generic_has_no_hint(self):
        rng = random.Random(74)
        assert davis_hint(gen_generic(2, 5, rng)) is None

    def test_requires_plane(self):
        with pytest.raises(NotPlaneConfigError):
            davis_hint(PointSet([P(1, 0, 0, 0), P(1, 1, 0, 0)]))
