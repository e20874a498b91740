"""Structural theorem verifiers: block identity, curves, tails, families."""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gorlef import construct, gorenstein, linalg, theorems
from gorlef.gorenstein import DegreeRecord, GorensteinAlgebra, SlpCertificate
from gorlef.hvector import first_difference
from gorlef.errors import (NoWitnessFoundError, NotPlaneConfigError,
                           PreconditionViolatedError, ShapeMismatchError,
                           TheoremTensionError)
from gorlef.linalg import Mat
from gorlef.points import (PointSet, find_subset_on_curve, gen_generic,
                           gen_two_lines)
from gorlef.theorems import (BlockPair, _TAIL_R, _line_mask,
                             block_det_identity, make_tail_config,
                             verify_conic_slp, verify_corollary_families,
                             verify_prop_s_minus, verify_rnc_slp,
                             verify_tail_nonvanishing)

from oracles import (first_unforced_weight, laplace_det,
                     sampled_zero_forcing)


def fmat(rows):
    return Mat([[Fraction(v) for v in row] for row in rows])


class TestBlockIdentity:
    def test_one_by_one(self):
        pair = BlockPair(fmat([[3]]), fmat([[4]]))
        assembled = pair.assemble()
        assert assembled.entries == [[Fraction(7)]]
        lhs, rhs, ok = block_det_identity(pair)
        assert ok and lhs == 7 and rhs == 1 * 4 + 3 * 1

    def test_two_by_two_hand_case(self):
        pair = BlockPair(fmat([[1, 2], [3, 4]]), fmat([[5, 6], [7, 8]]))
        assembled = pair.assemble()
        assert assembled.entries == fmat([[1, 2, 0], [3, 9, 6], [0, 7, 8]]).entries
        lhs, rhs, ok = block_det_identity(pair)
        assert ok and lhs == -18
        # det(B-) det(C) + det(B) det(C-) = 1 * (-2) + (-2) * 8
        assert rhs == -18

    def test_assembled_shape(self):
        rng = random.Random(100)
        for m in (2, 3, 4):
            b = fmat([[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)])
            c = fmat([[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)])
            a = BlockPair(b, c).assemble()
            n = 2 * m - 1
            assert a.rows == n and a.cols == n
            assert a.entries[m - 1][m - 1] == (b.entries[m - 1][m - 1]
                                               + c.entries[0][0])
            for i in range(n):
                for j in range(n):
                    top = i < m and j < m
                    bottom = i >= m - 1 and j >= m - 1
                    if not top and not bottom:
                        assert a.entries[i][j] == 0

    def test_random_instances(self):
        rng = random.Random(101)
        for m in (1, 2, 3, 4):
            for _ in range(20):
                b = fmat([[rng.randint(-9, 9) for _ in range(m)]
                          for _ in range(m)])
                c = fmat([[rng.randint(-9, 9) for _ in range(m)]
                          for _ in range(m)])
                lhs, rhs, ok = block_det_identity(BlockPair(b, c))
                assert ok, (m, b.entries, c.entries)
                if 2 * m - 1 <= 5:
                    assert lhs == laplace_det(
                        BlockPair(b, c).assemble().entries)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6))
    def test_lemma_on_singular_blocks(self, data, m):
        # m <= floor(d/2) + 1 over criterion 09's grid; the conic proof's
        # blocks are sums of rank-one c v v^T, so singular ones are drawn
        # as often as general ones
        ints = st.integers(-30, 30)
        vec = st.lists(ints, min_size=m, max_size=m)
        block = st.one_of(
            st.lists(vec, min_size=m, max_size=m),
            st.tuples(ints, vec).map(
                lambda cv: [[cv[0] * a * b for b in cv[1]] for a in cv[1]]),
            st.just([[0] * m for _ in range(m)]))
        pair = BlockPair(fmat(data.draw(block)), fmat(data.draw(block)))
        lhs, rhs, ok = block_det_identity(pair)
        assert ok and lhs == rhs
        if m <= 3:
            assert lhs == laplace_det(pair.assemble().entries)

    def test_block_size_validated(self):
        # m is B's size: B and C must be square and of one size
        for b, c in (([[1]], [[1, 0], [0, 1]]), ([[1, 2]], [[1, 2]]),
                     ([[1, 0], [0, 1]], [[1]])):
            with pytest.raises(ValueError, match="square and the same size"):
                BlockPair(fmat(b), fmat(c))


class TestRncVerifier:
    def test_small_grid(self):
        rng = random.Random(102)
        for n, s in ((2, 5), (3, 7)):
            tau = -(-(s - 1) // n)
            cert, d = verify_rnc_slp(n, s, 2 * tau, rng)
            assert cert.verdict is True and d == 2 * tau
            assert all(rec.ok() for rec in cert.per_degree)

    def test_degree_too_low(self):
        rng = random.Random(103)
        with pytest.raises(PreconditionViolatedError):
            verify_rnc_slp(2, 5, 2, rng)  # tau = 2 needs d >= 4

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_curve_below_p1(self, n):
        # n = 0 used to divide by zero in the ceiling (s-1)/n
        rng = random.Random(107)
        state = rng.getstate()
        with pytest.raises(ValueError, match="n >= 1"):
            verify_rnc_slp(n, 1, 4, rng)
        assert rng.getstate() == state  # refused before any draw

    @pytest.mark.parametrize("s", [0, -5])
    def test_no_curve_of_fewer_than_one_point(self, s):
        # s < 1 used to reach the draw, which refused it without naming s
        rng = random.Random(107)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"^need s >= 1, got {s}$"):
            verify_rnc_slp(2, s, 4, rng)
        assert rng.getstate() == state


class TestSocleDegree:
    """The point-set verifiers run at d = 2 tau when d is None, exactly as
    when 2 tau is passed, and report the d they used."""

    def test_rnc(self):
        cert, d = verify_rnc_slp(2, 5, None, random.Random(115))
        again, _ = verify_rnc_slp(2, 5, 4, random.Random(115))
        assert d == 4
        assert cert.to_json_dict() == again.to_json_dict()

    def test_conic(self):
        rep = verify_conic_slp(3, 2, False, None, random.Random(116),
                               eval_points=1)
        again = verify_conic_slp(3, 2, False, 4, random.Random(116),
                                 eval_points=1)
        assert rep.d == 2 * rep.tau == 4
        assert rep == again

    def test_tails(self):
        x = make_tail_config("line", 3, 1, random.Random(117))
        rep = verify_tail_nonvanishing("line", x, None, random.Random(118),
                                       trials=4)
        again = verify_tail_nonvanishing("line", x, 6, random.Random(118),
                                         trials=4)
        assert rep.d == 2 * rep.tau == 6
        assert rep == again

    @staticmethod
    def _line_tail(d, rng):
        x = make_tail_config("line", 3, 1, rng)  # tau = 3
        return verify_tail_nonvanishing("line", x, d, rng, trials=30)

    @pytest.mark.parametrize("run, d, message", [
        (lambda d, rng: verify_rnc_slp(2, 5, d, rng), 3,
         "need d >= 2*tau = 4, got 3"),
        (lambda d, rng: verify_conic_slp(3, 2, False, d, rng), 3,
         "need d >= 2*tau = 4, got 3"),
        (lambda d, rng: TestSocleDegree._line_tail(d, rng), 5,
         "need d >= 2*tau = 6, got 5"),
    ], ids=["rnc", "conic", "tails"])
    def test_below_two_tau_is_refused(self, run, d, message):
        with pytest.raises(PreconditionViolatedError) as info:
            run(d, random.Random(119))
        assert str(info.value) == message


class TestConicVerifier:
    def test_balanced_split(self):
        rng = random.Random(104)
        rep = verify_conic_slp(3, 3, False, 6, rng, eval_points=4)
        assert rep.display_match is True
        assert rep.certificate.verdict is True
        assert rep.decomposition_checks > 0

    def test_shared_point(self):
        rng = random.Random(105)
        rep = verify_conic_slp(3, 2, True, 2 * rep_tau(3, 2, True), rng,
                               eval_points=3)
        assert rep.certificate.verdict is True

    def test_lopsided_split_breaks_display_only(self):
        rng = random.Random(106)
        rep = verify_conic_slp(5, 2, False, 2 * rep_tau(5, 2, False), rng,
                               eval_points=2)
        assert rep.display_match is False
        assert rep.certificate.verdict is True


    def test_each_frame_is_evaluated_once_whatever_eval_points(self,
                                                              monkeypatch):
        requests = []
        real = PointSet.columns

        def spy(x, frame):
            cols = real(x, frame)
            requests.append((x, tuple(frame), cols))
            return cols

        monkeypatch.setattr(PointSet, "columns", spy)
        evaluated = {}
        for eval_points in (1, 4):
            requests.clear()
            verify_conic_slp(3, 4, False, 6, random.Random(107),
                             eval_points=eval_points)
            col_of = {}
            for x, frame, cols in requests:
                for m, col in zip(frame, cols):
                    # a second evaluation would build a new column
                    assert col_of.setdefault((id(x), m), col) is col
            evaluated[eval_points] = sorted({frame for _, frame, _ in requests})
            assert sum(len(frame) for _, frame, _ in requests) > len(col_of)
        assert evaluated[1] == evaluated[4]

    def test_the_proof_reads_each_frame_once_per_j(self):
        # after the certificate: no gram, no elimination, no draw, and per
        # j one read of each of the five frames, the minors' being B's and
        # C's of degree j - 1
        reads, after = [], []
        real_values, real_certified = PointSet.values, theorems._certified

        def values(x, frame):
            if after:
                reads.append(tuple(frame))
            return real_values(x, frame)

        def forbid(module, name):
            real = getattr(module, name)

            def call(*args):
                if after:
                    raise AssertionError(f"{name} after the certificate")
                return real(*args)
            return mock.patch.object(module, name, call)

        def certified(algebra, rng, attempts, exhausted):
            cert = real_certified(algebra, rng, attempts, exhausted)
            after.append((rng, rng.getstate()))
            return cert

        with mock.patch.object(PointSet, "values", values), \
                forbid(gorenstein, "gram"), forbid(linalg, "det"), \
                forbid(linalg, "integer_det"), \
                mock.patch.object(theorems, "_certified", certified):
            rep = verify_conic_slp(4, 3, True, None, random.Random(1920),
                                   eval_points=3)
        (rng, state), = after
        assert rng.getstate() == state
        assert rep.decomposition_checks == 3 * (rep.d // 2)
        assert sorted(reads) == sorted(
            frame for j in range(1, rep.d // 2 + 1)
            for frame in conic_frames(j))

    def test_eval_points_do_not_scale_the_work(self, monkeypatch):
        log = []
        real_gram, real_values = gorenstein.gram, PointSet.values
        monkeypatch.setattr(gorenstein, "gram", lambda x, frame, w, scale: (
            log.append(("gram", tuple(frame), tuple(w), scale))
            or real_gram(x, frame, w, scale)))
        monkeypatch.setattr(PointSet, "values", lambda x, frame: (
            log.append(("values", tuple(frame))) or real_values(x, frame)))
        runs = {}
        for eval_points in (1, 10 ** 6):
            log.clear()
            rep = verify_conic_slp(3, 4, False, 6, random.Random(108),
                                   eval_points=eval_points)
            assert rep.decomposition_checks == eval_points * 3
            runs[eval_points] = (list(log), rep.certificate.to_json_dict())
        assert runs[1] == runs[10 ** 6]
        # the proof is five frame reads per j, and no Gram
        assert {op for op, *_ in runs[1][0][-5 * 3:]} == {"values"}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(),
           st.integers(0, 3), st.data())
    def test_every_weighted_entry_is_checked(self, s1, s2, share, extra,
                                             data):
        # the verifier passes, and one entry off by one at a point, in a
        # row that carries weight there, raises the matching message
        x = gen_two_lines(s1, s2, share)
        d = 2 * x.tau() + extra
        rep = verify_conic_slp(s1, s2, share, d, random.Random(s1 + s2),
                               eval_points=1)
        assert rep.certificate.verdict is True and rep.d == d
        if d < 2:
            return
        j = data.draw(st.integers(1, d // 2), label="j")
        i = data.draw(st.integers(0, x.size - 1), label="point")
        p = x.points[i]
        frame, b, c, bm, cm = conic_frames(j)
        assembly = f"block assembly mismatch at j={j}"
        decomposition = f"Hessian decomposition fails at j={j}, point={p}"
        rows = [(frame, assembly)]
        if p[1] == 0:  # line 1
            rows += [(b, assembly)] + [(bm, decomposition)] * (p[0] != 0)
        else:
            rows += [(c, assembly), (cm, decomposition)]
        target, message = data.draw(st.sampled_from(rows), label="row")
        entry = data.draw(st.integers(0, len(target) - 1), label="entry")
        with corrupted(target, j, i, entry):
            with pytest.raises(TheoremTensionError) as info:
                verify_conic_slp(s1, s2, share, d, random.Random(s1 + s2),
                                 eval_points=1)
        assert str(info.value) == message


def conic_frames(j):
    """The conic proof's frames at j: the whole frame, B, C and the F1'
    and F2' minors' frames, which are B's and C's at j - 1."""
    b = tuple((j - i, 0, i) for i in range(j + 1))
    c = tuple((0, i, j - i) for i in range(j + 1))
    bm = tuple((j - 1 - i, 0, i) for i in range(j))
    cm = tuple((0, i, j - 1 - i) for i in range(j))
    return b + c[1:], b, c, bm, cm


@contextmanager
def corrupted(frame, j, i, entry):
    """PointSet.values with entry `entry` of point i's row of `frame` one
    more, from the certificate on and once a frame of degree j is read:
    the minors' frames at j are read as B and C at j - 1 first, and the
    verifier reads degree j's own frames before the minors'."""
    real_values, real_certified = PointSet.values, theorems._certified
    live, top = False, 0  # top: the highest degree read since

    def values(x, f):
        nonlocal top
        rows = real_values(x, f)
        if live:
            top = max(top, *(sum(m) for m in f))
            if tuple(f) == frame and top >= j:
                row = list(rows[i])
                row[entry] += 1
                rows = rows[:i] + (tuple(row),) + rows[i + 1:]
        return rows

    def certified(*args):
        nonlocal live
        cert = real_certified(*args)
        live = True
        return cert

    with mock.patch.object(PointSet, "values", values), \
            mock.patch.object(theorems, "_certified", certified):
        yield


class TestDeterminantRule:
    """The verifiers' Hessian dets, taken by gram's rule (0, one
    Cauchy-Binet term, or an elimination), against the elimination of
    each Hessian."""

    # criterion 10's tail cells: (kind, tau, off)
    TAIL_CELLS = (("conic", 2, 0), ("conic", 3, 0), ("conic", 4, 0),
                  ("conic", 3, 1), ("conic", 4, 1), ("conic", 4, 2),
                  ("conic", 4, 3), ("line", 2, 1), ("line", 3, 1),
                  ("line", 3, 2), ("line", 3, 3), ("line", 4, 1),
                  ("line", 4, 2), ("line", 4, 3))

    def test_tail_witness_dets_are_eliminated_dets(self, monkeypatch):
        algebras = []
        real = theorems.random_power_sum

        def keep(*args, **kwargs):
            algebras.append(real(*args, **kwargs))
            return algebras[-1]

        monkeypatch.setattr(theorems, "random_power_sum", keep)
        rng = random.Random(1919)
        plateau = 0
        for kind, tau, off in self.TAIL_CELLS:
            x = make_tail_config(kind, tau, off, rng)
            report = verify_tail_nonvanishing(kind, x, None, rng, trials=30)
            algebra = algebras[-1]
            assert set(report.witnesses) == set(range(report.k - 1, tau + 1))
            for j, (ell, val) in report.witnesses.items():
                assert val == linalg.det(algebra.hessian(j, ell)[0]) != 0
                plateau += len(algebra.basis(j)) == x.size
        assert plateau > 0  # some witnesses took the single-term branch


def rep_tau(s1, s2, share):
    return gen_two_lines(s1, s2, share).tau()


class TestConicSplit:
    @pytest.mark.parametrize("share", [False, True])
    def test_parts_sum_to_the_weights_with_disjoint_supports(self, share):
        # F1 weighs the points of the mask, F2 the rest
        x = gen_two_lines(3, 4, share)
        on1 = _line_mask(x)
        assert set(on1) <= {0, 1}
        assert all(p[1] == 0 for p, a in zip(x.points, on1) if a)
        assert all(p[0] == 0 for p, a in zip(x.points, on1) if not a)

    def test_shared_intersection_is_in_f1_only(self):
        x = gen_two_lines(3, 4, True)
        q = x.points.index((0, 0, 1))
        on1 = _line_mask(x)
        assert on1[q] == 1
        assert sum(on1) == 3 and x.size - sum(on1) == 3

    def test_point_on_neither_line_raises(self):
        x = PointSet([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        with pytest.raises(ShapeMismatchError, match="neither line"):
            _line_mask(x)


def tail_start(x, kind):
    """k as the tail verifier reads it off the points."""
    delta = first_difference(x.hilbert_vector(x.tau()))
    return theorems._tail_start(delta, {"line": 1, "conic": 2}[kind])


class TestTailConfigs:
    def test_line_interior_k(self):
        rng = random.Random(107)
        x = make_tail_config("line", 3, 1, rng)
        assert tail_start(x, "line") == 2
        assert x.size == 5 and x.tau() == 3

    def test_line_boundary_k(self):
        rng = random.Random(108)
        x = make_tail_config("line", 3, 2, rng)
        assert tail_start(x, "line") == 3  # flat run is only the last step
        assert x.size == 6

    def test_conic_full_run(self):
        rng = random.Random(109)
        x = make_tail_config("conic", 3, 0, rng)
        assert tail_start(x, "conic") == 1
        assert x.size == 7

    @pytest.mark.parametrize("delta, r, k", [
        ((1, 2, 1, 1), 1, 2), ((1, 2, 2, 2), 2, 1), ((1, 2, 3, 2), 2, 3),
        ((1, 1, 1), 1, 1), ((1, 2, 3), 2, None), ((1, 2, 2, 1), 2, None),
        ((1,), 1, None)])
    def test_tail_start_is_the_least_k(self, delta, r, k):
        assert theorems._tail_start(delta, r) == k

    def test_infeasible_shape_raises(self, monkeypatch):
        # [-1, 1]^2 holds 6 points off the line x2 = 0, so the line tail
        # tau = 4, off = 6 puts all 11 points on the lines x2 = 0, 1, -1,
        # and no draw has the tail's shape
        monkeypatch.setattr(theorems, "_TAIL_BOX", 1)
        rng = random.Random(110)
        with pytest.raises(ShapeMismatchError):
            make_tail_config("line", 4, 6, rng)

    # the box [-12, 12]^2 holds 625 points: 25 on the line x2 = 0 and 7 on
    # the conic x0 x2 = x1^2, so at most 600 and 618 fit off the curve;
    # a conic tail at tau = 5 holds at most 6
    @pytest.mark.parametrize("kind, tau, off", [
        ("cubic", 3, 1), ("line", 2, -1), ("line", 0, 1), ("conic", -1, 0),
        ("line", 2, 601), ("conic", 3, 619), ("line", 3, 0), ("conic", 1, 0),
        ("line", 1, 1), ("conic", 5, 100)])
    def test_malformed_request_raises_before_any_draw(self, kind, tau, off):
        rng = random.Random(110)
        state = rng.getstate()
        with pytest.raises(ValueError):
            make_tail_config(kind, tau, off, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("kind, tau", [(kind, tau) for kind in _TAIL_R
                                           for tau in range(2, 7)])
    def test_one_past_the_off_curve_bound_is_refused(self, kind, tau):
        # (tau-1)(tau-2)/2 off a conic and tau(tau-1)/2 off a line: one
        # more is refused before any draw, and the bound itself is not
        most = {"conic": (tau - 1) * (tau - 2), "line": tau * (tau - 1)}[kind]
        most //= 2
        rng = random.Random(117)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"at most {most} off-curve"):
            make_tail_config(kind, tau, most + 1, rng)
        assert rng.getstate() == state
        with mock.patch.object(theorems, "_TAIL_DRAWS", 0):
            with pytest.raises(ShapeMismatchError):
                make_tail_config(kind, tau, most, rng)

    def test_a_full_box_is_not_refused(self, monkeypatch):
        # [-1, 1]^2 holds 6 points off the line: off = 6 is searched (and
        # gives no tail shape), off = 7 is refused before any draw
        monkeypatch.setattr(theorems, "_TAIL_BOX", 1)
        with pytest.raises(ShapeMismatchError):
            make_tail_config("line", 4, 6, random.Random(113))
        with pytest.raises(ValueError, match=r"holds 6 points off the line"):
            make_tail_config("line", 4, 7, random.Random(113))

    def test_verify_line_tail(self):
        rng = random.Random(111)
        x = make_tail_config("line", 3, 1, rng)
        rep = verify_tail_nonvanishing("line", x, 6, rng, trials=8)
        assert rep.k == 2
        assert set(rep.witnesses) == set(range(rep.k - 1, 4))
        assert all(val != 0 for _, val in rep.witnesses.values())
        assert rep.zero_forcing_checks > 0
        assert len(rep.curve_indices) == 4 and len(rep.off_indices) == 1

    def test_verify_conic_boundary_tail(self):
        rng = random.Random(112)
        x = make_tail_config("conic", 3, 1, rng)
        rep = verify_tail_nonvanishing("conic", x, 6, rng, trials=8)
        assert rep.k == 3  # k = tau
        assert set(rep.witnesses) == {2, 3}
        assert len(rep.curve_indices) == 7

    def test_verify_rejects_points_without_the_tail(self):
        rng = random.Random(113)
        x = make_tail_config("line", 3, 2, rng)  # Delta h ends in 1's
        with pytest.raises(ShapeMismatchError, match="does not end in 2's"):
            verify_tail_nonvanishing("conic", x, 6, rng, trials=4)

    def test_verify_rejects_low_degree(self):
        rng = random.Random(114)
        x = make_tail_config("line", 3, 1, rng)
        with pytest.raises(PreconditionViolatedError):
            verify_tail_nonvanishing("line", x, 5, rng, trials=4)

    def test_verify_requires_plane(self):
        rng = random.Random(115)
        pts = [[Fraction(v) for v in p]
               for p in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
                         (1, 0, 1, 0), (1, 0, 0, 1))]
        with pytest.raises(NotPlaneConfigError):
            verify_tail_nonvanishing("line", PointSet(pts), 6, rng, trials=30)


# The (kind, tau, off) cells of acceptance criterion 10.
CRITERION_10_CELLS = (
    ("conic", 2, 0), ("conic", 3, 0), ("conic", 4, 0), ("conic", 3, 1),
    ("conic", 4, 1), ("conic", 4, 2), ("conic", 4, 3), ("line", 2, 1),
    ("line", 3, 1), ("line", 3, 2), ("line", 3, 3), ("line", 4, 1),
    ("line", 4, 2), ("line", 4, 3))


class TestZeroForcing:
    @pytest.mark.parametrize("idx", range(len(CRITERION_10_CELLS)))
    def test_rank_proof_agrees_with_sampling(self, monkeypatch, idx):
        kind, tau, off = CRITERION_10_CELLS[idx]
        x = make_tail_config(kind, tau, off, random.Random(idx))
        d, trials = 2 * tau, 30
        degrees = range(tail_start(x, kind) - 1, d // 2 + 1)
        det, det_calls = linalg.det, []

        def counting_det(m):
            det_calls.append(m.rows)
            return det(m)

        monkeypatch.setattr(linalg, "det", counting_det)
        rep = verify_tail_nonvanishing(kind, x, d, random.Random(idx),
                                       trials=trials)
        monkeypatch.undo()
        # Only the witness search evaluates determinants.
        assert len(det_calls) <= len(degrees) * trials
        assert rep.zero_forcing_checks == off * len(degrees) * trials
        rng = random.Random(1000 + idx)
        for i in rep.off_indices:
            for j in degrees:
                assert sampled_zero_forcing(x, d, j, x.basis(j), i,
                                            rng, trials) == 0, (i, j)

    @pytest.mark.parametrize("idx", range(len(CRITERION_10_CELLS)))
    def test_one_degree_gives_the_per_degree_verdict(self, monkeypatch, idx):
        # the verifier ranks at k - 1 only; the loop over every (weight,
        # degree) gives the same verdict and message, on the true curve
        # and with each of three curve points swapped for the first
        # off-curve one; some of those swaps are refuted
        kind, tau, off = CRITERION_10_CELLS[idx]
        x = make_tail_config(kind, tau, off, random.Random(idx))
        d = 2 * tau
        frames = {j: x.basis(j)
                  for j in range(tail_start(x, kind) - 1, d // 2 + 1)}
        curve = find_subset_on_curve(x, _TAIL_R[kind], _TAIL_R[kind] * tau + 1)
        rest = [i for i in range(x.size) if i not in curve]
        subsets = [curve] + [tuple(sorted(set(curve) - {c} | {rest[0]}))
                             for c in curve[:3] if rest]
        verdicts = set()
        for subset in subsets:
            monkeypatch.setattr(theorems, "find_subset_on_curve",
                                lambda *args: subset)
            others = tuple(i for i in range(x.size) if i not in subset)
            found = first_unforced_weight(x.points, frames, others)
            try:
                rep = verify_tail_nonvanishing(kind, x, d, random.Random(idx),
                                               trials=30)
            except TheoremTensionError as exc:
                assert found is not None
                assert str(exc) == ("det survives zeroing off-curve weight "
                                    f"{found[0]} at j={found[1]}")
            else:
                assert found is None and rep.off_indices == others
            verdicts.add(found is None)
        assert verdicts == ({True, False} if off else {True})

    def test_one_rank_per_off_curve_point(self, monkeypatch):
        x = make_tail_config("line", 4, 3, random.Random(5))
        ranks, real = [], linalg.rank
        monkeypatch.setattr(linalg, "rank",
                            lambda m: ranks.append(m.rows) or real(m))
        rep = verify_tail_nonvanishing("line", x, None, random.Random(6),
                                       trials=30)
        degrees = rep.d // 2 - rep.k + 2
        assert degrees > 1 and len(rep.off_indices) == 3
        assert ranks == [x.size - 1] * 3
        assert rep.zero_forcing_checks == 3 * degrees * 30

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3),
                              st.integers(-3, 3)).filter(any),
                    min_size=2, max_size=9,
                    unique_by=lambda p: PointSet([p]).points))
    @example(pts=[(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 2, 3)])
    def test_a_separator_stays_one_in_every_higher_degree(self, pts):
        # h_X(j) - h_(X - P)(j) is 1 exactly when P has a separator of
        # degree j, and a separator times a coordinate nonzero at P is one
        # of degree j + 1: so the drop is 0 or 1 and never falls again
        x = PointSet(pts)
        for i in range(x.size):
            y = x.subset([q for q in range(x.size) if q != i])
            drops = [x.hilbert(j) - y.hilbert(j) for j in range(x.tau() + 2)]
            assert set(drops) <= {0, 1}
            assert drops == sorted(drops) and drops[-1] == 1

    def test_wrong_curve_subset_is_refuted(self, monkeypatch):
        x = make_tail_config("line", 2, 1, random.Random(0))
        assert find_subset_on_curve(x, 1, 3) == (0, 1, 2)
        # Swap curve point 0 for the off-curve point 3.
        monkeypatch.setattr(theorems, "find_subset_on_curve",
                            lambda *args: (1, 2, 3))
        with pytest.raises(TheoremTensionError,
                           match="off-curve weight 0 at j=1$"):
            verify_tail_nonvanishing("line", x, 4, random.Random(1),
                                     trials=30)
        assert sampled_zero_forcing(x, 4, 1, x.basis(1), 0,
                                    random.Random(2), 30) == 30


class TestFamilies:
    def test_m_two_all_pass(self):
        rng = random.Random(116)
        reports = verify_corollary_families([2], rng)
        assert len(reports) == 5
        names = {rep.name for rep in reports}
        assert names == {"1,2,1^m", "1,2,2,1^m", "1,2,3,1^m", "1,2^m",
                         "1,2,3,2^m"}
        for rep in reports:
            assert rep.certificate.verdict is True
            assert rep.d == 2 * (len(rep.delta) - 1)
            assert rep.x.size == sum(rep.delta)


class TestPropSMinus:
    def test_kind_one(self):
        rng = random.Random(117)
        x = gen_generic(2, 7, rng)
        rep = verify_prop_s_minus(x, 6, 2, 1, rng, trials=30)
        assert rep.det != 0

    def test_kind_two(self):
        rng = random.Random(118)
        x = gen_generic(2, 8, rng)
        rep = verify_prop_s_minus(x, 6, 2, 2, rng, trials=30)
        assert rep.det != 0

    def test_kind_two_rejects_collinear(self):
        rng = random.Random(119)
        pts = [[Fraction(v) for v in p]
               for p in ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1),
                         (1, 1, 2), (1, 3, 1), (1, 4, 3), (1, 5, 7))]
        with pytest.raises(PreconditionViolatedError):
            verify_prop_s_minus(PointSet(pts), 6, 2, 2, rng, trials=30)

    def test_wrong_hilbert_value(self):
        rng = random.Random(120)
        x = gen_generic(2, 7, rng)
        with pytest.raises(PreconditionViolatedError):
            verify_prop_s_minus(x, 6, 1, 1, rng,  # h(1) = 3 != 6
                                trials=30)

    def test_kind_validated(self):
        rng = random.Random(121)
        x = gen_generic(2, 7, rng)
        with pytest.raises(ValueError):
            verify_prop_s_minus(x, 6, 2, 3, rng, trials=30)
        with pytest.raises(PreconditionViolatedError):
            verify_prop_s_minus(x, 6, 4, 1, rng, trials=30)


class TestFailureVerdicts:
    """Each failure verdict, forced: an exhausted search is
    NoWitnessFoundError, a contradicted identity TheoremTensionError."""

    @staticmethod
    def _zero_dets(monkeypatch):
        real = GorensteinAlgebra.hessian
        monkeypatch.setattr(GorensteinAlgebra, "hessian", lambda self, j, ell:
                            (real(self, j, ell)[0], Fraction(0)))

    @pytest.mark.parametrize("run", [
        lambda rng: verify_rnc_slp(2, 5, None, rng, attempts=3),
        lambda rng: verify_conic_slp(3, 2, False, None, rng, attempts=3)],
        ids=["rnc", "conic"])
    def test_exhausted_lefschetz_search(self, monkeypatch, run):
        monkeypatch.setattr(theorems, "check_slp",
                            lambda algebra, rng, attempts: SlpCertificate(
                                kind="slp", ell=None, attempts=attempts))
        with pytest.raises(NoWitnessFoundError,
                           match="no Lefschetz witness") as info:
            run(random.Random(130))
        assert info.value.diagnostics == {"attempts": 3}

    def test_exhausted_family_search(self, monkeypatch):
        monkeypatch.setattr(construct, "certify_at", lambda algebra, ell, t: [
            DegreeRecord(j=0, method="hessian-det", det=Fraction(0), rank=0,
                         required=1)])
        with pytest.raises(NoWitnessFoundError, match="in 2 attempts$"):
            verify_corollary_families([1], random.Random(131), attempts=2)

    def test_block_assembly_mismatch(self):
        # P_0 = (1:0:0) is on line 1, so its whole row at j = 1 must be its
        # B row followed by one zero; that zero made one
        frame = conic_frames(1)[0]
        with corrupted(frame, 1, 0, 2):
            with pytest.raises(TheoremTensionError,
                               match="block assembly mismatch at j=1$"):
                verify_conic_slp(3, 2, False, None, random.Random(132),
                                 eval_points=1)

    @pytest.mark.parametrize("i, point", [(1, r"\(1, 0, 1\)"),
                                          (3, r"\(0, 1, 0\)")],
                             ids=["f1", "f2"])
    def test_hessian_decomposition_failure(self, i, point):
        # at j = 1 both minors' frame is the one monomial 1, and P_i's row
        # of it is read as F1''s on line 1 (i = 1) and as F2''s on line 2
        # (i = 3): made 2, p0 (p1) times it is no longer B's (C's) entry
        with corrupted(conic_frames(1)[3], 1, i, 0):
            with pytest.raises(TheoremTensionError,
                               match=f"Hessian decomposition fails at j=1, "
                                     f"point={point}$"):
                verify_conic_slp(3, 2, False, None, random.Random(133),
                                 eval_points=1)

    def test_exhausted_tail_witness_search(self, monkeypatch):
        x = make_tail_config("line", 3, 1, random.Random(134))  # k = 2
        self._zero_dets(monkeypatch)
        with pytest.raises(NoWitnessFoundError,
                           match=r"no nonzero Hess\^1 witness in 4 trials"
                           ) as info:
            verify_tail_nonvanishing("line", x, None, random.Random(135),
                                     trials=4)
        assert info.value.diagnostics == {"kind": "line", "j": 1, "d": 6}

    def test_exhausted_s_minus_witness_search(self, monkeypatch):
        x = gen_generic(2, 7, random.Random(117))  # h_A(2) = 6 at d = 6
        self._zero_dets(monkeypatch)
        with pytest.raises(NoWitnessFoundError,
                           match=r"no Hess\^2 witness for kind 1 in 3 trials"):
            verify_prop_s_minus(x, 6, 2, 1, random.Random(136), trials=3)
