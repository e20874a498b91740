"""Sequence classification: Macaulay bounds, O-sequences, SI, flattening."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gorlef import hvector
from gorlef.construct import construct_slp_algebra
from gorlef.errors import NotSIError
from gorlef.hvector import (HVector, binomial_expand, hbar, is_O_sequence,
                            is_SI, is_differentiable, macaulay_bound,
                            parse_list)
from gorlef.linalg import exact

from oracles import (exhaustive_binomial_expansions, first_macaulay_violation,
                     is_differentiable_by_definition,
                     is_o_sequence_by_definition, is_si_by_definition,
                     linear_scan_binomial_expansion, macaulay_bound_by_scan)


def criterion_03_candidates(h1_max=4, d_max=8, peak_max=15):
    """The 2,965 symmetric sequences whose first half does not decrease,
    with h1 <= h1_max, socle degree <= d_max and peak <= peak_max: what
    acceptance criterion 03 hands to is_SI, in its order."""
    candidates = []
    for d in range(d_max + 1):
        halves = [(1,)]
        for _ in range(d // 2):
            halves = [half + (v,) for half in halves
                      for v in range(half[-1] if len(half) > 1 else 1,
                                     (h1_max if len(half) == 1 else peak_max)
                                     + 1)]
        candidates += [half + half[: d - d // 2][::-1] for half in halves]
    return candidates


CANDIDATES = criterion_03_candidates()


class TestBinomialExpand:
    def test_frozen_cases(self):
        assert list(binomial_expand(5, 2)) == [(3, 2), (2, 1)]
        assert list(binomial_expand(10, 3)) == [(5, 3)]
        assert list(binomial_expand(1, 4)) == [(4, 4)]
        assert list(binomial_expand(7, 1)) == [(7, 1)]

    def test_value_roundtrip(self):
        for h in (1, 2, 5, 13, 37, 60):
            for i in (1, 2, 3, 4, 5):
                assert sum(comb(m, k) for m, k in binomial_expand(h, i)) == h

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 6))
    def test_matches_the_linear_scan(self, h, i):
        assert list(binomial_expand(h, i)) == \
            linear_scan_binomial_expansion(h, i)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            binomial_expand(0, 2)
        with pytest.raises(ValueError):
            binomial_expand(3, 0)

    def test_strictly_descending_tops(self):
        for h in range(1, 61):
            for i in range(1, 6):
                parts = list(binomial_expand(h, i))
                tops = [m for m, _ in parts]
                lows = [k for _, k in parts]
                assert tops == sorted(tops, reverse=True)
                assert len(set(tops)) == len(tops)
                assert lows == list(range(i, i - len(parts), -1))
                assert all(m >= k for m, k in parts)


class TestMacaulayBound:
    def test_frozen_cases(self):
        assert macaulay_bound(5, 2) == 7
        assert macaulay_bound(3, 1) == 6
        assert macaulay_bound(0, 4) == 0
        assert macaulay_bound(1, 1) == 1
        assert macaulay_bound(6, 2) == 10  # full growth stays full

    def test_monotone_in_h(self):
        for i in (1, 2, 3):
            bounds = [macaulay_bound(h, i) for h in range(0, 30)]
            assert bounds == sorted(bounds)


class TestOSequence:
    def test_accepts_full_polynomial_growth(self):
        assert is_O_sequence((1, 3, 6, 10))
        assert is_O_sequence((1,))
        assert is_O_sequence((1, 4, 10, 20))

    def test_rejects_overgrown_step(self):
        assert not is_O_sequence((1, 2, 5))
        assert first_macaulay_violation((1, 2, 5)) == 2  # the oracle's index

    def test_nonunimodal_but_valid(self):
        # a drop then a bounded rise is fine: 12 in degree 2 allows 13 next
        assert is_O_sequence((1, 13, 12, 13))

    def test_must_start_at_one(self):
        assert not is_O_sequence((2, 3))
        assert first_macaulay_violation((2, 3)) == 0

    def test_zero_can_only_be_trailing(self):
        assert not is_O_sequence((1, 2, 0, 1))


class TestDifferentiable:
    def test_simple(self):
        assert is_differentiable((1, 3, 5))
        assert is_differentiable((1,))
        assert not is_differentiable((1, 13, 12))  # negative difference

    def test_difference_must_be_O_sequence(self):
        # delta = (1,2,5) violates Macaulay
        assert not is_differentiable((1, 3, 8))


class TestSI:
    def test_frozen_cases(self):
        assert is_SI((1, 3, 5, 5, 3, 1))
        assert is_SI((1, 1, 1))
        assert is_SI((1,))
        assert not is_SI((1, 13, 12, 13, 1))

    def test_symmetry_required(self):
        assert not is_SI((1, 3, 5, 3))

    def test_unimodality_required(self):
        # symmetric with a dip
        assert not is_SI((1, 3, 1, 3, 1))

    def test_even_socle_degree(self):
        assert is_SI((1, 2, 3, 2, 1))
        assert is_SI((1, 4, 4, 1))


class TestHbar:
    def test_flattening(self):
        bar = hbar(HVector((1, 3, 5, 5, 3, 1)))
        assert bar.t == 2
        assert bar.s == 5
        assert tuple(bar.values) == (1, 3, 5)
        assert bar.delta() == (1, 2, 2)

    def test_peak_plateau(self):
        bar = hbar(HVector((1, 2, 2, 2, 1)))
        assert bar.t == 1 and bar.s == 2
        assert bar.delta() == (1, 1)

    def test_single_entry(self):
        bar = hbar(HVector((1,)))
        assert bar.t == 0 and bar.s == 1

    def test_rejects_non_si(self):
        with pytest.raises(NotSIError):
            hbar(HVector((1, 13, 12, 13, 1)))


class TestHVectorParsing:
    def test_parse_forms(self):
        assert tuple(HVector.parse("1,3,5,5,3,1")) == (1, 3, 5, 5, 3, 1)
        assert tuple(HVector.parse("[1, 2, 1]")) == (1, 2, 1)

    @pytest.mark.parametrize("text", ["1,,2,1", "1,2,1,", ",1", " , ", "",
                                      "[]", "[1,,1]"])
    def test_empty_entry_rejected(self, text):
        with pytest.raises(ValueError, match="empty entry"):
            HVector.parse(text)

    def test_parse_list_converts_each_entry(self):
        assert parse_list(" 1/2 , 3 ", exact) == [Fraction(1, 2), 3]
        with pytest.raises(ValueError, match="empty entry"):
            parse_list("1,,1", exact)

    @pytest.mark.parametrize("check", [
        HVector, is_O_sequence, is_differentiable, is_SI, hbar,
        lambda h: construct_slp_algebra(h, random.Random(0))],
        ids=["HVector", "is_O_sequence", "is_differentiable", "is_SI",
             "hbar", "construct"])
    def test_a_string_is_refused_not_read_digit_by_digit(self, check):
        # "13531" used to read as (1, 3, 5, 3, 1)
        with pytest.raises(ValueError, match=r"HVector\.parse"):
            check("13531")

    def test_trailing_zeros_trimmed(self):
        assert tuple(HVector((1, 2, 0, 0))) == (1, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HVector((1, -2))

    def test_socle_degree_and_peak(self):
        hv = HVector((1, 3, 5, 5, 3, 1))
        assert hv.socle_degree == 5
        assert max(hv) == 5


class TestExpansionAgainstExhaustiveSearch:
    def test_unique_and_matching(self):
        # the full sweep lives in the acceptance suite; spot-check here
        for h in (1, 5, 12, 31, 60):
            for i in (1, 2, 3, 5):
                sols = exhaustive_binomial_expansions(h, i)
                assert len(sols) == 1
                assert [tuple(p) for p in binomial_expand(h, i)] == sols[0]


@st.composite
def near_the_bound(draw, max_len=7):
    """h_0 in {0, 1, 2}, then steps that drop (to zero or not), plateau,
    or rise: h_1 to 3..5, a later entry to one below, onto or one past
    the Macaulay bound."""
    h = [draw(st.sampled_from([1, 1, 1, 0, 2]))]
    for i in range(draw(st.integers(0, max_len - 1))):
        step = draw(st.sampled_from(["zero", "drop", "plateau", "rise"]))
        if step == "zero":
            h.append(0)
        elif step == "drop":
            h.append(draw(st.integers(0, h[-1])))
        elif step == "plateau":
            h.append(h[-1])
        else:
            bound = macaulay_bound_by_scan(h[-1], i) if i else 4
            h.append(max(0, bound + draw(st.integers(-1, 1))))
    return h


@st.composite
def symmetric_from_delta(draw):
    """A near-the-bound sequence read as the first difference of a first
    half, mirrored into an odd or even socle degree; sometimes one entry
    is nudged and trailing zeros are appended."""
    half = list(accumulate(draw(near_the_bound(max_len=5))))
    h = half + half[::-1][draw(st.integers(0, 1)):]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(h) - 1))
        h[k] = max(0, h[k] + draw(st.sampled_from([-1, 1])))
    return h + [0] * draw(st.integers(0, 2))


SEQUENCES = st.one_of(st.lists(st.integers(0, 12), min_size=1, max_size=8),
                      near_the_bound(), symmetric_from_delta())


class TestAgainstTheDefinitions:
    """The one-pass predicates agree with the textbook definitions in
    tests/oracles.py, which expand every bound and scan unimodality."""

    @settings(max_examples=600, deadline=None)
    @given(SEQUENCES)
    def test_the_predicates_match_the_definitions(self, h):
        assert is_O_sequence(h) == is_o_sequence_by_definition(h)
        assert is_differentiable(h) == is_differentiable_by_definition(h)
        assert is_SI(h) == is_si_by_definition(h)

    def test_the_candidates_match_the_definitions(self):
        for h in CANDIDATES:
            assert is_O_sequence(h) == is_o_sequence_by_definition(h), h
            assert is_differentiable(h) == is_differentiable_by_definition(h), h
            assert is_SI(h) == is_si_by_definition(h), h

    @pytest.mark.parametrize("check, digest, accepted", [
        (is_O_sequence,
         "280449f60d0f43a4ca809561d6212e6aa77c5501f7c5c9944b8f613ae7bde113", 296),
        (is_differentiable,
         "b220cd0ca2ab837f1a2cbbfc5a5b1ddca0183ebfb6d3a4d7f3450b882a1b6cc3", 9),
        (is_SI,
         "ee9175a5dd673d3058d2bfed65f603f1db8a21a4851adc81c1659fb209188efb", 229),
    ], ids=["is_O_sequence", "is_differentiable", "is_SI"])
    def test_the_candidate_verdicts_are_unchanged(self, check, digest, accepted):
        # recorded with the predicates that expanded every bound and scanned
        # unimodality: SHA-256 of the verdicts as a 0/1 string, in order
        bits = "".join("1" if check(h) else "0" for h in CANDIDATES)
        assert len(bits) == 2965 and bits.count("1") == accepted
        assert hashlib.sha256(bits.encode()).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=7), st.integers(-5, -1),
           st.integers(0, 7))
    def test_a_negative_entry_is_refused_or_rejected(self, h, negative, at):
        h.insert(min(at, len(h)), negative)
        assert is_O_sequence(h) is False
        assert is_differentiable(h) is False
        for check in (is_SI, HVector, hbar):
            with pytest.raises(ValueError, match="negative entry"):
                check(h)

    @pytest.mark.parametrize("check, error", [
        (is_O_sequence, ValueError), (is_differentiable, ValueError),
        (is_SI, ValueError), (HVector, ValueError), (hbar, ValueError)],
        ids=["is_O_sequence", "is_differentiable", "is_SI", "HVector", "hbar"])
    def test_empty_input(self, check, error):
        # every callable refuses an empty h-vector in the same words
        with pytest.raises(error, match="empty h-vector"):
            check(())

    @pytest.mark.parametrize("check", [is_O_sequence, is_differentiable,
                                       is_SI, HVector, hbar],
                             ids=["is_O_sequence", "is_differentiable",
                                  "is_SI", "HVector", "hbar"])
    @pytest.mark.parametrize("entry", [2.5, 2.0, Fraction(5, 2), Fraction(2),
                                       True, False, "2"],
                             ids=["float", "integral-float", "fraction",
                                  "integral-fraction", "true", "false",
                                  "string"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_non_int_entry_is_refused_by_name(self, check, entry, at):
        # 1,2,1 with one entry replaced: nothing is truncated or converted
        h = [1, 2, 1]
        h[at] = entry
        with pytest.raises(ValueError,
                           match=f"entry {re.escape(repr(entry))} is not an int"):
            check(h)


class TestExpansionOnlyOnARise:
    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        real = hvector.binomial_expand

        def spy(h, i):
            calls.append((h, i))
            return real(h, i)

        monkeypatch.setattr(hvector, "binomial_expand", spy)
        return calls

    def test_no_rise_no_expansion(self, expansions):
        assert is_O_sequence((1, 3, 3, 2, 1))
        assert expansions == []

    def test_one_rise_one_expansion(self, expansions):
        assert is_O_sequence((1, 2, 3))
        assert expansions == [(2, 1)]

    @staticmethod
    def rises_past_degree_one(seq):
        return sum(seq[i + 1] > seq[i] for i in range(1, len(seq) - 1))

    def test_the_candidates_expand_at_most_once_per_rise(self, expansions):
        for h in CANDIDATES:
            is_O_sequence(h)
        assert 0 < len(expansions) <= sum(map(self.rises_past_degree_one,
                                               CANDIDATES))
        expansions.clear()
        for h in CANDIDATES:
            is_SI(h)
        halves = [h[: (len(h) + 1) // 2] for h in CANDIDATES]
        deltas = [[b - a for a, b in zip((0, *half), half)] for half in halves]
        assert 0 < len(expansions) <= sum(map(self.rises_past_degree_one,
                                              deltas))
