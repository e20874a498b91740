"""Sequence classification: Macaulay bounds, O-sequences, SI, flattening."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gorlef.construct import construct_slp_algebra
from gorlef.errors import NotSIError
from gorlef.hvector import (HVector, binomial_expand, first_macaulay_violation,
                            hbar, is_O_sequence, is_SI, is_differentiable,
                            macaulay_bound, parse_list)
from gorlef.linalg import exact

from oracles import exhaustive_binomial_expansions, linear_scan_binomial_expansion


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
        assert first_macaulay_violation((1, 2, 5)) == 2

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
