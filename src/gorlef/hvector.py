"""Finite h-vectors and Macaulay growth machinery.

Implements the i-binomial expansion, the Macaulay bound h^<i>, and the
classification predicates (O-sequence, differentiable, SI) together
with the stabilized sequence used by the realization pipeline.

Each predicate converts its argument once and makes one pass.  As
h^<i> >= h for i >= 1 (C(m+1, k+1) >= C(m, k) when m >= k), a bound is
expanded only where h rises; and a symmetric sequence whose first half
has a nonnegative first difference is unimodal.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from math import comb
from typing import Callable, List, Sequence, Tuple

from .errors import NotSIError


def parse_list(text: str, convert: Callable[[str], object] = int) -> list:
    """Comma-separated entries, stripped and converted; an empty one is a
    ValueError, so "1,,2" is not read as the shorter "1,2"."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise ValueError(f"empty entry in the list {reprlib.repr(text)}")
    return [convert(tok) for tok in tokens]


class HVector:
    """Finite sequence of nonnegative integers with h_d != 0.

    Trailing zeros are trimmed on construction (at least one entry is
    always kept).  h_0 is recorded as given; the classification
    predicates, not the constructor, require h_0 = 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]):
        e = _entries(entries)
        if min(e) < 0:
            raise ValueError("negative entry in h-vector")
        n = len(e)
        while n > 1 and e[n - 1] == 0:
            n -= 1
        self.entries: Tuple[int, ...] = e[:n]

    @classmethod
    def parse(cls, text: str) -> "HVector":
        """Parse either comma-separated integers or a JSON-style list."""
        t = text.strip()
        if t.startswith("[") and t.endswith("]"):
            t = t[1:-1]
        return cls(parse_list(t))

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, HVector):
            return self.entries == other.entries
        return self.entries == tuple(other)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"HVector({list(self.entries)})"


def _largest_comb_at_most(rem: int, k: int) -> int:
    """Largest m >= k with C(m, k) <= rem, for rem >= 1: the step from k
    doubles until C(m, k) passes rem, then the bracket is bisected."""
    lo, step = k, 1
    while comb(k + step, k) <= rem:
        lo, step = k + step, 2 * step
    hi = k + step  # C(lo, k) <= rem < C(hi, k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def binomial_expand(h: int, i: int) -> Tuple[Tuple[int, int], ...]:
    """The unique i-binomial expansion h = sum C(m_k, k) of h >= 1, i >= 1.

    Returns the parts ((m_i, i), (m_(i-1), i-1), ..., (m_j, j)) with
    m_i > m_(i-1) > ... > m_j >= j >= 1; greedy choice of the largest
    C(m, k) <= remainder at each level yields the unique such
    decomposition.
    """
    if h < 1 or i < 1:
        raise ValueError(f"need h >= 1 and i >= 1, got h={h}, i={i}")
    parts: List[Tuple[int, int]] = []
    rem = h
    k = i
    while rem > 0:
        if k < 1:
            raise AssertionError(f"expansion of {h} at level {i} ran out of levels")
        m = _largest_comb_at_most(rem, k)
        parts.append((m, k))
        rem -= comb(m, k)
        k -= 1
    return tuple(parts)


def macaulay_bound(h: int, i: int) -> int:
    """h^<i>: the maximal growth of h in degree i, with 0^<i> = 0."""
    if h == 0:
        return 0
    return sum(comb(m + 1, k + 1) for m, k in binomial_expand(h, i))


def _entries(h) -> Tuple[int, ...]:
    """h's entries, at least one, each an int: a float, a Fraction or a
    bool is refused, not truncated, and a string is not read digit by
    digit."""
    if isinstance(h, HVector):
        return h.entries
    if isinstance(h, str):
        raise ValueError("an h-vector takes a sequence of ints, not a string;"
                         " read text with HVector.parse")
    e = tuple(h)
    if not e:
        raise ValueError("empty h-vector")
    for x in e:
        if type(x) is not int:
            raise ValueError(f"h-vector entry {reprlib.repr(x)} is not an int")
    return e


def _o_sequence(e: Sequence[int]) -> bool:
    """Macaulay's criterion on ints: none negative, e_0 = 1, and
    e_{i+1} <= e_i^<i> for i >= 1; as e_i^<i> >= e_i, only a rise needs
    the bound."""
    if min(e, default=0) < 0 or e[0] != 1:
        return False
    for i in range(1, len(e) - 1):
        if e[i + 1] > e[i] and e[i + 1] > macaulay_bound(e[i], i):
            return False
    return True


def first_difference(h: Sequence[int]) -> List[int]:
    """Delta h(i) = h(i) - h(i-1), with h(-1) = 0."""
    return [b - a for a, b in zip([0, *h], h)]


def _is_si(e: Tuple[int, ...]) -> bool:
    half = e[: (len(e) + 1) // 2]
    return e == e[::-1] and _o_sequence(first_difference(half))


def is_O_sequence(h) -> bool:
    """Macaulay's criterion: h_0 = 1 and h_{i+1} <= h_i^<i> for i >= 1."""
    return _o_sequence(_entries(h))


def is_differentiable(h) -> bool:
    """True when the first difference is nonnegative and an O-sequence."""
    return _o_sequence(first_difference(_entries(h)))


def is_SI(h) -> bool:
    """Symmetric, and differentiable through the middle.

    No unimodality scan: the first half's nonnegative difference makes it
    non-decreasing, and symmetry mirrors that into a non-increasing end.
    """
    return _is_si(HVector(h).entries)


@dataclass(frozen=True)
class Hbar:
    """Stabilization of an SI-sequence: h_i up to t, then constant s."""

    values: Tuple[int, ...]  # h_0 .. h_t
    t: int
    s: int

    def delta(self) -> Tuple[int, ...]:
        """First difference through degree t; zero afterwards."""
        return tuple(first_difference(self.values))


def hbar(h) -> Hbar:
    """Flatten an SI-sequence at its first non-increase.

    t = min{i : h_i >= h_{i+1}} (with h_{d+1} = 0 as sentinel) and
    s = h_t; symmetry and unimodality give d >= 2t, and the flattened
    sequence is the Hilbert function of the realizing point set.
    """
    h = HVector(h).entries
    if not _is_si(h):
        raise NotSIError(f"{list(h)} is not an SI-sequence")
    e = h + (0,)
    t = next(i for i in range(len(e) - 1) if e[i] >= e[i + 1])
    return Hbar(values=h[: t + 1], t=t, s=h[t])
