"""Finite point sets in projective space and their Hilbert functions.

h_{A(X)}(i) is the rank of the evaluation matrix V_i of degree-i
monomials at the points; it increases to s = |X| and stabilizes there
from the regularity degree tau(X) on.  The pivot columns of V_i, kept
as monomials, are a basis B_i of A(X)_i; a distraction's B_i are read
off its order ideal instead, whose monomials are exactly those pivots
(gen_distraction), with nothing eliminated.  Points are normalized to
leading coordinate 1, so when no point has x0 = 0 every x0 is 1 and
B_i is carried up from B_(i-1) (PointSet.basis) in one incremental
column echelon (linalg.extend_echelon) that reduces only each degree's
x0-free columns; sets with a point on x0 = 0 (two lines, some tails)
reduce the whole V_i in a fresh one.  The echelon divides by gcds, not
by Bareiss's previous pivot, since a carried echelon outlives any one
matrix.
PointSet.columns is the one place that evaluates monomials at points,
and its cache the one cache of values: per monomial its values at all
the points, its parent's times one coordinate.  values transposes a
frame's columns to one row per point, uncached; frame_det keeps det V_S
of a frame B at |B| points S, the single Cauchy-Binet term of a
Hessian whose point weights are supported on S (gorenstein.gram).
Generators produce the standard configurations (rational normal
curves, two lines, distractions of monomial order ideals) used by the
realization pipeline and the theorem verifiers.  Those given a size
refuse s points of n + 1 coordinates above the elimination budget, the
size of V_1, before a coordinate is drawn or built; rational normal
curves and distractions, whose Hilbert functions are known in advance,
refuse every carried frame above it first (check_frames).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, groupby
from math import comb, lcm
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .apolar import Monomial, monomials_of_degree
from .errors import (DuplicateParameterError, NotOSequenceError,
                     NotPlaneConfigError, PreconditionViolatedError,
                     RealizationMismatchError)
from .hvector import first_difference, is_O_sequence
from .linalg import Mat, exact, exact_str


def _normalize(coords: Sequence) -> Tuple[Fraction, ...]:
    v = [exact(c) for c in coords]
    for c in v:
        if c == 1:
            return tuple(v)
        if c != 0:
            return tuple(exact(Fraction(x, c)) for x in v)
    raise ValueError("zero coordinate vector is not a projective point")


class PointSet:
    """Distinct points of P^n, normalized to leading coordinate 1."""

    def __init__(self, points: Sequence[Sequence], *,
                 _bases: Optional[Sequence[Tuple[Monomial, ...]]] = None):
        if not points:
            raise ValueError("empty point set")
        norm = [_normalize(p) for p in points]
        n_coords = len(norm[0])
        if any(len(p) != n_coords for p in norm):
            raise ValueError("points of mixed dimension")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate projective points")
        self.points: Tuple[Tuple[Fraction, ...], ...] = tuple(norm)
        self.n = n_coords - 1
        self._carried = all(p[0] for p in norm)  # every x0 = 1
        self.integral = all(type(c) is int for p in norm for c in p)
        self._axes = tuple(zip(*norm))[int(self._carried):]  # as _key indexes
        self._columns = {(0,) * len(self._axes): (1,) * len(norm)}
        self._dets: Dict[tuple, Fraction] = {}
        # B_0 .. B_tau when known in advance (gen_distraction); else B_0,
        # and the eager loop fills the basis cache through degree tau
        self._bases: Dict[int, Tuple[Monomial, ...]] = dict(enumerate(
            _bases or [((0,) * n_coords,)]))
        self._tau = len(self._bases) - 1
        if not _bases:
            self._echelon = [(0, [1] * len(norm))]  # B_0, carried when x0 = 1
            while self.hilbert(self._tau) < self.size:
                self._tau += 1

    @property
    def size(self) -> int:
        return len(self.points)

    def _key(self, frame: Sequence[Monomial]) -> Tuple[Monomial, ...]:
        """The frame as the caches key it: without x0 when every x0 = 1,
        since x0's exponent then changes no value."""
        return tuple(m[1:] for m in frame) if self._carried else tuple(frame)

    def _column(self, mono: Monomial) -> tuple:
        """A monomial, as _key writes it, at every point; cached.

        A column is its parent's (the last nonzero exponent lowered by
        one) times one coordinate; the missing ancestors are built
        first, in a loop, so no depth grows with the degree.
        """
        cols = self._columns
        chain = []
        while mono not in cols:
            k = max(i for i, e in enumerate(mono) if e)
            chain.append((mono, k))
            mono = mono[:k] + (mono[k] - 1,) + mono[k + 1:]
        col = cols[mono]
        for mono, k in reversed(chain):
            col = cols[mono] = tuple(map(mul, col, self._axes[k]))
        return col

    def columns(self, frame: Sequence[Monomial]) -> List[tuple]:
        """The frame's monomials at the points, one cached column each."""
        return list(map(self._column, self._key(frame)))

    def values(self, frame: Sequence[Monomial]) -> Tuple[tuple, ...]:
        """The frame's monomials at each point, one row per point: its
        cached columns transposed, not cached themselves."""
        return tuple(zip(*self.columns(frame))) if frame else ((),) * self.size

    def evaluation_matrix(self, i: int) -> Mat:
        return Mat(self.values(monomials_of_degree(self.n + 1, i)))

    def frame_det(self, frame: Sequence[Monomial],
                  rows: Sequence[int]) -> Fraction:
        """det V_S for a frame B of |S| monomials at the points S = rows,
        cached per key and rows: one elimination serves B and every
        x0^k B when every x0 = 1.  It eliminates V_S^T, read off the
        cached columns, whose det is the same."""
        key = (self._key(frame), tuple(rows))
        if key not in self._dets:
            self._dets[key] = linalg.det(Mat(
                [[col[i] for i in rows] for col in self.columns(frame)]))
        return self._dets[key]

    def _independent(self, echelon: list,
                     frame: Tuple[Monomial, ...]) -> Tuple[Monomial, ...]:
        """The frame's monomials whose columns are independent of the
        echelon and of the columns before them, left to right; those
        columns join the echelon (linalg.extend_echelon)."""
        return tuple(frame[c] for c in linalg.extend_echelon(
            echelon, self.columns(frame), self.size))

    def basis(self, i: int) -> Tuple[Monomial, ...]:
        """Degree-i monomials whose columns of V_i pivot, in descending lex.

        When every x0 = 1, the column of x0*m in V_i is the column of m in
        V_(i-1), so the pivots of V_i are x0 B_(i-1) followed by the
        pivots among the x0-free monomials, in that (descending lex)
        order.  The set's incremental column echelon
        (linalg.extend_echelon) holds B_(i-1)'s columns, from B_0's
        all-ones column on, so only the x0-free columns are reduced, and
        nothing once h(i-1) = s; other sets reduce the whole V_i in a
        fresh echelon.  It divides by gcds, not by a previous pivot as
        Bareiss does, because it outlives any one matrix.  The budget is
        checked on the whole frame before anything is evaluated.  The
        bases are built upward in a loop, degree by degree.
        """
        if i in self._bases:
            return self._bases[i]
        if not (self._carried and i > 0):
            frame = monomials_of_degree(self.n + 1, i)
            linalg.check_cells(self.size, len(frame))
            self._bases[i] = self._independent([], frame)
            return self._bases[i]
        for k in range(max(self._bases) + 1, i + 1):  # cached through k - 1
            lifted = tuple((m[0] + 1,) + m[1:] for m in self._bases[k - 1])
            if len(lifted) < self.size:
                new = tuple((0,) + m for m in monomials_of_degree(self.n, k))
                linalg.check_cells(self.size, len(lifted) + len(new))
                lifted += self._independent(self._echelon, new)
            self._bases[k] = lifted
        return self._bases[i]

    def hilbert(self, i: int) -> int:
        return len(self.basis(i)) if i >= 0 else 0

    def hilbert_vector(self, through: int) -> Tuple[int, ...]:
        return tuple(self.hilbert(i) for i in range(through + 1))

    def tau(self) -> int:
        """Least degree where the Hilbert function reaches s."""
        return self._tau

    def subset(self, indices: Sequence[int]) -> "PointSet":
        return PointSet([self.points[i] for i in indices])

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, s={self.size})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "points": [[exact_str(c) for c in p] for p in self.points],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointSet":
        pts = data.get("points")
        if not (isinstance(pts, list) and pts and all(
                isinstance(p, list)
                and all(isinstance(c, (int, float, str)) for c in p) for p in pts)):
            raise ValueError('point-set JSON needs "points": a non-empty list '
                             'of coordinate lists')
        return cls(pts)


# ---------------------------------------------------------------------------
# Generators


def check_frames(n: int, s: int, lifted: Iterable[int]) -> None:
    """WorkBudgetError, as PointSet.basis would raise it, for the first
    carried frame above the budget of s points in P^n with every x0 = 1:
    frame k is h(k-1) lifted and C(n+k-1, k) x0-free columns, and
    `lifted` yields h(0), .., h(tau - 1)."""
    for k, h in enumerate(lifted, 1):
        linalg.check_cells(s, h + comb(n + k - 1, k))


def check_rnc(n: int, s: int) -> None:
    """Refuse s points on the rational normal curve in P^n before any is
    drawn: ValueError for n < 1 or s < 1, and WorkBudgetError for the
    first carried frame above the budget (check_frames), as distinct
    parameters give h(i) = min(n i + 1, s); V_1's s x (n+1) is checked
    even when tau = 0."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    check_frames(n, s, (n * i + 1 for i in range(max(1, -(-(s - 1) // n)))))


def gen_rnc(n: int, s: int, params: Sequence) -> PointSet:
    """s points (1 : t : t^2 : ... : t^n) on the rational normal curve."""
    check_rnc(n, s)
    ts = list(params)
    if len(ts) != s:
        raise ValueError(f"need {s} parameters, got {len(ts)}")
    if len(set(ts)) != len(ts):
        raise DuplicateParameterError("curve parameters must be distinct")
    return PointSet([[t ** k for k in range(n + 1)] for t in ts])


def gen_collinear(n: int, s: int) -> PointSet:
    """s points (1 : k : 0 : ... : 0) on a line in P^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    linalg.check_cells(s, n + 1)
    return PointSet([[1, k] + [0] * (n - 1) for k in range(s)])


def gen_two_lines(s1: int, s2: int, share_intersection: bool) -> PointSet:
    """Points on the singular conic x0*x1 = 0 in P^2.

    Group 1 sits on {x1 = 0}, group 2 on {x0 = 0}.  When sharing, the
    intersection (0:0:1) is counted in both groups but appears once, so
    s = s1 + s2 - 1; otherwise it is excluded and s = s1 + s2.
    Group membership is recoverable from the coordinates.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("each line needs at least one point")
    shared = int(share_intersection)
    linalg.check_cells(s1 + s2 - shared, 3)
    return PointSet([[0, 0, 1]] * shared
                    + [[1, 0, k] for k in range(s1 - shared)]
                    + [[0, 1, k] for k in range(s2 - shared)])


# Draws of a point set before gen_generic gives up.
_GENERIC_DRAWS = 200
# Almost every point set is generic; this range only fixes a seed's points.
_GENERIC_BOX = 50


def gen_generic(n: int, s: int, rng: random.Random) -> PointSet:
    """s points with the generic Hilbert function min(C(n+i, i), s).

    Rejection-sampled with integer affine coordinates in [-_GENERIC_BOX,
    _GENERIC_BOX], at most _GENERIC_DRAWS sets, and verified exactly
    before returning.
    """
    side = 2 * _GENERIC_BOX + 1
    if n < 0 or s > side ** min(n, s.bit_length()):
        raise PreconditionViolatedError(
            f"{s} distinct points need n >= 0 and s <= {side}^n, got n = {n}")
    linalg.check_cells(s, n + 1)
    for _ in range(_GENERIC_DRAWS):
        seen = set()
        pts = []
        while len(pts) < s:
            p = (1,) + tuple(rng.randint(-_GENERIC_BOX, _GENERIC_BOX)
                             for _ in range(n))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        x = PointSet(pts)
        t = x.tau()
        if x.hilbert_vector(t) == tuple(min(comb(n + i, i), s)
                                        for i in range(t + 1)):
            return x
    raise RealizationMismatchError(
        f"no generic configuration of {s} points in P^{n}"
        f" after {_GENERIC_DRAWS} draws")


# ---------------------------------------------------------------------------
# Order ideals and distractions


class OrderIdeal:
    """Finite downward-closed set of monomials, containing 1."""

    def __init__(self, n_vars: int, monomials: Sequence[Monomial]):
        mons: FrozenSet[Monomial] = frozenset(tuple(m) for m in monomials)
        if (0,) * n_vars not in mons:
            raise ValueError("order ideal must contain the monomial 1")
        for m in mons:
            if len(m) != n_vars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent vector {m}")
            for i in range(n_vars):
                if m[i] > 0:
                    q = m[:i] + (m[i] - 1,) + m[i + 1:]
                    if q not in mons:
                        raise ValueError(
                            f"not downward closed: {m} present, {q} missing")
        self.n_vars = n_vars
        self.monomials = mons

    @property
    def size(self) -> int:
        return len(self.monomials)

    def sorted_monomials(self) -> List[Monomial]:
        """Degree-major, descending lex within a degree."""
        return sorted(self.monomials,
                      key=lambda m: (sum(m), tuple(-e for e in m)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderIdeal)
                and self.n_vars == other.n_vars
                and self.monomials == other.monomials)


def lex_order_ideal(delta: Sequence[int], n_vars: int) -> OrderIdeal:
    """Order ideal with prescribed degree counts: lex-smallest segments.

    Per degree, take the delta(i) smallest monomials in lex order; their
    union is downward closed whenever delta is an O-sequence (taking the
    largest monomials instead can dead-end, e.g. on (1,3,3,4)).
    Succeeds exactly when n_vars >= 0 (checked first), delta is an
    O-sequence with delta(1) <= n_vars and its distraction's carried
    frames are within the elimination budget, checked before any table
    (check_frames).
    """
    if n_vars < 0:
        raise ValueError(f"need n >= 0, got {n_vars}")
    counts = [int(x) for x in delta]
    while counts and counts[-1] == 0:
        counts.pop()
    if not counts or counts[0] != 1 or not is_O_sequence(counts):
        raise NotOSequenceError(f"{list(delta)} is not an O-sequence")
    if len(counts) > 1 and counts[1] > n_vars:
        raise NotOSequenceError(
            f"delta(1) = {counts[1]} needs at least that many variables, have {n_vars}")
    check_frames(n_vars, sum(counts), accumulate(counts[:-1]))
    chosen: List[Monomial] = list(monomials_of_degree(n_vars, 0))
    prev = set(chosen)
    for i in range(1, len(counts)):
        need = counts[i]
        level: List[Monomial] = []
        for m in reversed(monomials_of_degree(n_vars, i)):
            if len(level) == need:
                break
            if all(m[:v] + (m[v] - 1,) + m[v + 1:] in prev
                   for v in range(n_vars) if m[v]):
                level.append(m)
        if len(level) < need:
            raise NotOSequenceError(
                f"cannot reach {need} closure-compatible monomials in degree {i}")
        chosen.extend(level)
        prev = set(level)
    return OrderIdeal(n_vars, chosen)


def gen_distraction(ideal: OrderIdeal) -> PointSet:
    """Distraction of an order ideal O: x^a maps to (1 : a_1 : ... : a_n).

    Its bases are read off O, with no elimination: B_0 = (1), and for
    1 <= k <= tau = O's top degree, B_k is x0 B_(k-1) followed by O's
    degree-k monomials (x0-free), in descending lex, which is the order
    PointSet.basis gives by pivoting; so h_{A(X)}(k) = |O_<=k|, and
    basis(k) lifts B_tau above tau.  Proof (Hartshorne 1966; Geramita,
    Gregory and Roberts 1986): as every x0 = 1, the columns of V_k span
    the affine functions of degree <= k on X, and x0 B_(k-1)'s span
    those of degree <= k - 1.  Write x^(a) = prod_k prod_(t < a_k)
    (x_k - t x0); it is x^a plus multiples of x0^j x^b with b < a, and
    x^(a)(1 : b) != 0 exactly when b >= a in every coordinate.
    (i) For a not in O, x^(a) vanishes on X, as b >= a with b in O would
        put a in O; its one x0-free term is x^a, so the column of x^a
        lies in the span of x0 B_(|a|-1)'s and never pivots.
    (ii) [x^(a)(b)] over a, b in O is triangular under any linear
        extension of that order, with diagonal prod_k a_k! != 0.
    O is downward closed, so the x^(a) and the x^a with a in O_<=k span
    the same space; by (ii) its dimension is |O_<=k|, and by (i) it is
    every affine function of degree <= k on X.  So h(k) = |O_<=k|, and
    the pivots new in degree k are exactly O's degree-k monomials.
    Nothing is eliminated, so no budget is checked here; lex_order_ideal
    checks every frame as PointSet.basis would (check_frames).
    """
    monomials = ideal.sorted_monomials()  # O_0, .., O_tau: none is empty
    fresh = (tuple((0,) + m for m in level)
             for _, level in groupby(monomials, key=sum))
    bases = accumulate(fresh, lambda b, new: tuple(
        (m[0] + 1,) + m[1:] for m in b) + new)
    return PointSet([(1,) + m for m in monomials], _bases=list(bases))


# ---------------------------------------------------------------------------
# Incidence helpers (plane configurations)


def find_subset_on_curve(x: PointSet, degree: int,
                         count: int) -> Optional[Tuple[int, ...]]:
    """First index subset of exactly `count` points on a degree-r curve.

    r=1 scans lines through pairs; r=2 scans conics through 5-tuples
    (kernel vectors of the evaluation matrix).  Deterministic order.
    """
    if x.n != 2:
        raise NotPlaneConfigError("curve search requires points in P^2")
    probe = degree * (degree + 3) // 2  # points determine a degree-r plane curve
    if x.size < probe:
        return None
    ev = x.evaluation_matrix(degree)
    seen = set()
    for idxs in combinations(range(x.size), probe):
        sub = Mat([list(ev.entries[i]) for i in idxs])
        for v in linalg.nullspace(sub):
            den = lcm(*[c.denominator for c in v])  # same zeros, in ints
            w = [c.numerator * (den // c.denominator) for c in v]
            inc = tuple(idx for idx, row in enumerate(ev.entries)
                        if sum(map(mul, w, row)) == 0)
            if inc in seen:
                continue
            seen.add(inc)
            if len(inc) == count:
                return inc
    return None


def has_collinear_triple(x: PointSet) -> bool:
    if x.n != 2:
        raise NotPlaneConfigError("collinearity test requires P^2")
    return any(linalg.det(Mat(triple)) == 0
               for triple in combinations(x.points, 3))


# ---------------------------------------------------------------------------
# Davis decomposition hint


@dataclass(frozen=True)
class DavisHint:
    """Flat first-difference detected past the first ideal generator.

    A repeat Delta h(j) = Delta h(j+1) = r with j >= t0 forces a
    degree-r curve through part of X; `complement_delta` is the forced
    first difference of the off-curve remainder.
    """

    r: int
    j: int
    complement_delta: Tuple[int, ...]

    def describe(self) -> str:
        kind = {1: "line", 2: "conic"}.get(self.r, f"degree-{self.r} curve")
        return (f"Delta h repeats value {self.r} at degrees {self.j},{self.j + 1}: "
                f"part of X lies on a {kind}")


def davis_hint(x: PointSet) -> Optional[DavisHint]:
    """Scan Delta h_{A(X)} for a flat repeat past t0.

    t0 is the least degree where X fails to impose independent
    conditions, i.e. h(i) < C(n+i, i).  Informational only; callers may
    use it to locate special subconfigurations.
    """
    if x.n != 2:
        raise NotPlaneConfigError("decomposition hint requires P^2")
    t = x.tau()
    h = [x.hilbert(i) for i in range(t + 2)]
    t0 = next((i for i in range(t + 2) if h[i] < comb(x.n + i, i)), None)
    if t0 is None:
        return None
    delta = first_difference(h)
    for j in range(t0, t):  # need j+1 <= tau so the repeat is genuine
        r = delta[j]
        if r >= 1 and delta[j + 1] == r:
            rest = tuple(delta[i] - r for i in range(r, j))
            return DavisHint(r=r, j=j, complement_delta=rest)
    return None
