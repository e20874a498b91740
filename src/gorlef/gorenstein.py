"""Artinian Gorenstein algebras from Macaulay dual generators.

A nonzero form F of degree d in R defines A = S/Ann(F).  Catalecticant
ranks give the Hilbert function and pivots give monomial bases of each
graded piece.  Since Cat^(d-j) is the transpose of Cat^j, one
elimination of Cat^(d-j) per degree j <= floor(d/2) yields both the
basis of A_j (its pivot columns) and h(j) = h(d-j) (its rank).  The
algebra keeps exactly those bases: basis(j) for j > floor(d/2) is a
DegreeOutOfRangeError, since no certificate needs one.  The module
functions take the socle degree d explicitly; only the constructor
reads it off F when it is not given.

For F = sum alpha_i L_i^d over points X, every alpha_i != 0, the
catalecticant factors through the evaluation matrices V_k of X
(Iarrobino-Kanev 1999):  Cat^(d-j)(F) = d! V_(d-j)^T diag(alpha) V_j.
If tau(X) <= ceil(d/2), V_(d-j) has rank |X| for all j <= floor(d/2),
so Cat^(d-j) and V_j share their pivot columns.  GorensteinAlgebra
decides the route in one place: an algebra built by of_points reads its
bases off the points when 2 tau <= d+1 and eliminates catalecticants
below that.  Every power-sum caller builds through of_points; only
hilbert_formula_check, the audit of the point formula, takes the
catalecticants of the expanded F.  Higher Hessians evaluated at the
point dual to a linear form ell decide the strong Lefschetz property:

    ell is strong Lefschetz  iff  det Hess^j(F)(P_ell) != 0
                                  for all j <= floor(d/2).

Since G(P_ell) = (ell^k o G) / k! for a form G of degree k, one
contraction gives the whole Hessian over a basis B of A_j (hessian_at);
for a power sum it is also a sum of rank-one pieces, with v_i the i-th
row of x.values(B), B at the i-th point, cached across draws of ell
(structured_hessian_at):

    Hess^j(F)(P_ell) = Cat^j(ell^(d-2j) o F)[B, B] / (d-2j)!
                     = d!/(d-2j)! sum_i alpha_i L_i(P_ell)^(d-2j) v_i v_i^T

Every power-sum Hessian sums over the points (GorensteinAlgebra.hessian
for an of_points algebra, any d, and the conic verifier per line group);
hessian_at contracts F only for an algebra built from a polynomial.
certify_at builds every SLP certificate line: at each degree it records
det algebra.hessian and the rank of x ell^(d-2j): A_j -> A_(d-j) on the
expanded F: at most h(j), so proven by a rank mod a prime that reaches
h(j), and recomputed exactly otherwise.  That rank mod the prime is
taken on the h(j) x h(j) block Cat^j(ell^(d-2j) o F)[B, B], the matrix
of the Hessian identity above: B spans A_j, so over Q the block has the
rank of the whole catalecticant, and a nonzero minor mod the prime
proves the rank whatever B is (multiplication_rank; a WLP line away
from the middle keeps a basis on the one side whose degree is at most
floor(d/2)).  catalecticant builds both that block and hessian_at's
matrix, so the package has one catalecticant builder.  The rank route
reads the expanded F and, for a power sum, the det route reads the
points; the two agree by the Hessian criterion, so on every caller a
disagreement is raised as a bug.  _search, the one attempt loop, makes
every SlpCertificate from a draw() of (algebra, ell); first_witness is
the one search for a sampled form with a nonzero value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .apolar import (LinearFormS, Monomial, Poly, RING_R, contract_linear_power,
                     monomials_of_degree)
from .errors import (DegreeOutOfRangeError, HessianRankMismatchError,
                     NotHomogeneousError, PreconditionViolatedError,
                     RingMismatchError, ZeroGeneratorError)
from .hvector import HVector
from .linalg import Mat


def _require_form(f: Poly, d: int) -> None:
    """F must be a form of degree d; the zero polynomial passes."""
    degrees = {sum(m) for m in f.terms}
    if len(degrees) > 1:
        raise NotHomogeneousError("dual generator must be homogeneous")
    if degrees and degrees != {d}:
        raise DegreeOutOfRangeError(f"F has degree {degrees.pop()}, not d = {d}")


def catalecticant(f: Poly, j: int, d: int,
                  rows: Optional[Sequence[Monomial]] = None,
                  cols: Optional[Sequence[Monomial]] = None) -> Mat:
    """Catalecticant matrix of F in degree j, or its block over rows x cols.

    Rows run over degree-j monomials of S, columns over degree-(d-j)
    monomials, by default all of them in descending lex; entry (u, v) =
    (x^u x^v) o F, a scalar carrying the factorial constants of true
    differentiation.  Integral entries are stored as ints.
    """
    if f.ring != RING_R:
        raise RingMismatchError("dual generator must live in R")
    if j < 0 or j > d:
        raise DegreeOutOfRangeError(f"degree {j} outside 0..{d}")
    scaled = {e: c * prod(map(factorial, e)) for e, c in f.terms.items()}
    if rows is None:
        rows = monomials_of_degree(f.n_vars, j)
    if cols is None:
        cols = monomials_of_degree(f.n_vars, d - j)
    return Mat([[scaled.get(tuple(map(add, u, v)), 0) for v in cols]
                for u in rows])


def _mirrored(half: List[int], d: int) -> HVector:
    """h(0..d) from h(0..floor(d/2)) by the symmetry h(j) = h(d-j)."""
    return HVector(half + half[:(d + 1) // 2][::-1])


def basis(f: Poly, j: int, d: int) -> List[Monomial]:
    """Monomial basis of A_j: pivot rows of the degree-j catalecticant.

    Found as the pivot columns of Cat^(d-j) = (Cat^j)^T, so the same
    elimination also gives h(j).  Deterministic: descending-lex
    monomials with top-to-bottom pivoting.
    """
    if j < 0 or j > d:
        raise DegreeOutOfRangeError(f"degree {j} outside 0..{d}")
    rows = monomials_of_degree(f.n_vars, j)
    return [rows[i] for i in linalg.pivot_columns(catalecticant(f, d - j, d))]


def hessian_at(f: Poly, j: int, ell: LinearFormS,
               basis_monomials: Sequence[Monomial], d: int) -> Mat:
    """j-th Hessian of F evaluated at the point dual to ell.

    Entry (u, v) = ((b_u b_v) o F)(P) over the degree-j monomials B
    given, a basis of A_j for GorensteinAlgebra.hessian; any frame of
    degree-j monomials is accepted, which lets callers probe degenerate
    generators against a fixed frame.  F must be a form of degree d (or
    zero), so one contraction by ell^(d-2j) gives every entry:

        Hess^j(F)(P_ell) = Cat^j(ell^(d-2j) o F)[B, B] / (d-2j)!
    """
    if j < 0 or 2 * j > d:
        raise DegreeOutOfRangeError(f"Hessian degree {j} needs 0 <= 2j <= {d}")
    if ell.n_vars != f.n_vars:
        raise RingMismatchError("variable count mismatch")
    _require_form(f, d)
    B = list(basis_monomials)
    if any(len(u) != f.n_vars or sum(u) != j for u in B):
        raise DegreeOutOfRangeError(f"frame monomials must have degree {j}")
    g = contract_linear_power(ell, d - 2 * j, f)  # degree 2j
    k_fact = factorial(d - 2 * j)
    return Mat([[Fraction(x, k_fact) for x in row]
                for row in catalecticant(g, j, 2 * j, B, B).entries])


def structured_hessian_at(x, alphas: Sequence[Fraction], d: int, j: int,
                          frame: Sequence[Monomial], ell: LinearFormS) -> Mat:
    """Hessian of sum alpha_i L_i^d at P_ell, assembled from rank-one pieces.

    Hess^j(L^d) evaluated at P is (d!/(d-2j)!) L(P)^(d-2j) v v^T with
    v_u = b_u(P_L), a row of x.values(frame) for the PointSet x; summing
    over the points avoids expanding F and is the workhorse for weight-
    indexed determinant studies.  The sum is V^T diag(c) V, accumulated
    in integers for integral data (upper triangle only, then mirrored)
    and scaled by d!/(d-2j)! once.  Zero weights are allowed here
    precisely to support those studies.
    """
    if 2 * j > d:
        raise PreconditionViolatedError(f"need 2j <= d, got j={j}, d={d}")
    size = len(frame)
    k = d - 2 * j
    p_ell = ell.point()
    acc = [[0] * size for _ in range(size)]
    for alpha, pt, v in zip(alphas, x.points, x.values(frame)):
        if alpha == 0:
            continue
        beta = sum(a * c for a, c in zip(p_ell, pt))
        if beta == 0 and k > 0:
            continue
        c = alpha * beta ** k
        for a_i, va in enumerate(v):
            if va:
                cva = c * va
                row = acc[a_i]
                row[a_i:] = [e + cva * y for e, y in zip(row[a_i:], v[a_i:])]
    scale = factorial(d) // factorial(k)
    for a_i, row in enumerate(acc):
        for b_i in range(a_i, size):
            row[b_i] = acc[b_i][a_i] = scale * row[b_i]
    return Mat(acc)


def sample_linear_form(n_vars: int, rng: random.Random,
                       box: int = 50) -> LinearFormS:
    """Uniform integer coefficients in [-box, box], not all zero."""
    if n_vars < 1:
        raise ValueError(f"a linear form needs at least 1 variable, got {n_vars}")
    if box < 1:
        raise ValueError(f"coefficient box must be at least 1, got {box}")
    while True:
        coeffs = [rng.randint(-box, box) for _ in range(n_vars)]
        if any(coeffs):
            return LinearFormS(coeffs)


def first_witness(value: Callable[[LinearFormS], Fraction], n_vars: int,
                  rng: random.Random, trials: int,
                  box: int = 50) -> Optional[Tuple[LinearFormS, Fraction]]:
    """First of `trials` sampled (ell, value(ell)) with value != 0, else None."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    for _ in range(trials):
        ell = sample_linear_form(n_vars, rng, box)
        val = value(ell)
        if val != 0:
            return ell, val
    return None


def multiplication_rank(algebra: "GorensteinAlgebra", i: int, k: int,
                        ell: LinearFormS) -> int:
    """Rank of x ell^k : A_i -> A_(i+k) on the expanded F, without Hessians.

    Uses the matrix Cat^i(g), g = ell^k o F, entry (u, v) = (x^u x^v
    ell^k) o F with u over degree-i and v over degree-lo monomials, lo
    = d-k-i.  The map factors through A_i and A_(i+k), so its rank is at
    most c = min(h[i], h[i+k]): h is F's Hilbert function on the
    catalecticant route, and on the point route h[j] = rank
    V_min(j,d-j) >= h_F(j) by Cat^(d-j)(F) = d! V_(d-j)^T diag(alpha)
    V_j.  A rank mod PRIME (a lower bound) of c proves rank c;
    otherwise the exact rank of the full Cat^i(g) is returned.

    The rank mod PRIME is taken on a block of Cat^i(g): its rows are
    restricted to the kept basis B_i when i <= floor(d/2), its columns
    to B_lo when lo <= floor(d/2).  Since i + lo = d - k <= d, one side
    always is, and on every SLP line both are, so the block is h(i) x
    h(lo) instead of N_i x N_lo.  A c-minor of the block nonzero mod
    PRIME is a c-minor of Cat^i(g), so the proof never depends on B.
    Over Q the block also loses no rank: (a, b) -> (a b ell^k) o F
    vanishes when a or b lies in Ann(F), and B_j spans S_j modulo
    Ann(F)_j on both routes (the pivots of Cat^(d-j) = Cat^j(F)^T, or
    the pivot columns of V_j, which span S_j modulo I(X)_j, inside
    Ann(F)_j), so the rows in B_i span all of Cat^i(g)'s rows and the
    columns in B_lo all of its columns, each side on its own.  The
    exact fallback thus fires only where the full matrix would need it
    too.
    """
    d, h = algebra.d, algebra.hilbert
    if i < 0 or k < 0 or i + k > d:
        raise DegreeOutOfRangeError(f"need 0 <= i, 0 <= k, i+k <= {d}")
    g = contract_linear_power(ell, k, algebra.f)  # degree d - k
    if g.is_zero():
        return 0
    rows, cols = (algebra.basis(j) if j <= d // 2 else None
                  for j in (i, d - k - i))
    c = min(h[i], h[i + k])
    if linalg.rank(catalecticant(g, i, d - k, rows, cols), linalg.PRIME) == c:
        return c
    return linalg.rank(catalecticant(g, i, d - k))


@dataclass(frozen=True)
class DegreeRecord:
    """Per-degree certificate line: both verification routes."""

    j: int
    method: str  # "hessian-det" (drives the verdict) or "map-rank"
    det: Optional[Fraction]
    rank: int
    required: int

    def ok(self) -> bool:
        good_rank = self.rank == self.required
        if self.det is None:
            return good_rank
        return good_rank and self.det != 0

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "method": self.method,
            "det": None if self.det is None else str(self.det),
            "rank": self.rank,
            "required": self.required,
        }


@dataclass
class SlpCertificate:
    """Outcome of a randomized Lefschetz check.

    verdict=True means every degree line passed at `ell`; verdict=False
    after exhausting attempts means only that no witness was found.
    """

    kind: str  # "slp" or "wlp"
    ell: Optional[LinearFormS]
    per_degree: List[DegreeRecord] = field(default_factory=list)
    verdict: bool = False
    seed: Optional[int] = None
    attempts: int = 0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ell": None if self.ell is None else [str(c) for c in self.ell.coeffs],
            "degrees": [r.to_json_dict() for r in self.per_degree],
            "verdict": self.verdict,
            "seed": self.seed,
            "attempts": self.attempts,
        }


class GorensteinAlgebra:
    """A = S/Ann(F) with cached Hilbert function and graded bases.

    Builds the bases of A_j for j <= floor(d/2), one catalecticant
    elimination each, or reads them off the points of a power-sum
    generator (of_points, which keeps it as `generator`) when tau(X) <=
    ceil(d/2), and reads the whole Hilbert function off them.
    """

    def __init__(self, f: Poly, d: Optional[int] = None, *,
                 _generator=None):
        if f.is_zero():
            raise ZeroGeneratorError("zero dual generator")
        self.f = f
        self.d = f.degree() if d is None else d
        _require_form(f, self.d)
        self.n_vars = f.n_vars
        self.generator = g = _generator
        on_points = g is not None and 2 * g.x.tau() <= self.d + 1
        self._bases: List[List[Monomial]] = [
            list(g.x.basis(j)) if on_points else basis(f, j, self.d)
            for j in range(self.d // 2 + 1)]
        self.hilbert: HVector = _mirrored([len(b) for b in self._bases], self.d)

    @classmethod
    def of_points(cls, g) -> "GorensteinAlgebra":
        """A for a StructuredGenerator g, any d; its Hessians sum over g.x."""
        return cls(g.expanded, g.d, _generator=g)

    def basis(self, j: int) -> List[Monomial]:
        """The basis of A_j built by the constructor, 0 <= j <= floor(d/2)."""
        if not 0 <= j <= self.d // 2:
            raise DegreeOutOfRangeError(
                f"bases are kept for degrees 0..{self.d // 2}, not {j}")
        return self._bases[j]

    def hessian(self, j: int, ell: LinearFormS) -> Mat:
        """Hess^j(F)(P_ell) over basis(j); summed over the points if any."""
        g = self.generator
        if g is None:
            return hessian_at(self.f, j, ell, self.basis(j), self.d)
        return structured_hessian_at(g.x, g.alphas, self.d, j, self.basis(j),
                                     ell)

    def codimension(self) -> int:
        return self.hilbert[1] if self.hilbert.socle_degree >= 1 else 0


def certify_at(algebra: GorensteinAlgebra, ell: LinearFormS,
               t: Optional[int] = None) -> List[DegreeRecord]:
    """SLP certificate lines at ell: both routes at every j <= floor(d/2).

    The det route is det algebra.hessian(j, ell); the rank route is the
    exact rank of x ell^(d-2j): A_j -> A_(d-j) on the expanded F, proven
    mod PRIME when it reaches h(j) (multiplication_rank).  Any
    disagreement raises HessianRankMismatchError.  Degrees j < t are
    labelled "hessian-det" and the rest "map-rank"; t=None labels all
    "hessian-det".
    """
    d, h = algebra.d, algebra.hilbert
    records = []
    for j in range(d // 2 + 1):
        dv = linalg.det(algebra.hessian(j, ell))
        rk = multiplication_rank(algebra, j, d - 2 * j, ell)
        if (dv != 0) != (rk == h[j]):
            raise HessianRankMismatchError(
                f"j={j}: det={dv} but rank={rk}, required {h[j]}")
        method = "hessian-det" if t is None or j < t else "map-rank"
        records.append(DegreeRecord(j=j, method=method, det=dv, rank=rk,
                                    required=h[j]))
    return records


def _wlp_lines(algebra: GorensteinAlgebra, ell: LinearFormS) -> List[DegreeRecord]:
    """Rank of x ell: A_i -> A_(i+1) against min(h(i), h(i+1)), i < d."""
    d, h = algebra.d, algebra.hilbert
    return [DegreeRecord(j=i, method="map-rank", det=None,
                         rank=multiplication_rank(algebra, i, 1, ell),
                         required=min(h[i], h[i + 1]))
            for i in range(d)]


def _search(kind: str, lines, draw: Callable[[], tuple], attempts: int,
            seed: Optional[int]) -> Tuple[SlpCertificate, GorensteinAlgebra]:
    """First draw() = (algebra, ell) whose lines pass, else the last one."""
    if attempts < 1:
        raise ValueError(f"need attempts >= 1, got {attempts}")
    cert = SlpCertificate(kind=kind, ell=None, seed=seed)
    for attempt in range(1, attempts + 1):
        algebra, ell = draw()
        cert.attempts = attempt
        cert.per_degree = lines(algebra, ell)
        if all(r.ok() for r in cert.per_degree):
            cert.ell = ell
            cert.verdict = True
            break
    return cert, algebra


def check_slp(algebra: GorensteinAlgebra, rng: random.Random,
              attempts: int = 50, box: int = 50,
              seed: Optional[int] = None) -> SlpCertificate:
    """Search for a strong Lefschetz element of A: certify_at per sample."""
    return _search("slp", certify_at,
                   lambda: (algebra, sample_linear_form(algebra.n_vars, rng, box)),
                   attempts, seed)[0]


def check_wlp(algebra: GorensteinAlgebra, rng: random.Random,
              attempts: int = 50, box: int = 50,
              seed: Optional[int] = None) -> SlpCertificate:
    """Search for a weak Lefschetz element: x ell full rank in each degree."""
    return _search("wlp", _wlp_lines,
                   lambda: (algebra, sample_linear_form(algebra.n_vars, rng, box)),
                   attempts, seed)[0]
