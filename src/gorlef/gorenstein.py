"""Artinian Gorenstein algebras from Macaulay dual generators.

A nonzero form F of degree d in R defines A = S/Ann(F).  Catalecticant
ranks give the Hilbert function and pivots give monomial bases of each
graded piece.  Since Cat^(d-j) is the transpose of Cat^j, one
elimination of Cat^(d-j) per degree j <= floor(d/2) yields both the
basis of A_j (its pivot columns) and h(j) = h(d-j) (its rank).  The
algebra keeps exactly those bases: basis(j) for j > floor(d/2) is a
DegreeOutOfRangeError, since no certificate needs one.

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
contraction gives the whole Hessian over a basis B of A_j.  For a power
sum it is a Gram matrix over the points (Iarrobino-Kanev 1999): with
V = x.values(B), cached across draws of ell, and the point weights
c_i = alpha_i L_i(P_ell)^(d-2j) (point_weights),

    Hess^j(F)(P_ell) = Cat^j(ell^(d-2j) o F)[B, B] / (d-2j)!
                     = d!/(d-2j)! V^T diag(c) V

and, by Cauchy-Binet, with m = |B| and S the support of c,

    det Hess^j(F)(P_ell) = (d!/(d-2j)!)^m
                           sum_{T in S, |T| = m} det(V_T)^2 prod_T c_i.

gram is the one call for that matrix and its det: 0 when |S| < m, the
single term when |S| = m, with det(V_S) eliminated once per frame and
support (PointSet.frame_det), and when |S| > m

    det Hess^j(F)(P_ell) = (d!/(d-2j)!)^m det(V^T diag(c) V),

the Gram eliminated without the factor that every row of the Hessian
carries, which the fraction-free pass would carry into each minor it
forms.  So on a line with h(j) = s = |X| a separating ell proves the
det nonzero with no elimination of the Hessian.
GorensteinAlgebra.hessian, for an of_points algebra, is one gram call
on one pass of point weights.  certify_at builds every SLP certificate
line from one chain of contractions of the algebra's packed F (apolar),
ell^2 per step of j, and the block M = Cat^j(ell^(d-2j) o F)[B, B] of
each link: its det gives the Hessian's for an algebra built from a
polynomial, and for a power sum M must equal (d-2j)! times
algebra.hessian(j, ell).  _wlp_lines ranks Cat^i(ell o F)[B_i, B_lo],
lo = d-1-i >= i (all degree-lo monomials when lo > floor(d/2)), from
one contraction of the packed F.  GorensteinAlgebra._block reads every
catalecticant block, the constructor's Cat^(d-j) and both lines', off
the algebra's packed F or a contraction of it, at base d + 1, through
cat_block.  _search, the one attempt loop, makes every SlpCertificate
from a draw() of (algebra, ell); first_witness is the one search for a
sampled form with a nonzero value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .apolar import (LinearFormS, Monomial, Poly, RING_R, cat_block, contract,
                     divided_powers, monomials_of_degree, packed_keys,
                     power_sum)
from .errors import (DegreeOutOfRangeError, HessianRankMismatchError,
                     NotHomogeneousError, PreconditionViolatedError,
                     RingMismatchError, ZeroGeneratorError)
from .hvector import HVector
from .linalg import Mat, exact, exact_str


def _require_form(f: Poly, d: int) -> None:
    """F must be a form of degree d in R; the zero polynomial passes."""
    degrees = {sum(m) for m in f.terms}
    if len(degrees) > 1:
        raise NotHomogeneousError("dual generator must be homogeneous")
    if degrees and degrees != {d}:
        raise DegreeOutOfRangeError(f"F has degree {degrees.pop()}, not d = {d}")
    if f.ring != RING_R:
        raise RingMismatchError("dual generator must live in R")


def _mirrored(half: List[int], d: int) -> HVector:
    """h(0..d) from h(0..floor(d/2)) by the symmetry h(j) = h(d-j)."""
    return HVector(half + half[:(d + 1) // 2][::-1])


def point_weights(x, alphas: Sequence, k: int, ell: LinearFormS) -> list:
    """c_i = alpha_i L_i(P_ell)^k at each point L_i of the PointSet x.

    P_ell has the coordinates ell.coeffs.  A zero alpha_i gives c_i = 0,
    and so does L_i(P_ell) = 0 when k > 0; at k = 0 the weight is alpha_i.
    """
    return [a * sum(map(mul, ell.coeffs, pt)) ** k
            for a, pt in zip(alphas, x.points)]


def gram(x, frame: Sequence[Monomial], weights: Sequence,
         scale: int) -> Tuple[Mat, Fraction]:
    """scale V^T diag(c) V over V = x.values(frame), and its det.

    G0 = V^T diag(c) V has its upper triangle filled from the frame's
    cached columns (PointSet.columns), cut to the rows with c_i != 0
    when a weight is zero, entry (a, b) = <c * V[:, a], V[:, b]>, and
    mirrored; the matrix returned is scale G0.  With
    m = |B| and S the support of the weights, Cauchy-Binet gives

        det = scale^m sum_{T in S, |T| = m} det(V_T)^2 prod_(i in T) c_i,

    so |S| < m gives 0 with no elimination, m = 1 the one entry, and
    |S| = m the one term, with det(V_S) eliminated once per frame and
    support (PointSet.frame_det).  A larger support eliminates G0 and gives
    scale^m det(G0): every row of scale G0 has content at least scale,
    and the fraction-free pass would carry that factor into every minor
    it forms.  When the points, the weights on S and the scale are
    ints, the matrix is built unchecked and G0 goes straight to
    linalg.integer_det, which eliminates it in the symmetric mode, with
    no denominators to clear.  That path stays: through linalg.det
    the perfbench verifiers workload slowed in 7 of 7 runs (wall_ref_s
    0.111-0.118 s to 0.125-0.135 s, on a shared Xeon host) and
    si_corpus by about 3%.
    """
    m = len(frame)
    cols = x.columns(frame)
    support = tuple(i for i, c in enumerate(weights) if c)
    cs = [weights[i] for i in support]
    if len(support) < len(weights):
        cols = [[col[i] for i in support] for col in cols]
    g0 = [[0] * m for _ in range(m)]
    for a, col in enumerate(cols):
        wcol = list(map(mul, cs, col))
        row = g0[a]
        for b in range(a, m):
            row[b] = g0[b][a] = sum(map(mul, wcol, cols[b]))
    integral = (x.integral and type(scale) is int
                and all(type(c) is int for c in cs))
    out = [[scale * v for v in row] for row in g0]
    hess = Mat.of_ints(out) if integral else Mat(out)
    if len(support) < m:
        return hess, Fraction(0)
    if m == 1:
        return hess, Fraction(out[0][0])
    if len(support) == m:
        return hess, Fraction(scale ** m * x.frame_det(frame, support) ** 2
                              * prod(cs))
    if integral:
        return hess, Fraction(scale ** m * linalg.integer_det(g0))
    return hess, scale ** m * linalg.det(Mat(g0))


# The paper's ell is general; this range only fixes which ell a seed draws.
_COEFF_BOX = 50


def sample_linear_form(n_vars: int, rng: random.Random) -> LinearFormS:
    """Uniform coefficients in [-_COEFF_BOX, _COEFF_BOX], not all zero."""
    if n_vars < 1:
        raise ValueError(f"a linear form needs at least 1 variable, got {n_vars}")
    while True:
        coeffs = [rng.randint(-_COEFF_BOX, _COEFF_BOX) for _ in range(n_vars)]
        if any(coeffs):
            return LinearFormS(coeffs)


def first_witness(value: Callable[[LinearFormS], Fraction], n_vars: int,
                  rng: random.Random,
                  trials: int) -> Optional[Tuple[LinearFormS, Fraction]]:
    """First of `trials` sampled (ell, value(ell)) with value != 0, else None."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    for _ in range(trials):
        ell = sample_linear_form(n_vars, rng)
        val = value(ell)
        if val != 0:
            return ell, val
    return None


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
            "det": None if self.det is None else exact_str(self.det),
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
            "ell": (None if self.ell is None
                    else [exact_str(c) for c in self.ell.coeffs]),
            "degrees": [r.to_json_dict() for r in self.per_degree],
            "verdict": self.verdict,
            "seed": self.seed,
            "attempts": self.attempts,
        }


class GorensteinAlgebra:
    """A = S/Ann(F) with cached Hilbert function and graded bases.

    Builds the bases of A_j for j <= floor(d/2), the pivot columns of
    Cat^(d-j) read by _block off its packed F, or reads them off the
    points of a power sum (of_points, which keeps the point set as `x`
    and the weights as `alphas`; both are None for an algebra built from
    a polynomial) when tau(X) <= ceil(d/2), and reads the whole Hilbert
    function off them.
    """

    def __init__(self, f: Poly, d: Optional[int] = None, *, _points=None):
        if f.is_zero():
            raise ZeroGeneratorError("zero dual generator")
        self.f = f
        self.d = f.degree() if d is None else d
        _require_form(f, self.d)
        self.n_vars = f.n_vars
        self.x, self.alphas = _points or (None, None)
        self._divided = divided_powers(f, self.d + 1)
        on_points = self.x is not None and 2 * self.x.tau() <= self.d + 1
        self._bases: List[List[Monomial]] = []
        for j in range(self.d // 2 + 1):
            if on_points:
                self._bases.append(list(self.x.basis(j)))
                continue
            # the degree-j table first: the smaller one meets the budget first
            cols = monomials_of_degree(self.n_vars, j)
            cat = self._block(self._divided,  # Cat^(d-j)
                              monomials_of_degree(self.n_vars, self.d - j), cols)
            self._bases.append([cols[c] for c in linalg.pivot_columns(cat)])
        self.hilbert: HVector = _mirrored([len(b) for b in self._bases], self.d)

    @classmethod
    def of_points(cls, x, alphas: Sequence, d: int) -> "GorensteinAlgebra":
        """A for F = sum alpha_i L_i^d over the PointSet x, any d >= 0.

        All weights must be nonzero; that is what makes the piecewise
        Hilbert formula (and hence the whole pipeline) apply.  F is
        expanded once; the Hessians sum over x.
        """
        alphas = tuple(exact(a) for a in alphas)
        if len(alphas) != x.size:
            raise ValueError(f"need {x.size} weights, got {len(alphas)}")
        if any(a == 0 for a in alphas):
            raise ValueError("all weights must be nonzero")
        if d < 0:
            raise ValueError("negative degree")
        return cls(power_sum(x.points, alphas, d, x.n + 1), d,
                   _points=(x, alphas))

    def power_sum_json(self) -> dict:
        """The points, weights and d of an of_points algebra."""
        if self.x is None:
            raise PreconditionViolatedError(
                "power_sum_json needs an algebra built by of_points")
        return {
            "points": self.x.to_json_dict(),
            "alphas": [exact_str(a) for a in self.alphas],
            "d": self.d,
        }

    def basis(self, j: int) -> List[Monomial]:
        """The basis of A_j built by the constructor, 0 <= j <= floor(d/2)."""
        if not 0 <= j <= self.d // 2:
            raise DegreeOutOfRangeError(
                f"bases are kept for degrees 0..{self.d // 2}, not {j}")
        return self._bases[j]

    def hessian(self, j: int, ell: LinearFormS) -> Tuple[Mat, Fraction]:
        """Hess^j(F)(P_ell) over basis(j) and its det, for an of_points
        algebra: one gram call on one pass of point weights."""
        B = self.basis(j)
        if self.x is None:
            raise PreconditionViolatedError(
                "hessian needs an algebra built by of_points; certify_at"
                " takes the det of one built from a polynomial")
        k = self.d - 2 * j
        return gram(self.x, B, point_weights(self.x, self.alphas, k, ell),
                    factorial(self.d) // factorial(k))

    def codimension(self) -> int:
        return self.hilbert[1] if self.hilbert.socle_degree >= 1 else 0

    def _block(self, g: dict, rows: Sequence[Monomial],
               cols: Sequence[Monomial]) -> Mat:
        """Cat(g)[rows, cols] for g the packed F or a contraction of it."""
        n, base = self.n_vars, self.d + 1
        return Mat(cat_block(g, packed_keys(rows, n, base),
                             packed_keys(cols, n, base)))


def certify_at(algebra: GorensteinAlgebra, ell: LinearFormS,
               t: Optional[int] = None) -> List[DegreeRecord]:
    """SLP certificate lines at ell: both routes at every j <= floor(d/2).

    One contract chain on the algebra's packed F walks j down from
    floor(d/2): g = ell^(d-2j) o F, then g <- ell^2 o g.  The rank
    route's matrix M = Cat^j(g)[B, B] over B = basis(j) is (d-2j)!
    Hess^j(F)(P_ell).  For an algebra built from a polynomial that is
    the only Hessian, so the det is det(M) / ((d-2j)!)^h(j).  For an
    of_points algebra, algebra.hessian(j, ell) gives the Hessian and its
    det (gram), and every entry of M, read straight off g's packed dict,
    must be (d-2j)! times the Hessian's, or HessianRankMismatchError is
    raised; M is built as a matrix only for a polynomial's det or a zero
    det's rank.  M is the matrix of
    x ell^(d-2j): A_j -> A_(d-j) (B spans A_j; see _wlp_lines), of rank
    at most h(j), so a nonzero det proves rank h(j) with no elimination;
    a zero det records the exact rank of M.
    Degrees j < t are labelled "hessian-det" and the rest "map-rank";
    t=None labels all "hessian-det".  Lines come in ascending j.
    """
    d, h = algebra.d, algebra.hilbert
    if ell.n_vars != algebra.n_vars:
        raise RingMismatchError("variable count mismatch")
    records = []
    g, deg = algebra._divided, d  # g = ell^(d - deg) o F, of degree deg
    for j in range(d // 2, -1, -1):
        g, deg = contract(ell, deg - 2 * j, g, d + 1), 2 * j
        B = algebra.basis(j)
        k_fact = factorial(d - deg)
        if algebra.x is None:
            dv = linalg.det(algebra._block(g, B, B)) / k_fact ** len(B)
        else:
            hess, dv = algebra.hessian(j, ell)
            keys = packed_keys(B, algebra.n_vars, d + 1)
            if any([g.get(u + v, 0) for v in keys] != [k_fact * x for x in row]
                   for u, row in zip(keys, hess.entries)):
                raise HessianRankMismatchError(
                    f"j={j}: Cat^j(ell^{d - deg} o F)[B, B] is not"
                    f" {d - deg}! Hess^j(F)(P_ell)")
        method = "hessian-det" if t is None or j < t else "map-rank"
        records.append(DegreeRecord(
            j=j, method=method, det=dv, required=h[j],
            rank=h[j] if dv else linalg.rank(algebra._block(g, B, B))))
    return records[::-1]


def _wlp_lines(algebra: GorensteinAlgebra, ell: LinearFormS) -> List[DegreeRecord]:
    """Rank of x ell: A_i -> A_(i+1) against min(h(i), h(i+1)), i < d.

    The map is Cat^i(g) for g = ell o F, the transpose of Cat^lo(g), so
    the rank at i is the one at lo = d-1-i and only the lines i <= lo
    are eliminated, each on the block of the module docstring.  Over Q
    it has the rank of the whole Cat^i(g): (a, b) -> (a b ell) o F
    vanishes when a or b lies in Ann(F), and B_j spans S_j modulo
    Ann(F)_j on both routes (the pivots of Cat^(d-j) = Cat^j(F)^T, or
    the pivot columns of V_j, which span S_j modulo I(X)_j, inside
    Ann(F)_j), so the rows in B_i span all of Cat^i(g)'s rows and the
    columns in B_lo all of its columns, each side on its own.
    """
    d, h = algebra.d, algebra.hilbert
    g = contract(ell, 1, algebra._divided, d + 1)
    half = [linalg.rank(algebra._block(
                g, algebra.basis(i), algebra.basis(d - 1 - i)
                if d - 1 - i <= d // 2
                else monomials_of_degree(algebra.n_vars, d - 1 - i)))
            for i in range((d + 1) // 2)]
    return [DegreeRecord(j=i, method="map-rank", det=None,
                         rank=half[min(i, d - 1 - i)],
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
              attempts: int = 50,
              seed: Optional[int] = None) -> SlpCertificate:
    """Search for a strong Lefschetz element of A: certify_at per sample."""
    return _search("slp", certify_at,
                   lambda: (algebra, sample_linear_form(algebra.n_vars, rng)),
                   attempts, seed)[0]


def check_wlp(algebra: GorensteinAlgebra, rng: random.Random,
              attempts: int = 50,
              seed: Optional[int] = None) -> SlpCertificate:
    """Search for a weak Lefschetz element: x ell full rank in each degree."""
    return _search("wlp", _wlp_lines,
                   lambda: (algebra, sample_linear_form(algebra.n_vars, rng)),
                   attempts, seed)[0]
