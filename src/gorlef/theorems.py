"""Executable checks for the structural results behind the pipeline.

Each verifier builds its configuration, validates the hypotheses at
runtime (loudly; never trusting the point-set generator) and certifies
the conclusion.  An exhausted search is NoWitnessFoundError (one-sided);
TheoremTensionError means a computed identity or rank contradicts the
theorem.  The families are realized by construct_slp_algebra; every
other configuration is an of_points algebra built by random_power_sum,
which carries its points and weights.  Each of its Hessians is one
gorenstein.gram call, which returns the matrix and its det by the
Cauchy-Binet rule, on one pass of point weights per ell:
algebra.hessian(j, ell) for the tail witnesses and verify_prop_s_minus.
The conic decomposition needs no Hessian: each is a sum of rank-one
terms over the points, so it compares the points' rows of its frames.
Its rows and the zero-forcing rows are built from the points' cached
columns (PointSet.columns), so each monomial is evaluated at the points
once; only the SLP certificates read the expanded F, for their ranks
and for their dets below the plateau (gorenstein.certify_at).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .apolar import LinearFormS
from .construct import construct_slp_algebra, random_power_sum
from .errors import (NoWitnessFoundError, NotPlaneConfigError,
                     PreconditionViolatedError, ShapeMismatchError,
                     TheoremTensionError)
from .gorenstein import SlpCertificate, check_slp, first_witness
from .hvector import first_difference
from .linalg import Mat, check_cells
from .points import (PointSet, check_rnc, curve_params, find_subset_on_curve,
                     gen_rnc, gen_two_lines, has_collinear_triple)


# ---------------------------------------------------------------------------
# Overlapping-block determinant identity


@dataclass(frozen=True)
class BlockPair:
    """Two m x m blocks, m = B's size, sharing one cell in a (2m-1) frame."""

    b: Mat
    c: Mat

    def __post_init__(self):
        if len({self.b.rows, self.b.cols, self.c.rows, self.c.cols}) != 1:
            raise ValueError("B and C must be square and the same size")

    def assemble(self) -> Mat:
        """The (2m-1) x (2m-1) matrix with B top-left, C bottom-right.

        The shared cell (m, m) holds B[m][m] + C[1][1]; everything
        outside the two blocks is zero.
        """
        b, c = self.b.entries, self.c.entries
        pad = [0] * (len(b) - 1)
        shared = b[-1][:-1] + [b[-1][-1] + c[0][0]] + c[0][1:]
        return Mat([row + pad for row in b[:-1]] + [shared]
                   + [pad + row for row in c[1:]])


def _minor(mat: Mat, drop_row: int, drop_col: int) -> Mat:
    return Mat([[mat.entries[i][j] for j in range(mat.cols) if j != drop_col]
                for i in range(mat.rows) if i != drop_row])


def block_det_identity(pair: BlockPair) -> Tuple[Fraction, Fraction, bool]:
    """det(assembled) vs det(B-)det(C) + det(B)det(C-).

    B- drops the last row/column of B, C- the first of C; an empty
    determinant counts as 1.  Returns (lhs, rhs, equal).
    """
    lhs = linalg.det(pair.assemble())
    m = pair.b.rows
    det_b_minor = linalg.det(_minor(pair.b, m - 1, m - 1))
    det_c_minor = linalg.det(_minor(pair.c, 0, 0))
    rhs = det_b_minor * linalg.det(pair.c) + linalg.det(pair.b) * det_c_minor
    return (lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Rational normal curves


def _socle_degree(t: int, d: Optional[int]) -> int:
    """d, or 2 tau when d is None; the point-set results need d >= 2 tau."""
    if d is not None and d < 2 * t:
        raise PreconditionViolatedError(f"need d >= 2*tau = {2 * t}, got {d}")
    return 2 * t if d is None else d


def _certified(algebra, rng: random.Random, attempts: int,
               exhausted: str) -> SlpCertificate:
    """check_slp's verdict-true certificate, else NoWitnessFoundError."""
    cert = check_slp(algebra, rng, attempts=attempts)
    if not cert.verdict:
        raise NoWitnessFoundError(exhausted, {"attempts": attempts})
    return cert


def verify_rnc_slp(n: int, s: int, d: Optional[int], rng: random.Random,
                   attempts: int = 50) -> Tuple[SlpCertificate, int]:
    """Points on a rational normal curve give SLP algebras.

    Refuses n < 1, s < 1, and every carried frame of the s points above
    the elimination budget, before any draw (check_rnc), checks
    tau = ceil((s-1)/n), requires d >= 2 tau (None: 2 tau), then
    certifies the SLP for random nonzero weights; returns the
    certificate and d.  A search that finds no Lefschetz element
    raises NoWitnessFoundError rather than returning quietly.
    """
    check_rnc(n, s)
    x = gen_rnc(n, s, curve_params(s, rng))
    t = x.tau()
    expected_tau = -(-(s - 1) // n)
    if t != expected_tau:
        raise ShapeMismatchError(f"tau = {t}, expected {expected_tau}")
    d = _socle_degree(t, d)
    cert = _certified(random_power_sum(x, d, rng), rng, attempts,
                      f"no Lefschetz witness for {s} curve points in "
                      f"P^{n}, d={d}")
    return cert, d


# ---------------------------------------------------------------------------
# Two lines: the Hessian decomposition


@dataclass
class ConicReport:
    """Outcome of the two-line verification."""

    d: int
    tau: int
    display_match: bool  # h_A(i) == min(2i+1, s) pattern
    certificate: Optional[SlpCertificate] = None
    decomposition_checks: int = 0  # eval_points per j, draws the proof covers


def _line_mask(x: PointSet) -> List[int]:
    """0/1 mask over x of the line {x1 = 0}, (0:0:1) included; the rest
    is on {x0 = 0}."""
    for p in x.points:
        if p[0] != 0 and p[1] != 0:
            raise ShapeMismatchError(f"point {p} on neither line")
    return [int(p[1] == 0) for p in x.points]


def verify_conic_slp(s1: int, s2: int, share: bool, d: Optional[int],
                     rng: random.Random, attempts: int = 50,
                     eval_points: int = 20) -> ConicReport:
    """Points on the singular conic give SLP algebras, decomposably.

    At d >= 2 tau (None: 2 tau, the d kept in the report), verifies the
    on-conic bound h_A(i) <= min(2i+1, s) (hard failure), records
    whether the rising-odd display matches exactly (it does not for
    lopsided splits), certifies SLP, and proves, with no ell drawn and
    nothing eliminated, the Hessian decomposition identity for every
    ell: with F = F1 + F2 split along the lines,

      det Hess^j(F) = det Hess^(j-1)(F1') det Hess^j(F2)
                    + det Hess^(j-1)(F2') det Hess^j(F1),

    F1' = x0^2 o F1, F2' = x1^2 o F2, over the monomial frame
    {x0^j, .., x0 x2^(j-1), x2^j, x2^(j-1) x1, .., x1^j}, by comparing
    each point's rows of the five frames (PointSet.values, once per j).
    eval_points >= 1 only scales decomposition_checks.
    """
    if eval_points < 1:
        raise ValueError(f"need eval_points >= 1, got {eval_points}")
    x = gen_two_lines(s1, s2, share)
    s = x.size
    t = x.tau()
    d = _socle_degree(t, d)
    algebra = random_power_sum(x, d, rng)
    h = algebra.hilbert
    display = tuple(min(2 * i + 1, 2 * (d - i) + 1, s) for i in range(d + 1))
    for i in range(d + 1):
        if h[i] > display[i]:
            raise ShapeMismatchError(
                f"h_A({i}) = {h[i]} exceeds the on-conic bound {display[i]}")
    display_match = tuple(h) == display

    cert = _certified(algebra, rng, attempts, f"no Lefschetz witness for "
                      f"two-line config ({s1},{s2},share={share})")

    # Split F = F1 + F2 along the lines; x0^2 o L^d = d(d-1) a0^2 L^(d-2),
    # so F1' weighs P_i on line 1 by d(d-1) p_i0^2 alpha_i, and Hess^(j-1)
    # of degree d-2 raises L_i(P_ell) to d-2j too.  So the five Hessians of
    # (j, ell) are scale V^T diag(c) V, c_i = alpha_i L_i(P_ell)^(d-2j), one
    # scale as d(d-1) (d-2)!/(d-2j)! = d!/(d-2j)!; at c = e_i each is
    # scale c u u^T for P_i's row u in its frame.  So the blocks match at
    # every alpha and ell when each point's rows match as below, and
    # block_det_identity's lemma gives the det identity.
    on1 = _line_mask(x)
    for j in range(1, d // 2 + 1):
        # x0^j .. x0 x2^(j-1), then x2^j shared, then x2^(j-1) x1 .. x1^j
        b_frame = [(j - i, 0, i) for i in range(j + 1)]
        c_frame = [(0, i, j - i) for i in range(j + 1)]
        rows = zip(x.points, on1, x.values(b_frame + c_frame[1:]),
                   x.values(b_frame), x.values(c_frame),
                   x.values([(j - 1 - i, 0, i) for i in range(j)]),
                   x.values([(0, i, j - 1 - i) for i in range(j)]))
        pad = (0,) * j
        for p, a, u, ub, uc, um1, um2 in rows:
            if u != (ub + pad if a else pad + uc):
                raise TheoremTensionError(f"block assembly mismatch at j={j}")
            q, um, cut = (p[0], um1, ub[:-1]) if a else (p[1], um2, uc[1:])
            if tuple(q * v for v in um) != cut:
                raise TheoremTensionError(
                    f"Hessian decomposition fails at j={j}, point={p}")

    return ConicReport(d=d, tau=t, display_match=display_match,
                       certificate=cert,
                       decomposition_checks=eval_points * (d // 2))


# ---------------------------------------------------------------------------
# Tail nonvanishing (line and conic tails)


@dataclass
class TailReport:
    """Nonvanishing witnesses across the guaranteed degree range."""

    d: int
    tau: int
    k: int  # Delta h ends in r's from degree k through tau
    curve_indices: Tuple[int, ...]
    off_indices: Tuple[int, ...]
    witnesses: Dict[int, Tuple[LinearFormS, Fraction]] = field(default_factory=dict)
    zero_forcing_checks: int = 0


_TAIL_R = {"line": 1, "conic": 2}
# the line x2 = 0 and the smooth conic x0 x2 = x1^2
_ON_TAIL_CURVE = {"line": lambda q: q[2] == 0,
                  "conic": lambda q: q[0] * q[2] == q[1] ** 2}
# Draws of a point set before make_tail_config gives up.
_TAIL_DRAWS = 200
# The off-curve points are general; this range only fixes a seed's points.
_TAIL_BOX = 12


def _tail_start(delta: Sequence[int], r: int) -> Optional[int]:
    """Least k >= 1 with delta[i] = r for all k <= i <= tau, or None;
    tau = len(delta) - 1."""
    k = len(delta)
    while k > 1 and delta[k - 1] == r:
        k -= 1
    return k if k < len(delta) else None


@lru_cache(maxsize=None)
def _off_curve_room(kind: str, box: int) -> int:
    """Points of the box [-box, box]^2 off the tail curve of `kind`."""
    return sum(not _ON_TAIL_CURVE[kind]((1, a, b))
               for a, b in product(range(-box, box + 1), repeat=2))


def make_tail_config(kind: str, tau_target: int, off: int,
                     rng: random.Random) -> PointSet:
    """Curve points plus generic off-curve points with a valid tail shape.

    Returns X whose Delta h_{A(X)} ends with the value r from some degree
    1 <= k <= tau through tau (_tail_start; verify_tail_nonvanishing
    reads k off X); its off-curve points have affine coordinates in
    [-_TAIL_BOX, _TAIL_BOX].  Raises ShapeMismatchError when _TAIL_DRAWS
    draws produce no such shape (a small box makes some impossible).
    Before any draw it raises ValueError on an unknown kind, off < 0,
    tau_target < 1, more off-curve points than that box holds, a request
    no draw can satisfy (tau_target = 1, or a line tail with off = 0),
    and more off-curve points than any plane shape with that tail holds,
    (tau-1)(tau-2)/2 for a conic and tau(tau-1)/2 for a line; and it
    raises WorkBudgetError when the points are above the elimination
    budget.
    """
    if kind not in _TAIL_R or off < 0 or tau_target < 1:
        raise ValueError(f"need a kind in {sorted(_TAIL_R)}, off >= 0 and "
                         f"tau >= 1; got {kind!r}, off={off}, tau={tau_target}")
    on_curve = _ON_TAIL_CURVE[kind]
    room = _off_curve_room(kind, _TAIL_BOX)
    if off > room:
        raise ValueError(f"the box [-{_TAIL_BOX}, {_TAIL_BOX}]^2 holds {room} "
                         f"points off the {kind}, got off={off}")
    # A line tail with off = 0 is collinear: Delta h(1) = 1, not a plane
    # shape.  At tau = 1 a line tail needs Delta h(1) = 1 and 2 at once,
    # and a conic tail has s <= 3 points, all on the curve, which no
    # 5-point conic probe can find.
    if tau_target == 1 or (kind == "line" and off == 0):
        raise ValueError(f"no {kind} tail has tau={tau_target}, off={off}")
    r = _TAIL_R[kind]
    # plane points have Delta h(i) <= i + 1, and the tail Delta h(tau) = r,
    # so s = r tau + 1 + off <= tau (tau + 1) / 2 + r
    most = tau_target * (tau_target + 1) // 2 - r * (tau_target - 1) - 1
    if off > most:
        raise ValueError(f"a {kind} tail with tau={tau_target} has at most "
                         f"{most} off-curve points, got off={off}")
    on_count = r * tau_target + 1
    check_cells(on_count + off, 3)
    for _ in range(_TAIL_DRAWS):
        if kind == "conic":
            base = [(1, p, p * p) for p in curve_params(on_count, rng)]
        else:
            base = [(1, i, 0) for i in range(on_count)]
        pts = list(base)
        seen = set(pts)
        while len(pts) < on_count + off:
            q = (1, rng.randint(-_TAIL_BOX, _TAIL_BOX),
                 rng.randint(-_TAIL_BOX, _TAIL_BOX))
            if q in seen or on_curve(q):
                continue
            seen.add(q)
            pts.append(q)
        x = PointSet(pts)
        t = x.tau()
        if t == tau_target and _tail_start(
                first_difference(x.hilbert_vector(t)), r):
            return x
    raise ShapeMismatchError(
        f"no {kind} tail shape for tau={tau_target}, off={off}")


def verify_tail_nonvanishing(kind: str, x: PointSet, d: Optional[int],
                             rng: random.Random, trials: int) -> TailReport:
    """Flat Delta-tails force nonzero Hessian determinants.

    For a tail of r's (r = 1 line, r = 2 conic) in Delta h_{A(X)} from
    degree k through tau, k the least such (_tail_start, kept in the
    report), at d >= 2 tau (None: 2 tau, the d kept in the report):
    every j in [k-1, floor(d/2)] gets a nonzero-det witness, and zeroing
    any off-curve weight kills the determinant identically.  The latter
    is proven by one exact rank per weight, not sampled: the other
    points' evaluation matrix on the basis of A_(k-1) has rank below
    h_A(k-1), and that decides every higher degree (the proof is at the
    check).  `zero_forcing_checks` counts the `trials` draws per (weight,
    degree) that the proof covers.  The curve subset of exactly r*tau+1
    points is found by exact search, not taken from make_tail_config;
    that is what keeps the boundary case k = tau sound, where the
    Hilbert function alone would not pin down the geometry.
    """
    if kind not in _TAIL_R:
        raise ValueError(f"unknown tail kind {kind!r}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if x.n != 2:
        raise NotPlaneConfigError("tail theorems live in P^2")
    r = _TAIL_R[kind]
    t = x.tau()
    d = _socle_degree(t, d)
    delta = first_difference(x.hilbert_vector(t))
    k = _tail_start(delta, r)
    if k is None:
        raise ShapeMismatchError(f"Delta h = {delta} does not end in {r}'s")
    if delta[0] != 1 or delta[1] != 2:
        raise ShapeMismatchError(f"Delta h = {delta} is not a plane shape")

    curve_count = r * t + 1
    curve = find_subset_on_curve(x, r, curve_count)
    if curve is None:
        raise ShapeMismatchError(
            f"no degree-{r} curve through exactly {curve_count} points")
    off = tuple(i for i in range(x.size) if i not in set(curve))

    algebra = random_power_sum(x, d, rng)

    report = TailReport(d=d, tau=t, k=k, curve_indices=tuple(curve),
                        off_indices=off)
    for j in range(k - 1, d // 2 + 1):
        found = first_witness(lambda ell: algebra.hessian(j, ell)[1],
                              3, rng, trials)
        if found is None:
            raise NoWitnessFoundError(
                f"no nonzero Hess^{j} witness in {trials} trials",
                diagnostics={"kind": kind, "j": j, "d": d})
        report.witnesses[j] = found

    # Zero-forcing: Hess^j = V^T diag(c) V, c_s ~ alpha_s L_s(P_ell)^(d-2j), so
    # det = sum_S prod_S c_s det(V_S)^2 (Cauchy-Binet) dies for all weights
    # and ell with alpha_i = 0 iff the rows of V off P_i have rank < |B|.
    # B = basis(j) spans the columns of V_j(X), so that rank is
    # h_(X - P_i)(j), and it is below h_X(j) exactly when P_i has a
    # separator of degree j: a form vanishing on X - P_i but not at P_i.
    # A separator of degree j times a coordinate nonzero at P_i is one of
    # degree j + 1 (Geramita, Kreuzer and Robbiano, Trans. AMS 339, 1993).
    # So forcing at k - 1 forces every j in [k-1, floor(d/2)], and the one
    # rank at k - 1 decides them all.
    frame = algebra.basis(k - 1)
    rows = x.values(frame)
    for i in off:
        if linalg.rank(Mat(rows[:i] + rows[i + 1:])) == len(frame):
            raise TheoremTensionError(
                f"det survives zeroing off-curve weight {i} at j={k - 1}")
    report.zero_forcing_checks = trials * len(off) * (d // 2 - k + 2)
    return report


# ---------------------------------------------------------------------------
# The five first-difference families


_FAMILIES = (
    ("1,2,1^m", lambda m: (1, 2) + (1,) * m),
    ("1,2,2,1^m", lambda m: (1, 2, 2) + (1,) * m),
    ("1,2,3,1^m", lambda m: (1, 2, 3) + (1,) * m),
    ("1,2^m", lambda m: (1,) + (2,) * m),
    ("1,2,3,2^m", lambda m: (1, 2, 3) + (2,) * m),
)


@dataclass
class FamilyReport:
    name: str
    m: int
    delta: Tuple[int, ...]
    x: PointSet
    d: int
    certificate: SlpCertificate


def verify_corollary_families(m_values: Sequence[int], rng: random.Random,
                              attempts: int = 50) -> List[FamilyReport]:
    """All five flat-tail Delta families give SLP algebras at d = 2 tau:
    construct_slp_algebra realizes Delta summed through tau, mirrored.
    Refuses a negative m, and a family above the elimination budget,
    before any draw."""
    if any(m < 0 for m in m_values):
        raise ValueError(f"need every m >= 0, got {list(m_values)}")
    # the largest family, 1,2,3,2^m, has 2m + 6 points in P^2
    check_cells(2 * max(m_values, default=0) + 6, 3)
    out = []
    for name, make in _FAMILIES:
        for m in m_values:
            delta = make(m)
            half = list(accumulate(delta))
            result = construct_slp_algebra(half + half[-2::-1], rng,
                                           attempts=attempts)
            out.append(FamilyReport(name=name, m=m, delta=delta,
                                    x=result.algebra.x, d=result.algebra.d,
                                    certificate=result.certificate))
    return out


# ---------------------------------------------------------------------------
# Near-top Hilbert values


@dataclass
class PropReport:
    ell: LinearFormS
    det: Fraction


def verify_prop_s_minus(x: PointSet, d: int, j: int, kind: int,
                        rng: random.Random, trials: int) -> PropReport:
    """Hessian nonvanishing when h_A(j) is s-1 (kind 1) or s-2 (kind 2).

    kind 2 additionally requires plane points in general linear
    position with s >= 3.  Needs 2j <= d so the Hessian exists; the
    witness search is randomized and raises NoWitnessFoundError when
    exhausted.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= 2 * j <= d:
        raise PreconditionViolatedError(f"need 0 <= 2j <= d, got j={j}, d={d}")
    if kind == 2:
        if x.n != 2:
            raise NotPlaneConfigError("kind 2 requires points in P^2")
        if x.size < 3:
            raise PreconditionViolatedError("kind 2 requires s >= 3")
        if has_collinear_triple(x):
            raise PreconditionViolatedError("points must be in general linear position")
    target = x.size - kind
    algebra = random_power_sum(x, d, rng)
    if algebra.hilbert[j] != target:
        raise PreconditionViolatedError(
            f"h_A({j}) = {algebra.hilbert[j]}, need {target}")
    found = first_witness(lambda ell: algebra.hessian(j, ell)[1],
                          x.n + 1, rng, trials)
    if found is not None:
        return PropReport(*found)
    raise NoWitnessFoundError(
        f"no Hess^{j} witness for kind {kind} in {trials} trials",
        diagnostics={"kind": kind, "j": j, "d": d})
