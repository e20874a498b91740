"""Artinian Gorenstein algebras from Macaulay dual generators.

A nonzero form F of degree d in R defines A = S/Ann(F).  Catalecticant
ranks give the Hilbert function and pivots give monomial bases of each
graded piece.  Since Cat^(d-j) is the transpose of Cat^j, one
elimination of Cat^(d-j) per degree j <= floor(d/2) yields both the
basis of A_j (its pivot columns) and h(j) = h(d-j) (its rank).  Higher
Hessians evaluated at the point dual to a linear form ell decide the
strong Lefschetz property:

    ell is strong Lefschetz  iff  det Hess^j(F)(P_ell) != 0
                                  for all j <= floor(d/2).

Each Hessian verdict can be cross-checked by the rank of the actual
multiplication map x ell^(d-2j): A_j -> A_(d-j); the two routes agree
by the Hessian criterion and any disagreement is raised as a bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from operator import add
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .apolar import (LinearFormS, Monomial, Poly, RING_R, contract_linear_power,
                     contract_monomial, monomials_of_degree)
from .errors import (DegreeOutOfRangeError, HessianRankMismatchError,
                     ZeroGeneratorError)
from .hvector import HVector
from .linalg import Mat


def _generator_degree(f: Poly, d: Optional[int]) -> int:
    if d is not None:
        return d
    deg = f.degree()
    if deg < 0:
        raise ZeroGeneratorError("zero dual generator has no degree; pass d explicitly")
    return deg


def catalecticant(f: Poly, j: int, d: Optional[int] = None) -> Mat:
    """Catalecticant matrix of F in degree j.

    Rows run over degree-j monomials of S, columns over degree-(d-j)
    monomials, both in descending lex; entry (u, v) = (x^u x^v) o F,
    a scalar carrying the factorial constants of true differentiation.
    Integral entries are stored as ints.
    """
    if f.ring != RING_R:
        raise ZeroGeneratorError("dual generator must live in R")
    d = _generator_degree(f, d)
    if j < 0 or j > d:
        raise DegreeOutOfRangeError(f"degree {j} outside 0..{d}")
    scaled = {}
    for e, c in f.terms.items():
        k = 1
        for x in e:
            k *= factorial(x)
        scaled[e] = c.numerator * k if c.denominator == 1 else c * k
    cols = monomials_of_degree(f.n_vars, d - j)
    return Mat([[scaled.get(tuple(map(add, u, v)), 0) for v in cols]
                for u in monomials_of_degree(f.n_vars, j)])


def _mirrored(half: List[int], d: int) -> HVector:
    """h(0..d) from h(0..floor(d/2)) by the symmetry h(j) = h(d-j)."""
    return HVector(half + half[:(d + 1) // 2][::-1])


def hilbert_function(f: Poly, d: Optional[int] = None) -> HVector:
    """Hilbert function of A = S/Ann(F): h(j) = rank Cat^j_F = h(d-j)."""
    if f.is_zero():
        raise ZeroGeneratorError("zero dual generator")
    d = _generator_degree(f, d)
    return _mirrored([len(basis(f, j, d)) for j in range(d // 2 + 1)], d)


def basis(f: Poly, j: int, d: Optional[int] = None) -> List[Monomial]:
    """Monomial basis of A_j: pivot rows of the degree-j catalecticant.

    Found as the pivot columns of Cat^(d-j) = (Cat^j)^T, so the same
    elimination also gives h(j).  Deterministic: descending-lex
    monomials with top-to-bottom pivoting.
    """
    d = _generator_degree(f, d)
    if j < 0 or j > d:
        raise DegreeOutOfRangeError(f"degree {j} outside 0..{d}")
    rows = monomials_of_degree(f.n_vars, j)
    return [rows[i] for i in linalg.pivot_columns(catalecticant(f, d - j, d))]


def hessian_at(f: Poly, j: int, ell: LinearFormS,
               basis_monomials: Optional[Sequence[Monomial]] = None,
               d: Optional[int] = None) -> Mat:
    """j-th Hessian of F evaluated at the point dual to ell.

    Entry (u, v) = ((b_u b_v) o F)(P) over a monomial basis B_j of A_j
    (computed from F's catalecticant pivots unless supplied).  Passing
    an explicit basis is what lets callers probe degenerate generators
    against a fixed frame.
    """
    d = _generator_degree(f, d)
    if j < 0 or 2 * j > d:
        raise DegreeOutOfRangeError(f"Hessian degree {j} needs 0 <= 2j <= {d}")
    if ell.n_vars != f.n_vars:
        raise DegreeOutOfRangeError("variable count mismatch")
    B = list(basis_monomials) if basis_monomials is not None else basis(f, j, d)
    p = ell.point()
    size = len(B)
    m = Mat.zero(size, size)
    for a in range(size):
        for b in range(a, size):
            e = tuple(x + y for x, y in zip(B[a], B[b]))
            val = contract_monomial(e, f).evaluate(p)
            m.entries[a][b] = val
            m.entries[b][a] = val
    return m


def hessian_det(f: Poly, j: int, ell: LinearFormS,
                basis_monomials: Optional[Sequence[Monomial]] = None,
                d: Optional[int] = None) -> Fraction:
    return linalg.det(hessian_at(f, j, ell, basis_monomials, d))


def sample_linear_form(n_vars: int, rng: random.Random,
                       box: int = 50) -> LinearFormS:
    """Uniform integer coefficients in [-box, box], not all zero."""
    while True:
        coeffs = [rng.randint(-box, box) for _ in range(n_vars)]
        if any(coeffs):
            return LinearFormS(coeffs)


def multiplication_rank(f: Poly, i: int, k: int, ell: LinearFormS,
                        d: Optional[int] = None) -> int:
    """Rank of x ell^k : A_i -> A_(i+k), computed without Hessians.

    Uses the matrix [(x^u x^v ell^k) o F] with u over degree-i and v
    over degree-(d-i-k) monomials; spanning sets suffice because the
    apolarity pairing is perfect on A.
    """
    d = _generator_degree(f, d)
    if i < 0 or k < 0 or i + k > d:
        raise DegreeOutOfRangeError(f"need 0 <= i, 0 <= k, i+k <= {d}")
    g = contract_linear_power(ell, k, f)  # degree d - k
    if g.is_zero():
        return 0
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
    elimination each, and reads the whole Hilbert function off them.
    """

    def __init__(self, f: Poly, d: Optional[int] = None):
        if f.is_zero():
            raise ZeroGeneratorError("zero dual generator")
        if not f.is_homogeneous():
            raise ZeroGeneratorError("dual generator must be homogeneous")
        self.f = f
        self.d = _generator_degree(f, d)
        self.n_vars = f.n_vars
        self._bases: dict = {j: basis(f, j, self.d)
                             for j in range(self.d // 2 + 1)}
        self.hilbert: HVector = _mirrored(
            [len(self._bases[j]) for j in range(self.d // 2 + 1)], self.d)

    def basis(self, j: int) -> List[Monomial]:
        if j not in self._bases:
            self._bases[j] = basis(self.f, j, self.d)
        return self._bases[j]

    def codimension(self) -> int:
        return self.hilbert[1] if self.hilbert.socle_degree >= 1 else 0


def _slp_lines_at(algebra: GorensteinAlgebra, ell: LinearFormS) -> List[DegreeRecord]:
    """Evaluate both routes at every j <= floor(d/2); raise on disagreement."""
    f, d, h = algebra.f, algebra.d, algebra.hilbert
    records = []
    for j in range(d // 2 + 1):
        dv = linalg.det(hessian_at(f, j, ell, algebra.basis(j), d))
        rk = multiplication_rank(f, j, d - 2 * j, ell, d)
        if (dv != 0) != (rk == h[j]):
            raise HessianRankMismatchError(
                f"j={j}: det={dv} but rank={rk}, required {h[j]}")
        records.append(DegreeRecord(j=j, method="hessian-det", det=dv,
                                    rank=rk, required=h[j]))
    return records


def _algebra_of(f, d: Optional[int]) -> GorensteinAlgebra:
    return f if isinstance(f, GorensteinAlgebra) else GorensteinAlgebra(f, d)


def check_slp(f, rng: random.Random, attempts: int = 50,
              box: int = 50, seed: Optional[int] = None,
              d: Optional[int] = None) -> SlpCertificate:
    """Search for a strong Lefschetz element of A = S/Ann(F).

    f is the dual generator F, or an already built GorensteinAlgebra
    (then d is ignored).  Samples integer linear forms and certifies via
    Hessian determinants at every j <= floor(d/2), cross-validated by
    multiplication ranks.
    """
    algebra = _algebra_of(f, d)
    cert = SlpCertificate(kind="slp", ell=None, seed=seed)
    for attempt in range(1, attempts + 1):
        ell = sample_linear_form(algebra.n_vars, rng, box)
        records = _slp_lines_at(algebra, ell)
        cert.attempts = attempt
        if all(r.ok() for r in records):
            cert.ell = ell
            cert.per_degree = records
            cert.verdict = True
            return cert
        cert.per_degree = records  # keep the last failure for diagnostics
    cert.verdict = False
    return cert


def check_wlp(f, rng: random.Random, attempts: int = 50,
              box: int = 50, seed: Optional[int] = None,
              d: Optional[int] = None) -> SlpCertificate:
    """Search for a weak Lefschetz element: x ell full rank in each degree.

    f is the dual generator F or an already built GorensteinAlgebra, as
    for check_slp.
    """
    algebra = _algebra_of(f, d)
    h = algebra.hilbert
    d_ = algebra.d
    cert = SlpCertificate(kind="wlp", ell=None, seed=seed)
    for attempt in range(1, attempts + 1):
        ell = sample_linear_form(algebra.n_vars, rng, box)
        records = []
        for i in range(d_):
            rk = multiplication_rank(algebra.f, i, 1, ell, d_)
            need = min(h[i], h[i + 1])
            records.append(DegreeRecord(j=i, method="map-rank", det=None,
                                        rank=rk, required=need))
        cert.attempts = attempt
        if all(r.ok() for r in records):
            cert.ell = ell
            cert.per_degree = records
            cert.verdict = True
            return cert
        cert.per_degree = records
    cert.verdict = False
    return cert
