"""Realizing SI-sequences by strong-Lefschetz Gorenstein algebras.

Pipeline: flatten the SI-sequence at its first non-increase, realize
the flattened sequence as the Hilbert function of a distraction point
set, and take F = sum alpha_i L_i^d with random nonzero weights
(random_power_sum, which every power-sum verifier shares).  An
SI-sequence has d >= 2 tau, so GorensteinAlgebra.of_points reads the
bases off the points, and the determinants that gorenstein.certify_at
reads from algebra.hessian follow gorenstein.gram's Cauchy-Binet
rule: at and above the stabilization (h(j) = s) each is a single
product over the points, nonzero whenever ell separates them;
gorenstein owns both formulas.
Only hilbert_formula_check, the audit of the point formula, takes the
catalecticants of the expanded F.  The attempts run in
gorenstein._search, the one certificate loop: each draws the weights,
then a point-separating ell (one first_witness search on
prod_i (ell o L_i)); the trivial case draws ell = x_0 once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, prod
from operator import mul
from typing import Optional, Sequence, Tuple

from . import linalg
from .apolar import LinearFormS
from .errors import (BadSubsetSizeError, NoWitnessFoundError,
                     PreconditionViolatedError, RealizationMismatchError)
from .gorenstein import (GorensteinAlgebra, SlpCertificate, _search,
                         certify_at, first_witness, gram, point_weights)
from .hvector import HVector, hbar
from .points import PointSet, gen_distraction, lex_order_ideal


def hilbert_formula_check(algebra: GorensteinAlgebra) -> Tuple[bool, Tuple[int, ...], Tuple[int, ...]]:
    """Compare h_A of an of_points algebra against the piecewise point formula.

    Requires d >= 2 tau(X) - 1 and nonzero weights; then
    h_A(i) = h_{A(X)}(min(i, d-i)).  h_A is taken from the catalecticants
    of the expanded F, not from the points.  Returns (match, actual,
    predicted).
    """
    x, d = algebra.x, algebra.d
    if x is None:
        raise PreconditionViolatedError(
            "hilbert_formula_check needs an algebra built by of_points")
    t = x.tau()
    if d < 2 * t - 1:
        raise PreconditionViolatedError(
            f"piecewise formula needs d >= 2*tau-1 = {2 * t - 1}, got d={d}")
    actual = tuple(GorensteinAlgebra(algebra.f, d).hilbert)
    predicted = tuple(x.hilbert(min(i, d - i)) for i in range(d + 1))
    return (actual == predicted, actual, predicted)


@dataclass
class ConstructionResult:
    """A realized SI-sequence with its full audit trail."""

    h: HVector
    algebra: GorensteinAlgebra
    certificate: SlpCertificate

    @property
    def attempts_used(self) -> int:
        """certificate.attempts, as perfbench/tracing.py reads it."""
        return self.certificate.attempts

    def to_json_dict(self) -> dict:
        return {
            "h": list(self.h.entries),
            **self.algebra.power_sum_json(),
            "dual_generator": self.algebra.f.to_json_dict(),
            "hilbert": list(self.algebra.hilbert.entries),
            "certificate": self.certificate.to_json_dict(),
            "attempts_used": self.certificate.attempts,
        }


def _trivial_construction(hv: HVector, seed: Optional[int]) -> ConstructionResult:
    """h = (1) or h_1 = 1: one point in P^0 and F = X_0^d."""
    algebra = GorensteinAlgebra.of_points(PointSet([[1]]), (1,),
                                          hv.socle_degree)
    cert, _ = _search("slp", lambda a, ell: certify_at(a, ell, t=0),
                      lambda: (algebra, LinearFormS([1])), 1, seed)
    if not cert.verdict or tuple(algebra.hilbert) != hv.entries:
        raise RealizationMismatchError("trivial realization failed")
    return ConstructionResult(h=hv, algebra=algebra, certificate=cert)


def construct_slp_algebra(h, rng: random.Random, attempts: int = 50,
                          seed: Optional[int] = None) -> ConstructionResult:
    """Realize an SI-sequence as the Hilbert function of an SLP algebra.

    Raises ValueError when attempts < 1, NotSIError for inputs outside
    the SI class and NoWitnessFoundError (with diagnostics) if every
    randomized attempt fails; success always carries a verdict-true
    certificate and an algebra whose Hilbert function equals h exactly.
    """
    if attempts < 1:
        raise ValueError(f"need attempts >= 1, got {attempts}")
    hv = h if isinstance(h, HVector) else HVector(h)
    bar = hbar(hv)  # raises NotSIError when h is not SI
    d = hv.socle_degree
    if len(hv) == 1 or hv[1] == 1:
        return _trivial_construction(hv, seed)

    n = hv[1] - 1
    ideal = lex_order_ideal(bar.delta(), n)
    x = gen_distraction(ideal)
    t = x.tau()
    if t != bar.t or x.size != bar.s:
        raise RealizationMismatchError(
            f"distraction has tau={t}, s={x.size}; expected {bar.t}, {bar.s}")

    def draw() -> Tuple[GorensteinAlgebra, LinearFormS]:
        algebra = random_power_sum(x, d, rng)
        ell = _separating_form(x, rng)
        if tuple(algebra.hilbert) != hv.entries:
            raise RealizationMismatchError(
                f"h_A = {list(algebra.hilbert)} != target {list(hv.entries)}")
        return algebra, ell

    cert, algebra = _search("slp", lambda a, ell: certify_at(a, ell, t), draw,
                            attempts, seed)
    if not cert.verdict:
        raise NoWitnessFoundError(
            f"no Lefschetz witness for {list(hv.entries)} in {attempts} attempts",
            diagnostics={"h": list(hv.entries), "attempts": attempts,
                         "failures": attempts})
    return ConstructionResult(h=hv, algebra=algebra, certificate=cert)


# Draws of a point-separating form before _separating_form gives up.
_SEPARATING_TRIES = 1000
# The paper's weights are general; this range only fixes a seed's weights.
_WEIGHT_BOX = 20


def _nonzero_int(rng: random.Random) -> int:
    while True:
        v = rng.randint(-_WEIGHT_BOX, _WEIGHT_BOX)
        if v:
            return v


def random_power_sum(x: PointSet, d: int,
                     rng: random.Random) -> GorensteinAlgebra:
    """A for F = sum alpha_i L_i^d over x, 0 < |alpha_i| <= _WEIGHT_BOX."""
    alphas = tuple(_nonzero_int(rng) for _ in range(x.size))
    return GorensteinAlgebra.of_points(x, alphas, d)


def _separating_form(x: PointSet, rng: random.Random) -> LinearFormS:
    """Integer form with ell o L_i = <ell, P_i> != 0 for every point P_i,
    from at most _SEPARATING_TRIES draws."""
    found = first_witness(
        lambda ell: prod(sum(map(mul, ell.coeffs, p)) for p in x.points),
        x.n + 1, rng, _SEPARATING_TRIES)
    if found is None:
        raise NoWitnessFoundError("could not sample a point-separating linear form")
    return found[0]


def hess_coefficient_criterion(x: PointSet, j: int, d: int,
                               subset: Sequence[int], rng: random.Random,
                               trials: int = 20) -> Tuple[bool, bool]:
    """Both sides of the determinant-coefficient criterion.

    For |I| = h_{A(X)}(j), the coefficient of prod_{i in I} alpha_i in
    det Hess^j is nonzero exactly when X_I has the same Hilbert value
    as X in degree j.  Returns (det_route, hilbert_route): the first is
    a randomized nonvanishing verdict on F_I = sum_{i in I} L_i^d, the
    second is exact.  Requires d >= 2 tau(X) - 1 and 0 <= j < tau(X).

    F_I has zero weights, so it is no of_points algebra: the det route
    builds its Hessian as the Gram of the points weighted by I's
    indicator and eliminates it with linalg.det, not by gram's det: F_I
    is supported on |I| = h(j) = |frame| points, where gram's single
    Cauchy-Binet term is det(V_I)^2 times a product of nonzero weights,
    nonzero exactly when the exact route's X_I keeps the Hilbert value;
    both routes would then compute the one det(V_I) and the criterion
    would no longer compare two computations.
    """
    t = x.tau()
    if d < 2 * t - 1:
        raise PreconditionViolatedError(f"need d >= 2*tau-1 = {2 * t - 1}")
    if not 0 <= j <= t - 1:
        raise PreconditionViolatedError(f"need 0 <= j <= tau-1 = {t - 1}")
    idx = list(subset)
    if len(set(idx)) != len(idx) or any(not 0 <= i < x.size for i in idx):
        raise BadSubsetSizeError("subset indices must be distinct and in range")
    if len(idx) != x.hilbert(j):
        raise BadSubsetSizeError(
            f"need |I| = h(j) = {x.hilbert(j)}, got {len(idx)}")

    frame = x.basis(j)  # A_j's basis for all nonzero weights: d - j >= tau
    chosen = set(idx)
    indicator = [int(i in chosen) for i in range(x.size)]
    k = d - 2 * j
    det_route = first_witness(
        lambda ell: linalg.det(gram(x, frame,
                                    point_weights(x, indicator, k, ell),
                                    factorial(d) // factorial(k))[0]),
        x.n + 1, rng, trials) is not None
    hilbert_route = x.subset(idx).hilbert(j) == x.hilbert(j)
    return (det_route, hilbert_route)
