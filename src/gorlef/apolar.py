"""Polynomial rings S = k[x_0..x_n], R = k[X_0..X_n] and the apolarity action.

S acts on R by differentiation: x_i acts as d/dX_i (true derivatives,
with factorial constants; characteristic zero throughout).  Monomials
are exponent tuples; polynomials are sparse exponent->coefficient maps
with a fixed degree-then-descending-lex term order for deterministic
iteration.  Coefficients are stored as ints when integral and as
Fractions otherwise (linalg.exact, applied by the constructors), so
the kernels run in integers on integer data.

The package needs two kernels: power_sum expands sum alpha_i L_i^d for
the duals L_i of points, and contract applies ell^k o G in k
first-order sweeps on the packed divided-power form h (Iarrobino-Kanev
1999, App. A) in which each GorensteinAlgebra keeps its F: a dict from
key(m) = sum_i m_i (d+1)^(n-1-i), m's base-(d+1) digits, to h(m) = m!
F_m = x^m o F.  x_i o G has h(m + e_i) at m, so a sweep adds a_i h to
key - (d+1)^(n-1-i), with no exponent factor; keys add without carries
while deg(u + v) <= d, so cat_block reads (x^u x^v) o G as h[key(u) +
key(v)]; no general operator in S is applied.  Every table of
monomials comes from monomials_of_degree or power_sum's walk, and both
refuse a degree of more than MAX_MONOMIAL_CELLS exponents with a
WorkBudgetError (exit 2), however few the walk visits, so a request in
billions of variables fails at once instead of running out of memory.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .errors import RingMismatchError, WorkBudgetError
from .linalg import exact, exact_str

Monomial = Tuple[int, ...]

RING_S = "S"  # differential operators, variables x_i
RING_R = "R"  # forms being differentiated, variables X_i


# Exponents in one table of monomials, about 10 MB of tuples: 130 times
# the largest table the test suite or the benchmark asks for (6
# variables, degree 8, in power_sum).
MAX_MONOMIAL_CELLS = 10 ** 6


def _check_budget(n_vars: int, degree: int) -> None:
    """WorkBudgetError when the degree-`degree` monomials in n_vars
    variables hold more than MAX_MONOMIAL_CELLS exponents in all."""
    if n_vars > 0 and degree >= 0:
        cells = n_vars * comb(n_vars + degree - 1, degree)
        if cells > MAX_MONOMIAL_CELLS:
            raise WorkBudgetError(
                f"degree-{degree} monomials in {n_vars} variables hold {cells}"
                f" exponents, above the budget of {MAX_MONOMIAL_CELLS}")


def monomials_of_degree(n_vars: int, degree: int) -> Tuple[Monomial, ...]:
    """All degree-`degree` monomials in n_vars variables, descending lex.

    Descending lex with x_0 > x_1 > ... : (d,0,..) first, (0,..,0,d) last.
    Cached, hence a tuple: every caller shares the one result.  A table
    above the work budget is a WorkBudgetError before anything is built.
    """
    _check_budget(n_vars, degree)
    return _monomials(n_vars, degree)


@lru_cache(maxsize=None)
def _monomials(n_vars: int, degree: int) -> Tuple[Monomial, ...]:
    # Sorted variable multisets in lex order are exponents in descending
    # lex; no recursion, so any number of variables within the budget.
    table = []
    for combo in combinations_with_replacement(range(n_vars), max(degree, 0)):
        e = [0] * n_vars
        for v in combo:
            e[v] += 1
        table.append(tuple(e))
    return tuple(table) if degree >= 0 else ()


class Poly:
    """Sparse multivariate polynomial over Q, tagged with its ring."""

    __slots__ = ("n_vars", "ring", "terms")

    def __init__(self, n_vars: int, ring: str, terms: Dict[Monomial, Fraction] = None):
        if ring not in (RING_S, RING_R):
            raise ValueError(f"unknown ring tag {ring!r}")
        self.n_vars = n_vars
        self.ring = ring
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = exact(c)
                if c == 0:
                    continue
                if len(m) != n_vars:
                    raise ValueError(f"exponent {m} has wrong arity for {n_vars} variables")
                for e in m:
                    if type(e) is not int or e < 0:
                        raise ValueError(f"exponent {m} holds {e!r}, not a nonnegative int")
                self.terms[tuple(m)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        # ascending degree, then descending lex; distinct monomials never tie
        return sorted(self.terms.items(), key=lambda mc: (-sum(mc[0]), mc[0]),
                      reverse=True)

    def _check_compat(self, other: "Poly"):
        if self.ring != other.ring or self.n_vars != other.n_vars:
            raise RingMismatchError(
                f"{self.ring}[{self.n_vars}] vs {other.ring}[{other.n_vars}]")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(self.n_vars, self.ring, terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.n_vars == other.n_vars and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        var = "x" if self.ring == RING_S else "X"
        bits = []
        for m, c in self.sorted_terms():
            factors = [f"{var}{i}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(m) if e]
            body = "*".join(factors) if factors else "1"
            bits.append(f"{c}*{body}" if c != 1 or not factors else body)
        return " + ".join(bits)

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "ring": self.ring,
            "terms": [{"exp": list(m), "coef": exact_str(c)}
                      for m, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poly":
        missing = {"n_vars", "ring", "terms"} - data.keys()
        if missing:
            raise ValueError(f"polynomial JSON lacks {sorted(missing)}")
        n_vars, terms = data["n_vars"], data["terms"]
        if type(n_vars) is not int:
            raise ValueError(f"polynomial n_vars must be an int, got {n_vars!r}")
        if not isinstance(terms, list) or not all(
                isinstance(t, dict) and {"exp", "coef"} <= t.keys()
                and isinstance(t["exp"], list)
                and all(type(e) is int and e >= 0 for e in t["exp"]) for t in terms):
            raise ValueError('polynomial terms must be a list of '
                             '{"exp": [int, ...], "coef": ...} objects')
        coeffs = {tuple(t["exp"]): t["coef"] for t in terms}
        if len(coeffs) != len(terms):
            raise ValueError("polynomial terms repeat an exponent")
        try:
            return cls(n_vars, data["ring"], coeffs)
        except TypeError as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from None


class LinearFormS:
    """Linear form ell = sum a_i x_i in S (a Lefschetz candidate)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        self.coeffs: Tuple[Fraction, ...] = tuple(exact(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("empty coefficient vector")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero linear form")

    @property
    def n_vars(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearFormS) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LinearFormS({[str(c) for c in self.coeffs]})"


def power_sum(points: Sequence[Sequence], alphas: Sequence, d: int,
              n_vars: int) -> Poly:
    """sum alpha_i L_i^d in R[n_vars] for the duals L_i of `points`.

    The coefficient of X^m is multinomial(d; m) * sum_i alpha_i p_i^m.
    The per-point products share their prefixes along a descending-lex
    walk over the exponents, one variable at a time; a zero exponent
    moves on in the same call, so the recursion is at most d + 1 deep.
    It carries only the points whose prefix product is still nonzero, and
    skips a prefix that none keeps nonzero, as every term below it is 0.
    The budget of monomials_of_degree still bounds the work.  Each point
    needs n_vars coordinates and a weight of its own.
    """
    _check_budget(n_vars, d)
    if d < 0 or n_vars < 1:
        raise ValueError(f"need d >= 0 and n_vars >= 1, got {d} and {n_vars}")
    if len(points) != len(alphas):
        raise ValueError(f"need one weight per point, got {len(points)} points"
                         f" and {len(alphas)} weights")
    for p in points:
        if len(p) != n_vars:
            raise ValueError(f"point {list(p)} needs {n_vars} coordinates,"
                             f" has {len(p)}")
    fact = [factorial(e) for e in range(d + 1)]
    # A point's powers p_k^e sit at k * step + e of one flat list, and the
    # walk runs over o = k * step, the start of variable k's powers.
    step, last = d + 1, (n_vars - 1) * (d + 1)
    terms = {}

    def walk(o: int, left: int, exps: Monomial, live: list, denom: int):
        for o in range(o, last, step):
            kept = [vp for vp in live if vp[1][o + 1]] if left else None
            for e in range(left, 0, -1) if kept else ():
                i = o + e
                walk(o + step, left - e, exps + (e,),
                     [(v * pw[i], pw) for v, pw in kept], denom * fact[e])
            exps += (0,)
        i = last + left
        total = sum([v * pw[i] for v, pw in live])
        if total:
            terms[exps + (left,)] = fact[d] // (denom * fact[left]) * total

    walk(0, d, (), [(a, [c ** e for c in p for e in range(step)])
                    for a, p in zip(alphas, points) if a], 1)
    return Poly(n_vars, RING_R, terms)


def divided_powers(f: Poly, base: int) -> dict:
    """F's packed divided-power form, keys in a base above every exponent."""
    return {key: c * prod(map(factorial, m)) for key, (m, c) in zip(
        packed_keys(f.terms, f.n_vars, base), f.terms.items())}


def packed_keys(monomials: Sequence[Monomial], n_vars: int,
                base: int) -> List[int]:
    """The packed key of each monomial, in order."""
    places = [base ** (n_vars - 1 - i) for i in range(n_vars)]
    return [sum(map(mul, m, places)) for m in monomials]


def contract(ell: LinearFormS, k: int, h: dict, base: int) -> dict:
    """ell^k o G on G's packed divided-power form h, in k sweeps; ell has
    G's number of variables, and k < 0 is a ValueError."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    n = ell.n_vars
    steps = [(base ** (n - 1 - i), a) for i, a in enumerate(ell.coeffs) if a]
    for _ in range(k):
        out = {}
        get = out.get
        for key, c in h.items():
            for p, a in steps:
                if key // p % base:  # digit i of key, the exponent of X_i
                    q = key - p
                    out[q] = get(q, 0) + a * c
        h = {q: c for q, c in out.items() if c}
    return h


def cat_block(h: dict, rows: List[int], cols: List[int]) -> List[list]:
    """G's catalecticant block over the packed keys rows x cols, while
    deg(u + v) is below the base: entry (u, v) = h[key(u) + key(v)]."""
    get = h.get
    return [[get(r + c, 0) for c in cols] for r in rows]
