"""Independent reference implementations used only by the tests.

Everything here recomputes results through a route different from the
package: plain Gaussian elimination instead of Bareiss, Laplace
expansion instead of fraction-free pivoting, exhaustive search instead
of greedy selection, direct enumeration of monomial order ideals
instead of Macaulay's growth bound, a closure search for the lex order
ideal instead of reading Macaulay's lex segments, and sequence classes
checked clause by clause with every Macaulay step expanded instead of
in one pass.
General contraction by an operator in S, evaluation of a form at a
point and whole catalecticants of a Poly live only here: the package
contracts only by powers of a linear form, and reads catalecticant
blocks only off an algebra's packed F.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from gorlef import linalg
from gorlef.apolar import Poly, RING_R, RING_S, monomials_of_degree
from gorlef.errors import RingMismatchError
from gorlef.construct import _nonzero_int
from gorlef.gorenstein import sample_linear_form
from gorlef.linalg import Mat


# ---------------------------------------------------------------------------
# Linear algebra oracles


def gauss_pivot_columns(rows: Sequence[Sequence[Fraction]]) -> List[int]:
    """Pivot columns of plain Gauss-Jordan reduction, no Bareiss.

    Columns are scanned left to right and the first row with a nonzero
    entry in the column becomes the pivot row.
    """
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots: List[int] = []
    col = 0
    while len(pivots) < n_rows and col < n_cols:
        rank = len(pivots)
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        col += 1
    return pivots


def gauss_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Row reduction with partial ordering by leading column, no Bareiss."""
    return len(gauss_pivot_columns(rows))


def gauss_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Plain Gaussian elimination in Fractions, no Bareiss: the product
    of the pivots, negated per row swap, or 0 when a column has none."""
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            if m[r][c] != 0:
                factor = m[r][c] / m[c][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return det


def transpose(m: Mat) -> Mat:
    """The transpose of m."""
    return Mat([list(col) for col in zip(*m.entries)])


def identity(n: int) -> Mat:
    """The n x n identity matrix."""
    return Mat([[int(r == c) for c in range(n)] for r in range(n)])


def matmul(a: Mat, b: Mat) -> Mat:
    """The matrix product a b by the schoolbook triple loop."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0))
                 for col in zip(*b.entries)] for row in a.entries])


def laplace_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Cofactor expansion along the first row; fine for n <= 6."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        a = Fraction(rows[0][j])
        if a == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * a * laplace_det(minor)
    return total


def point_gram(points: Sequence[Sequence[Fraction]], alphas: Sequence,
               k: int, ell: Sequence, frame: Sequence[Tuple[int, ...]],
               scale: int) -> List[List[Fraction]]:
    """scale * sum_i alpha_i <ell, P_i>^k v_i v_i^T as a sum of rank-one
    pieces, v_i the frame's monomials evaluated at P_i, in Fractions."""
    n = len(frame)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for a, p in zip(alphas, points):
        c = Fraction(a) * sum((Fraction(x) * y for x, y in zip(ell, p)),
                              Fraction(0)) ** k
        v = [prod((Fraction(y) ** e for y, e in zip(p, m)), start=Fraction(1))
             for m in frame]
        for r in range(n):
            cv = c * v[r]
            for q in range(n):
                acc[r][q] += cv * v[q]
    return [[scale * e for e in row] for row in acc]


# ---------------------------------------------------------------------------
# Binomial expansion by exhaustive search


def exhaustive_binomial_expansions(h: int, i: int) -> List[List[Tuple[int, int]]]:
    """Every expansion h = C(m_i,i)+...+C(m_k,k) with m_i > ... > m_k >= k,
    found by trying all strictly descending sequences over consecutive
    lower indices.  Uniqueness is part of what the tests assert.
    """
    solutions: List[List[Tuple[int, int]]] = []

    def rec(remaining: int, k: int, upper: int, acc: List[Tuple[int, int]]):
        if remaining == 0:
            solutions.append(list(acc))
            return
        if k < 1:
            return
        for m in range(min(upper, remaining + k), k - 1, -1):
            c = comb(m, k)
            if c > remaining:
                continue
            acc.append((m, k))
            rec(remaining - c, k - 1, m - 1, acc)
            acc.pop()

    # m_i is bounded: C(m, i) <= h forces m <= h + i.
    rec(h, i, h + i, [])
    return solutions


def linear_scan_binomial_expansion(h: int, i: int) -> List[Tuple[int, int]]:
    """The greedy i-binomial expansion of h, each m_k found by stepping
    up from k one at a time while C(m + 1, k) still fits."""
    parts: List[Tuple[int, int]] = []
    rem, k = h, i
    while rem > 0:
        m = k
        while comb(m + 1, k) <= rem:
            m += 1
        parts.append((m, k))
        rem -= comb(m, k)
        k -= 1
    return parts


# ---------------------------------------------------------------------------
# Sequence classes from their textbook definitions
#
# No shortcut of the package is taken: every step is checked against a
# bound expanded by the linear scan, unimodality has its own scan, and
# SI is checked clause by clause.


def macaulay_bound_by_scan(h: int, i: int) -> int:
    return sum(comb(m + 1, k + 1)
               for m, k in linear_scan_binomial_expansion(h, i))


def first_macaulay_violation(h: Sequence[int]):
    """Index of the first entry of the nonnegative sequence h that breaks
    Macaulay's criterion: 0 when h_0 != 1, else the first i + 1 with
    h_{i+1} > h_i^<i> for some i >= 1; None when there is none."""
    if h[0] != 1:
        return 0
    for i in range(1, len(h) - 1):
        if h[i + 1] > macaulay_bound_by_scan(h[i], i):
            return i + 1
    return None


def is_o_sequence_by_definition(h: Sequence[int]) -> bool:
    h = list(h)
    return all(x >= 0 for x in h) and first_macaulay_violation(h) is None


def is_differentiable_by_definition(h: Sequence[int]) -> bool:
    h = list(h)
    delta = [h[0]] + [h[i] - h[i - 1] for i in range(1, len(h))]
    return all(x >= 0 for x in delta) and is_o_sequence_by_definition(delta)


def _is_unimodal(h: Sequence[int]) -> bool:
    i = 0
    while i + 1 < len(h) and h[i] <= h[i + 1]:
        i += 1
    while i + 1 < len(h) and h[i] >= h[i + 1]:
        i += 1
    return i == len(h) - 1


def is_si_by_definition(h: Sequence[int]) -> bool:
    """h, trailing zeros dropped, is symmetric and unimodal, and its first
    half h_0..h_(d//2) is differentiable."""
    h = list(h)
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    d = len(h) - 1
    return (h == h[::-1] and _is_unimodal(h)
            and is_differentiable_by_definition(h[: d // 2 + 1]))


# ---------------------------------------------------------------------------
# Monomial order ideals in <= 3 variables, enumerated as slice chains
#
# A finite order ideal (downset) in N^3 is a chain of 2D Young diagrams
# lambda^(0) >= lambda^(1) >= ... (slice a holds the monomials with
# first exponent a); a cell (row b, col c) of slice a has total degree
# a + b + c.  Enumerating all chains with at most `max_cells` cells and
# collecting the degree-count vectors gives the exact acceptance set
# for sequences with h_1 <= 3.


def _partitions_upto(n_max: int) -> List[Tuple[int, ...]]:
    out = [()]

    def rec(remaining: int, max_part: int, prefix: List[int]):
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            out.append(tuple(prefix))
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n_max, n_max, [])
    return out


def _profile(partition: Tuple[int, ...]) -> Tuple[int, ...]:
    """Counts of cells by diagonal degree b + c."""
    if not partition:
        return ()
    length = max(b + row for b, row in enumerate(partition))
    counts = [0] * length
    for b, row in enumerate(partition):
        for c in range(row):
            counts[b + c] += 1
    return tuple(counts)


def order_ideal_degree_counts(max_cells: int = 25) -> Set[Tuple[int, ...]]:
    """Degree-count vectors of every order ideal in <= 3 variables."""
    partitions = [p for p in _partitions_upto(max_cells) if p]
    index: Dict[Tuple[int, ...], int] = {p: i for i, p in enumerate(partitions)}
    sizes = [sum(p) for p in partitions]
    profiles = [_profile(p) for p in partitions]

    # Conjugation (transposing every slice) preserves containment, sizes
    # and degree profiles, so a state and its conjugate reach exactly the
    # same count vectors; canonicalizing halves the lattice walk.
    def conjugate(p: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sum(1 for row in p if row > j) for j in range(p[0]))

    canon = [min(i, index[conjugate(p)]) for i, p in enumerate(partitions)]

    # Trie over partitions: appending one more (weakly smaller) row to
    # shape number `pid` lands on child[pid][row].  Lets the subpartition
    # walk track ids directly instead of rebuilding tuples for lookup.
    root_child: Dict[int, int] = {}
    child: List[Dict[int, int]] = [{} for _ in partitions]
    for i, p in enumerate(partitions):
        if len(p) == 1:
            root_child[p[0]] = i
        else:
            child[index[p[:-1]]][p[-1]] = i

    # Subpartition ids of each shape, bucketed by size so the walk can
    # stop at its cell budget.
    sub_cache: Dict[int, List[List[int]]] = {}

    def subs(pid: int) -> List[List[int]]:
        cached = sub_cache.get(pid)
        if cached is not None:
            return cached
        shape = partitions[pid]
        n_rows = len(shape)
        buckets: List[List[int]] = [[] for _ in range(sizes[pid] + 1)]

        def rec(row: int, max_part: int, node: int, total: int):
            kids = child[node]
            top = shape[row] if shape[row] < max_part else max_part
            deeper = row + 1
            for part in range(top, 0, -1):
                cid = kids[part]
                buckets[total + part].append(cid)
                if deeper < n_rows:
                    rec(deeper, part, cid, total + part)

        for part in range(shape[0], 0, -1):
            cid = root_child[part]
            buckets[part].append(cid)
            if n_rows > 1:
                rec(1, part, cid, part)
        sub_cache[pid] = buckets
        return buckets

    # Walk the slice chains level by level.  Two partial chains with the
    # same top slice and the same cumulative count vector extend in
    # exactly the same ways, so the frontier keeps one representative;
    # this collapses the ~1.9M raw chains to a few thousand states.
    results: Set[Tuple[int, ...]] = set()
    frontier: Set[Tuple[int, Tuple[int, ...]]] = set()
    for pid, size in enumerate(sizes):
        if size <= max_cells:
            vec = profiles[pid]
            results.add(vec)
            if size < max_cells and canon[pid] == pid:
                frontier.add((pid, vec))

    level = 1
    while frontier:
        deeper: Set[Tuple[int, Tuple[int, ...]]] = set()
        for pid, vec in frontier:
            used = sum(vec)
            buckets = subs(pid)
            limit = min(max_cells - used, len(buckets) - 1)
            for size in range(1, limit + 1):
                grows = used + size < max_cells
                for mid in buckets[size]:
                    prof = profiles[mid]
                    merged = list(vec) + [0] * (level + len(prof) - len(vec))
                    for k, v in enumerate(prof):
                        merged[level + k] += v
                    tv = tuple(merged)
                    results.add(tv)
                    if grows:
                        deeper.add((canon[mid], tv))
        frontier = deeper
        level += 1
    return results


def lex_order_ideal_by_search(delta: Sequence[int],
                              n_vars: int) -> Optional[FrozenSet[Tuple[int, ...]]]:
    """The order ideal with delta(i) monomials of degree i, searched for
    degree by degree: walk degree i in ascending lex (x_0 > x_1 > ...,
    so tuple order), keep each monomial whose every predecessor was kept
    in degree i - 1, and stop at delta(i); None when a degree falls
    short.  The monomials come from itertools.product, not the package's
    tables."""
    chosen = {(0,) * n_vars}
    prev = set(chosen)
    for i, need in enumerate(delta[1:], 1):
        level = set()
        for m in product(range(i + 1), repeat=n_vars):  # ascending lex
            if len(level) == need:
                break
            if sum(m) == i and all(m[:v] + (m[v] - 1,) + m[v + 1:] in prev
                                   for v in range(n_vars) if m[v]):
                level.add(m)
        if len(level) < need:
            return None
        chosen |= level
        prev = level
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Geometry oracles


def collinear_triples(points: Sequence[Sequence[Fraction]]) -> List[Tuple[int, int, int]]:
    """All collinear triples among plane points, by 3x3 determinants."""
    out = []
    for i, j, k in combinations(range(len(points)), 3):
        p, q, r = points[i], points[j], points[k]
        det = (p[0] * (q[1] * r[2] - q[2] * r[1])
               - p[1] * (q[0] * r[2] - q[2] * r[0])
               + p[2] * (q[0] * r[1] - q[1] * r[0]))
        if det == 0:
            out.append((i, j, k))
    return out


# ---------------------------------------------------------------------------
# Polynomial oracles


def poly_times_linear(poly_terms: Dict[Tuple[int, ...], Fraction],
                      coeffs: Sequence[Fraction]) -> Dict[Tuple[int, ...], Fraction]:
    """Multiply a term dict by a linear form, straightforwardly."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for exp, c in poly_terms.items():
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            bumped = list(exp)
            bumped[i] += 1
            key = tuple(bumped)
            out[key] = out.get(key, Fraction(0)) + c * a
    return {k: v for k, v in out.items() if v != 0}


def degree_then_descending_lex(m: Tuple[int, ...]):
    """Sort key of the term order: total degree, then descending lex
    (negated exponents sort lex-descending)."""
    return (sum(m), tuple(-e for e in m))


def linear_power_terms(coeffs: Sequence[Fraction], d: int) -> Dict[Tuple[int, ...], Fraction]:
    """L^d by repeated multiplication, no multinomial shortcut."""
    terms = {tuple([0] * len(coeffs)): Fraction(1)}
    for _ in range(d):
        terms = poly_times_linear(terms, coeffs)
    return terms


def differentiate(terms: Dict[Tuple[int, ...], Fraction],
                  var: int) -> Dict[Tuple[int, ...], Fraction]:
    """d/dX_var on a term dict."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for exp, c in terms.items():
        if exp[var] == 0:
            continue
        lowered = list(exp)
        lowered[var] -= 1
        out[tuple(lowered)] = out.get(tuple(lowered), Fraction(0)) + c * exp[var]
    return out


def apply_monomial(terms: Dict[Tuple[int, ...], Fraction],
                   mono: Tuple[int, ...]) -> Dict[Tuple[int, ...], Fraction]:
    """Iterated partial derivatives, one variable at a time."""
    for var, e in enumerate(mono):
        for _ in range(e):
            terms = differentiate(terms, var)
    return terms


def linear_power_contraction(coeffs: Sequence[Fraction], k: int,
                             terms: Dict[Tuple[int, ...], Fraction]
                             ) -> Dict[Tuple[int, ...], Fraction]:
    """ell^k o F as k rounds of sum_i a_i d/dX_i, all in Fractions."""
    for _ in range(k):
        out: Dict[Tuple[int, ...], Fraction] = {}
        for var, a in enumerate(coeffs):
            for exp, c in differentiate(terms, var).items():
                out[exp] = out.get(exp, Fraction(0)) + Fraction(a) * c
        terms = {e: c for e, c in out.items() if c != 0}
    return terms


def catalecticant(f: Poly, j: int, d: int,
                  rows: Optional[Sequence[Tuple[int, ...]]] = None,
                  cols: Optional[Sequence[Tuple[int, ...]]] = None) -> Mat:
    """Cat^j(F) by its definition, or its block over rows x cols.

    Rows run over degree-j monomials, columns over degree-(d-j) ones, by
    default all of them in descending lex; entry (u, v) = (x^u x^v) o F
    = F_(u+v) (u+v)!, with (u+v)! the product of the factorials of the
    exponents of u + v.  Nothing is packed and nothing is checked.
    """
    if rows is None:
        rows = monomials_of_degree(f.n_vars, j)
    if cols is None:
        cols = monomials_of_degree(f.n_vars, d - j)

    def entry(u, v):
        w = tuple(a + b for a, b in zip(u, v))
        return f.terms.get(w, 0) * prod(map(factorial, w))

    return Mat([[entry(u, v) for v in cols] for u in rows])


def exact_multiplication_rank(f: Poly, i: int, k: int, ell, d: int) -> int:
    """Rank of x ell^k: A_i -> A_(i+k) as the exact rank of Cat^i(ell^k o F).

    ell^k o F by repeated first-order derivatives, then the exact Bareiss
    rank (itself checked against gauss_rank) of the whole catalecticant:
    no basis block, and no ceiling from the Hilbert function.
    """
    g = Poly(f.n_vars, RING_R, linear_power_contraction(ell.coeffs, k, f.terms))
    return linalg.rank(catalecticant(g, i, d - k))


def is_homogeneous(f: Poly) -> bool:
    """All terms of f share one total degree (the zero polynomial passes)."""
    return len({sum(m) for m in f.terms}) <= 1


def linear_form_poly(ell) -> Poly:
    """sum a_i x_i as a Poly in S."""
    n = ell.n_vars
    return Poly(n, RING_S, {tuple(int(k == i) for k in range(n)): c
                            for i, c in enumerate(ell.coeffs)})


def evaluate(f: Poly, point: Sequence[Fraction]) -> Fraction:
    """f at a coordinate tuple, term by term."""
    return sum(c * prod(p ** e for e, p in zip(m, point))
               for m, c in f.terms.items())


def _falling_product(e_top: Tuple[int, ...], e_low: Tuple[int, ...]) -> int:
    """prod_k e_top_k * (e_top_k - 1) * ... over e_low_k factors."""
    out = 1
    for t, l in zip(e_top, e_low):
        for step in range(l):
            out *= t - step
    return out


def scale(f: Poly, c) -> Poly:
    """c f, term by term."""
    return Poly(f.n_vars, f.ring, {m: v * c for m, v in f.terms.items()})


def contract_monomial(e: Tuple[int, ...], f: Poly) -> Poly:
    """x^e o f: the mixed partial d^|e|/dX^e, by falling products."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for ef, cf in f.terms.items():
        if any(x < y for x, y in zip(ef, e)):
            continue
        m = tuple(x - y for x, y in zip(ef, e))
        coef = cf * _falling_product(ef, e)
        if coef:
            out[m] = out.get(m, 0) + coef
    return Poly(f.n_vars, RING_R, out)


def contract(a: Poly, f: Poly) -> Poly:
    """Apply the differential operator a in S to f in R, bilinearly."""
    if a.ring != RING_S or f.ring != RING_R:
        raise RingMismatchError(f"contract needs S operand and R target, got {a.ring}, {f.ring}")
    if a.n_vars != f.n_vars:
        raise RingMismatchError(f"variable count mismatch: {a.n_vars} vs {f.n_vars}")
    return sum((scale(contract_monomial(e, f), c) for e, c in a.terms.items()),
               Poly(f.n_vars, RING_R))


def hessian_by_contraction(f: Poly, frame: Sequence[Tuple[int, ...]],
                           point: Sequence[Fraction]) -> List[List[Fraction]]:
    """Hess^j(F)(P) entry by entry: ((b_u b_v) o F) evaluated at P."""
    return [[evaluate(contract_monomial(tuple(x + y for x, y in zip(u, v)), f), point)
             for v in frame] for u in frame]


# ---------------------------------------------------------------------------
# Zero-forcing by sampling


def sampled_zero_forcing(x, d: int, j: int, frame: Sequence[Tuple[int, ...]],
                         i: int, rng,
                         trials: int) -> int:
    """How many of `trials` draws with weight i zeroed leave det Hess^j != 0.

    Each draw takes fresh nonzero weights over the PointSet x, sets weight
    i to 0, samples ell and eliminates the Hessian that point_gram sums
    from rank-one pieces: the sampled counterpart of the rank proof in
    verify_tail_nonvanishing.
    """
    nonzero = 0
    k = d - 2 * j
    for _ in range(trials):
        trial_alphas = [_nonzero_int(rng) for _ in range(x.size)]
        trial_alphas[i] = 0
        ell = sample_linear_form(3, rng)
        val = linalg.det(Mat(point_gram(x.points, trial_alphas, k, ell.coeffs,
                                        frame, factorial(d) // factorial(k))))
        if val != 0:
            nonzero += 1
    return nonzero


def first_unforced_weight(points: Sequence[Sequence[Fraction]],
                          frames: Dict[int, Sequence[Tuple[int, ...]]],
                          off: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The per-(weight, degree) zero-forcing loop, as the tail verifier
    once ran it: for each off-curve index i, then each degree j of
    `frames` in order, the frame (a basis of A_j) evaluated term by term
    at every point but P_i; the first (i, j) where that keeps full rank,
    so zeroing weight i leaves det Hess^j alive, or None."""
    for i in off:
        rest = [p for q, p in enumerate(points) if q != i]
        for j, frame in frames.items():
            v = [[evaluate(Poly(len(p), RING_R, {m: 1}), p) for m in frame]
                 for p in rest]
            if gauss_rank(v) == len(frame):
                return i, j
    return None
