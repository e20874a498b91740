"""Acceptance gate: thirteen end-to-end criteria, one test per criterion.

Each test prints a single `criterion NN: PASS` line on success (visible
under `pytest -v` as the per-test verdict, and under `-s` as the printed
line).  Every numeric bound here is pinned; do not relax them.
"""

import io
import json
import time
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from gorlef import gorenstein
from gorlef.apolar import LinearFormS, Poly, RING_R
from gorlef.cli import main as cli_main
from gorlef.construct import (hess_coefficient_criterion,
                              hilbert_formula_check)
from gorlef.gorenstein import (GorensteinAlgebra, gram, point_weights,
                               sample_linear_form)
from gorlef.hvector import (HVector, binomial_expand, is_O_sequence, is_SI,
                            macaulay_bound)
from gorlef.linalg import Mat, rank
from gorlef.points import (PointSet, gen_collinear, gen_generic, gen_rnc,
                           gen_two_lines)
from gorlef.theorems import (BlockPair, block_det_identity, make_tail_config,
                             verify_conic_slp, verify_corollary_families,
                             verify_rnc_slp, verify_tail_nonvanishing)

from oracles import (catalecticant, exact_multiplication_rank,
                     exhaustive_binomial_expansions, gauss_rank,
                     order_ideal_degree_counts)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def fr(v):
    return Fraction(v)


# ---------------------------------------------------------------------------
# 1. Macaulay machinery


def test_criterion_01_macaulay_machinery():
    start = time.time()

    # binomial_expand vs exhaustive descending-tuple search, h <= 60, i <= 5;
    # the search must find exactly one admissible expansion (uniqueness).
    for h in range(1, 61):
        for i in range(1, 6):
            solutions = exhaustive_binomial_expansions(h, i)
            assert len(solutions) == 1, (h, i, solutions)
            assert tuple(solutions[0]) == binomial_expand(h, i), (h, i)

    # is_O_sequence accepts exactly the degree-count sequences of order
    # ideals with <= 25 monomials in <= 3 variables.  The realized side is
    # enumerated geometrically (chains of partition slices); the accepted
    # side enumerates positive sequences with h1 <= 3 by prefix pruning.
    realized = order_ideal_degree_counts(25)
    accepted = set()

    def extend(seq, total):
        accepted.add(tuple(seq))
        bound = 3 if len(seq) == 1 else macaulay_bound(seq[-1], len(seq) - 1)
        for nxt in range(1, bound + 1):
            if total + nxt > 25:
                break
            seq.append(nxt)
            extend(seq, total + nxt)
            seq.pop()

    extend([1], 1)
    assert accepted == realized
    assert len(realized) == 3871

    assert is_O_sequence((1, 2, 5)) is False

    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 01: PASS ({elapsed:.1f}s, {len(realized)} sequences)")


# ---------------------------------------------------------------------------
# 2. Rejecting the non-unimodal Gorenstein h-vector


def test_criterion_02_stanley_rejection():
    code, out = run_cli("seq", "check", "1,13,12,13,1")
    doc = json.loads(out)
    assert code == 0
    assert doc["is_SI"] is False
    assert doc["is_O_sequence"] is True  # it is Gorenstein-admissible, not SI
    print("criterion 02: PASS (is_SI=false for 1,13,12,13,1)")


# ---------------------------------------------------------------------------
# 3. Realization round-trip over an enumerated SI corpus


def enumerate_si_corpus(h1_max=4, d_max=8, peak_max=15):
    """Every SI-sequence with h1 <= h1_max, socle degree <= d_max, peak <= peak_max."""
    corpus = []
    for d in range(0, d_max + 1):
        mid = d // 2
        halves = []

        def extend(prefix):
            if len(prefix) == mid + 1:
                halves.append(tuple(prefix))
                return
            cap = h1_max if len(prefix) == 1 else peak_max
            for v in range(prefix[-1] if len(prefix) > 1 else 1, cap + 1):
                extend(prefix + [v])

        extend([1])
        for half in halves:
            full = list(half) + [half[d - i] for i in range(mid + 1, d + 1)]
            if max(full) <= peak_max and is_SI(full):
                corpus.append(tuple(full))
    return corpus


def test_criterion_03_si_realization_round_trip():
    start = time.time()
    corpus = enumerate_si_corpus()
    assert len(corpus) >= 100, f"corpus has only {len(corpus)}"

    for idx, h in enumerate(corpus):
        csv = ",".join(str(v) for v in h)
        code, out = run_cli("construct", "--h", csv, "--seed", str(idx))
        assert code == 0, (h, out)
        doc = json.loads(out)
        assert doc["hilbert"] == list(h), h
        cert = doc["certificate"]
        assert cert["verdict"] is True, h

        # cross-confirm every Hessian-det verdict with an independently
        # recomputed multiplication-map rank at the same ell
        f = Poly.from_json_dict(doc["dual_generator"])
        d = doc["d"]
        ell = LinearFormS([Fraction(c) for c in cert["ell"]])
        for line in cert["degrees"]:
            j = line["j"]
            assert line["rank"] == line["required"] == h[j], (h, line)
            if line["det"] is not None:
                assert Fraction(line["det"]) != 0, (h, line)
            rk = exact_multiplication_rank(f, j, d - 2 * j, ell, d)
            assert rk == h[j], (h, j, rk)

    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"criterion 03: PASS ({len(corpus)} sequences, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Piecewise Hilbert-function formula


def random_point_set(rng):
    n = rng.choice([1, 2, 3])
    s = rng.randint(2, 8)
    kinds = ["generic"]
    if n >= 2:
        kinds += ["collinear", "rnc"]
    if n == 2:
        kinds.append("two-lines")
    kind = rng.choice(kinds)
    if kind == "generic":
        return gen_generic(n, s, rng)
    if kind == "collinear":
        return gen_collinear(n, s)
    if kind == "rnc":
        params = rng.sample(range(-(s + 3), s + 4), s)
        return gen_rnc(n, s, params)
    s1 = rng.randint(1, max(1, s // 2))
    return gen_two_lines(s1, max(1, s - s1), False)


def test_criterion_04_piecewise_hilbert_formula():
    rng = random.Random(40404)
    for trial in range(50):
        x = random_point_set(rng)
        tau = x.tau()
        d = max(1, 2 * tau + rng.choice([-1, 0, 1]))
        alphas = tuple(Fraction(rng.choice([v for v in range(-20, 21) if v]))
                       for _ in range(x.size))
        g = GorensteinAlgebra.of_points(x, alphas, d)
        match, actual, predicted = hilbert_formula_check(g)
        assert match, (trial, x.points, d, actual, predicted)
    print("criterion 04: PASS (50 instances)")


# ---------------------------------------------------------------------------
# 5. Coefficient-extraction criterion, both directions, all subsets


def plane(coords):
    return PointSet([[fr(c) for c in p] for p in coords])


def criterion_05_configs(rng):
    configs = []
    for s in (3, 4, 5, 6):  # generic
        configs.append(gen_generic(2, s, rng))
    # collinear-subset: a line through some of the points, rest generic
    configs.append(plane([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1)]))
    configs.append(plane([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1),
                          (1, 1, 3)]))
    configs.append(plane([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0),
                          (1, 0, 1), (1, 1, 3)]))
    configs.append(plane([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1),
                          (1, 1, 3), (1, 3, 2)]))
    # conic configurations: smooth (rnc in P^2) and singular (two lines)
    configs.append(gen_rnc(2, 5, [0, 1, -1, 2, -2]))
    configs.append(gen_rnc(2, 6, [0, 1, -1, 2, -2, 3]))
    configs.append(gen_two_lines(3, 3, False))
    configs.append(gen_two_lines(2, 3, False))
    configs.append(gen_two_lines(3, 2, True))
    return configs


def test_criterion_05_coefficient_criterion_iff():
    rng = random.Random(50505)
    checked = 0
    for x in criterion_05_configs(rng):
        assert x.n == 2 and x.size <= 6
        tau = x.tau()
        d = 2 * tau
        for j in range(tau):
            size = x.hilbert(j)
            for subset in combinations(range(x.size), size):
                det_route, hilbert_route = hess_coefficient_criterion(
                    x, j, d, subset, rng, trials=30)
                assert det_route == hilbert_route, (x.points, j, subset)
                checked += 1
    assert checked >= 200
    print(f"criterion 05: PASS ({checked} subset verdicts)")


# ---------------------------------------------------------------------------
# 6. Multilinearity of the Hessian determinant in the weights


def test_criterion_06_multilinearity(monkeypatch):
    monkeypatch.setattr(gorenstein, "_COEFF_BOX", 20)
    rng = random.Random(60606)
    for trial in range(50):
        x = random_point_set(rng)
        tau = x.tau()
        d = 2 * tau + rng.choice([0, 1])
        if d == 0:
            d = 2
        j = rng.randint(0, min(tau, d // 2))
        ones = GorensteinAlgebra.of_points(x, (Fraction(1),) * x.size, d)
        frame = GorensteinAlgebra(ones.f, d).basis(j)
        ell = sample_linear_form(x.n + 1, rng)
        k = d - 2 * j
        base = [Fraction(rng.randint(-9, 9)) for _ in range(x.size)]
        for i in range(x.size):
            vals = []
            for shift in (0, 1, 2):
                weights = list(base)
                weights[i] = base[i] + shift
                vals.append(gram(x, frame, point_weights(x, weights, k, ell),
                                 factorial(d) // factorial(k))[1])
            assert vals[2] - 2 * vals[1] + vals[0] == 0, (trial, i)
    print("criterion 06: PASS (50 instances, every weight)")


# ---------------------------------------------------------------------------
# 7. Two-block determinant identity


def test_criterion_07_block_determinant_identity():
    start = time.time()
    rng = random.Random(70707)
    for m in range(1, 6):
        for _ in range(200):
            b = Mat([[fr(rng.randint(-30, 30)) for _ in range(m)]
                     for _ in range(m)])
            c = Mat([[fr(rng.randint(-30, 30)) for _ in range(m)]
                     for _ in range(m)])
            lhs, rhs, equal = block_det_identity(BlockPair(b, c))
            assert equal, (m, b.entries, c.entries, lhs, rhs)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"criterion 07: PASS (1000 instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. Rational normal curve grid


def test_criterion_08_rnc_grid():
    rng = random.Random(80808)
    count = 0
    for n in (2, 3):
        for s in range(3, 9):
            tau = -(-(s - 1) // n)
            for d in (2 * tau, 2 * tau + 1):
                for _ in range(5):
                    cert, _ = verify_rnc_slp(n, s, d, rng)
                    assert cert.verdict is True, (n, s, d)
                    count += 1
    assert count == 120
    print("criterion 08: PASS (120 grid cells, no tension)")


# ---------------------------------------------------------------------------
# 9. Two-line conics with Hessian decomposition


def test_criterion_09_conic_decomposition():
    rng = random.Random(90909)
    count = 0
    for s1 in range(2, 6):
        for s2 in range(2, 6):
            for share in (False, True):
                d = 2 * gen_two_lines(s1, s2, share).tau()
                report = verify_conic_slp(s1, s2, share, d, rng,
                                          eval_points=20)
                assert report.certificate.verdict is True, (s1, s2, share)
                assert report.decomposition_checks > 0
                count += 1
    assert count == 32
    print("criterion 09: PASS (32 instances, decomposition proven per point)")


# ---------------------------------------------------------------------------
# 10. Flat-tail theorems with zero-forcing factorization


TAIL_GRID = {
    # every (tau, off, k) with tau <= 4 and off <= 3 whose Hilbert
    # first-difference actually ends in the required flat run
    "conic": [(2, 0, 1), (3, 0, 1), (4, 0, 1), (3, 1, 3), (4, 1, 3),
              (4, 2, 4), (4, 3, 4)],
    "line": [(2, 1, 2), (3, 1, 2), (3, 2, 3), (3, 3, 3), (4, 1, 2),
             (4, 2, 3), (4, 3, 3)],
}


def test_criterion_10_tail_nonvanishing_and_zero_forcing():
    rng = random.Random(101010)
    for kind, combos in TAIL_GRID.items():
        r = {"line": 1, "conic": 2}[kind]
        for tau, off, expected_k in combos:
            x = make_tail_config(kind, tau, off, rng)
            d = 2 * tau
            report = verify_tail_nonvanishing(kind, x, d, rng, trials=30)
            assert report.k == expected_k, (kind, tau, off, report.k)
            degrees = set(range(report.k - 1, d // 2 + 1))
            assert set(report.witnesses) == degrees
            assert all(val != 0 for _, val in report.witnesses.values())
            assert len(report.curve_indices) == r * tau + 1
            assert len(report.off_indices) == off
            assert report.zero_forcing_checks == off * len(degrees) * 30
    print("criterion 10: PASS (14 tail configurations)")


# ---------------------------------------------------------------------------
# 11. The five flat-difference families


def test_criterion_11_families():
    rng = random.Random(111111)
    reports = verify_corollary_families([2, 3, 4], rng)
    assert len(reports) == 15
    for report in reports:
        assert report.certificate.verdict is True, (report.name, report.m)
    print("criterion 11: PASS (5 families x m in {2,3,4})")


# ---------------------------------------------------------------------------
# 12. Catalecticant rank symmetry


def random_form(rng):
    n_vars = rng.randint(1, 4)
    d = rng.randint(1, 6)
    terms = {}
    for _ in range(rng.randint(2, 6)):
        cuts = sorted(rng.randint(0, d) for _ in range(n_vars - 1))
        exps = []
        prev = 0
        for c in list(cuts) + [d]:
            exps.append(c - prev)
            prev = c
        coef = Fraction(rng.choice([v for v in range(-9, 10) if v]),
                        rng.randint(1, 3))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coef
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        terms = {(d,) + (0,) * (n_vars - 1): Fraction(1)}
    return Poly(n_vars, RING_R, terms), d


def test_criterion_12_catalecticant_rank_symmetry():
    rng = random.Random(121212)
    for trial in range(100):
        f, d = random_form(rng)
        ranks = [rank(catalecticant(f, j, d)) for j in range(d + 1)]
        for j in range(d + 1):
            assert ranks[j] == ranks[d - j], (trial, f.terms, ranks)
        assert list(GorensteinAlgebra(f, d).hilbert) == ranks, (trial, f.terms)
        if trial % 10 == 0:  # independent elimination cross-check
            mat = catalecticant(f, d // 2, d)
            assert rank(mat) == gauss_rank(mat.entries)
    print("criterion 12: PASS (100 random dual generators)")


# ---------------------------------------------------------------------------
# 13. Byte-identical reproducibility


def test_criterion_13_reproducibility():
    first = run_cli("construct", "--h", "1,3,5,5,3,1", "--seed", "42")
    second = run_cli("construct", "--h", "1,3,5,5,3,1", "--seed", "42")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert first[1].encode() == second[1].encode()
    print("criterion 13: PASS (byte-identical JSON)")
