"""The benchmark's op universe, its seeded draws and its output checks.

An op is one `gorlef` CLI call, identified by its argv.  Every op a draw
can produce comes from a fixed, finite universe (each op carries its own
`--seed`), so `reference.json` can hold the SHA-256 of the expected stdout
of every op, whatever the workload seed.  The workload seed only picks
which ops a pass runs and in what order.

Import this module only after `src/` is on `sys.path`: the SI corpus is
enumerated with gorlef's own `is_SI`, which is part of the set-up cost.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from gorlef.hvector import is_SI

Argv = Tuple[str, ...]

# Acceptance criterion 03: every SI-sequence with h1 <= 4, socle degree <= 8
# and peak <= 15 (229 sequences).
SI_CORPUS_LIMITS = {"h1_max": 4, "d_max": 8, "peak_max": 15}

# Large enough that elimination on catalecticants of up to 126 x 126
# dominates; the CLI and h-vector layers cost next to nothing here.
LARGE_CASES = ("1,6,21,30,30,30,21,6,1", "1,5,12,20,20,12,5,1",
               "1,4,10,15,15,15,10,4,1")

# Acceptance criterion 09: two-line configurations.
CONIC_GRID = tuple((s1, s2, share) for s1 in range(2, 6)
                   for s2 in range(2, 6) for share in (False, True))

# Acceptance criterion 10: (kind, tau, off) tail configurations.
TAIL_GRID = (("conic", 2, 0), ("conic", 3, 0), ("conic", 4, 0),
             ("conic", 3, 1), ("conic", 4, 1), ("conic", 4, 2),
             ("conic", 4, 3), ("line", 2, 1), ("line", 3, 1),
             ("line", 3, 2), ("line", 3, 3), ("line", 4, 1),
             ("line", 4, 2), ("line", 4, 3))
TAIL_TRIALS = 30

# Ops per pass.  A draw takes one op from each of this many strata of the
# cost-ordered universe, so passes of different seeds carry close to the
# same amount of work.
SI_DRAW = 32
CONIC_DRAW = 8


def enumerate_si_corpus(h1_max: int, d_max: int,
                        peak_max: int) -> List[Tuple[int, ...]]:
    """Every SI-sequence within the limits, in criterion 03's order."""
    corpus = []
    for d in range(d_max + 1):
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


def _csv(h: Sequence[int]) -> str:
    return ",".join(str(v) for v in h)


def si_ops() -> List[Argv]:
    """One `construct` per corpus entry, seeded by its corpus index."""
    return [("construct", "--h", _csv(h), "--seed", str(idx))
            for idx, h in enumerate(enumerate_si_corpus(**SI_CORPUS_LIMITS))]


def large_ops() -> List[Argv]:
    return [("construct", "--h", h, "--seed", "0") for h in LARGE_CASES]


def conic_ops() -> List[Argv]:
    return [("verify", "--theorem", "conic", "--s1", str(s1), "--s2", str(s2))
            + (("--share",) if share else ()) + ("--seed", str(idx))
            for idx, (s1, s2, share) in enumerate(CONIC_GRID)]


def tail_ops() -> List[Argv]:
    return [("verify", "--theorem", "tails", "--kind", kind, "--tau", str(tau),
             "--off", str(off), "--trials", str(TAIL_TRIALS), "--seed", str(idx))
            for idx, (kind, tau, off) in enumerate(TAIL_GRID)]


def universe() -> List[Argv]:
    """Every op any workload can draw; `reference.json` covers exactly these."""
    return si_ops() + large_ops() + conic_ops() + tail_ops()


def op_key(argv: Argv) -> str:
    return " ".join(argv)


def _stratified(rng: random.Random, ops: List[Argv], cost_ms: Dict[str, float],
                k: int) -> List[Argv]:
    """One op from each of k equal-count strata of the cost-ordered ops.

    Costs are the reference latencies frozen in `reference.json`, so the
    strata, and therefore the draw for a seed, never change.
    """
    ordered = sorted(ops, key=lambda a: (cost_ms[op_key(a)], op_key(a)))
    n = len(ordered)
    return [ordered[rng.randrange(i * n // k, (i + 1) * n // k)]
            for i in range(k)]


def draw(workload: str, seed: int, cost_ms: Dict[str, float]) -> List[Argv]:
    """The op list one pass of `workload` runs, from `seed` alone."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "construct_large":
        # Three fixed cases in a fixed order, so every seed measures the
        # same work.
        return large_ops()
    if workload == "si_corpus":
        ops = _stratified(rng, si_ops(), cost_ms, SI_DRAW)
    elif workload == "verifiers":
        # The tail cells' costs span 200x and one cell takes a third of the
        # grid, so every pass runs all of them.  One conic cell costs twice
        # any other, so every pass runs it too; the other conic cells are
        # drawn.
        conic = sorted(conic_ops(), key=lambda a: (cost_ms[op_key(a)], op_key(a)))
        ops = ([conic[-1]] + _stratified(rng, conic[:-1], cost_ms, CONIC_DRAW - 1)
               + tail_ops())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Output checks


def check_output(argv: Argv, stdout: str) -> List[str]:
    """Structural checks on one op's JSON; returns the problems found."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if argv[0] == "construct":
        return _check_construct(argv, doc)
    theorem = argv[2]
    if theorem == "conic":
        return _check_conic(doc)
    if theorem == "tails":
        return _check_tails(argv, doc)
    return [f"no check for {op_key(argv)}"]


def _check_construct(argv: Argv, doc: dict) -> List[str]:
    problems = []
    h = [int(v) for v in argv[2].split(",")]
    if doc.get("hilbert") != h:
        problems.append(f"hilbert {doc.get('hilbert')} != h {h}")
    cert = doc.get("certificate", {})
    if cert.get("verdict") is not True:
        problems.append("certificate verdict is not true")
    for line in cert.get("degrees", []):
        if line["rank"] != line["required"]:
            problems.append(f"j={line['j']}: rank {line['rank']} != "
                            f"required {line['required']}")
        if line["det"] is not None and Fraction(line["det"]) == 0:
            problems.append(f"j={line['j']}: det is zero")
    if not cert.get("degrees"):
        problems.append("certificate has no degree lines")
    return problems


def _check_conic(doc: dict) -> List[str]:
    problems = []
    if doc.get("verdict") is not True:
        problems.append("verdict is not true")
    if not doc.get("decomposition_checks", 0) > 0:
        problems.append("no decomposition checks ran")
    return problems


def _check_tails(argv: Argv, doc: dict) -> List[str]:
    problems = []
    kind, off, trials = argv[4], int(argv[8]), int(argv[10])
    r = {"line": 1, "conic": 2}[kind]
    k, d, tau = doc.get("k"), doc.get("d"), doc.get("tau")
    if None in (k, d, tau):
        return ["missing k, d or tau"]
    degrees = list(range(k - 1, d // 2 + 1))
    witnesses = doc.get("witnesses", [])
    if sorted(w["j"] for w in witnesses) != degrees:
        problems.append(f"witness degrees != {degrees}")
    if any(Fraction(w["det"]) == 0 for w in witnesses):
        problems.append("a witness det is zero")
    if len(doc.get("off_indices", [])) != off:
        problems.append(f"off-curve count != {off}")
    expected = off * len(degrees) * trials
    if doc.get("zero_forcing_checks") != expected:
        problems.append(f"zero_forcing_checks {doc.get('zero_forcing_checks')}"
                        f" != {expected}")
    if len(doc.get("curve_indices", [])) != r * tau + 1:
        problems.append(f"curve subset size != r*tau+1 = {r * tau + 1}")
    return problems


def load_reference(path) -> Dict[str, dict]:
    """op key -> {"sha256": stdout digest, "ms": latency} at the reference
    commit and the reference host speed."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
