"""Per-layer spans and exact work counters, from outside the program.

`Tracer.install` wraps gorlef's public boundary functions.  Several
modules bind those functions with `from ... import`, so each wrapper is
installed in every gorlef namespace that holds the original object.
Methods and properties are wrapped on their class.  Per-element helpers
(`monomial_eval`, `Fraction` arithmetic, `Poly.__add__`) are not
wrapped; their cost stays in the caller's self time.

A span is (id, name, start, end, covered, parent id, op index).  A
span's self time is its duration minus the time covered by its child
spans and by the instrumentation that ran inside it, so counting work
does not inflate any layer.  A boundary entered again directly inside a
span of the same name (`pivot_rows` calling `pivot_columns`) adds no
second span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# The layers are gorlef's modules; a span name is "<layer>.<boundary>".
LAYERS = ("hvector", "apolar", "linalg", "gorenstein", "points", "construct",
          "theorems", "cli")

ALL = ("si_corpus", "construct_large", "verifiers")
CONSTRUCTS = ("si_corpus", "construct_large")
VERIFIERS = ("verifiers",)


def _count_matrix(tracer, args, result, state):
    """Input shape, entry bit size and integrality of a linalg matrix."""
    m = args[0]
    c = tracer.counts
    c["linalg.cells"] += m.rows * m.cols
    c["linalg.matrices"] += 1
    bits = c["linalg.max_entry_bits"]
    nonint = False
    for row in m.entries:
        for x in row:
            b = x.numerator.bit_length()
            if b > bits:
                bits = b
            if x.denominator != 1:
                nonint = True
                bits = max(bits, x.denominator.bit_length())
    c["linalg.max_entry_bits"] = bits
    c["linalg.nonint_matrices"] += nonint


def _count_terms(tracer, args, result, state):
    tracer.counts["apolar.terms_out"] += len(result.terms)


def _count_catalecticant(tracer, args, result, state):
    tracer.counts["gorenstein.catalecticant.cells"] += result.rows * result.cols


def _count_slp(tracer, args, result, state):
    tracer.counts["gorenstein.slp_attempts"] += result.attempts
    tracer.counts["gorenstein.slp_successes"] += bool(result.verdict)


def _count_evaluation_matrix(tracer, args, result, state):
    tracer.counts["points.evaluation_matrix.cells"] += result.rows * result.cols
    if tracer.stack and tracer.stack[-1][0] == "points.hilbert":
        tracer.counts["points.hilbert.misses"] += 1


def _count_expanded(tracer, args, result, state):
    tracer.counts["construct.expanded.terms"] += len(result.terms)


def _count_construct(tracer, args, result, state):
    tracer.counts["construct.attempts"] += result.attempts_used
    tracer.counts["construct.successes"] += 1


def _calls_of_structured_hessian(tracer, args):
    return tracer.calls["construct.structured_hessian"]


def _count_tails(tracer, args, result, state):
    c = tracer.counts
    det_calls = tracer.calls["construct.structured_hessian"] - state
    c["theorems.zero_forcing_checks"] += result.zero_forcing_checks
    c["theorems.witnesses"] += len(result.witnesses)
    c["theorems.witness_trials"] += det_calls - result.zero_forcing_checks


class Boundary:
    """One wrapped entry point: where it lives and on which workloads it fires."""

    def __init__(self, span: str, module: str, attr: str, fires_on,
                 count: Optional[Callable] = None,
                 pre: Optional[Callable] = None, cls: Optional[str] = None,
                 kind: str = "function"):
        self.span, self.module, self.attr = span, module, attr
        self.fires_on, self.count, self.pre = tuple(fires_on), count, pre
        self.cls, self.kind = cls, kind

    @property
    def qualname(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.attr}"


B = Boundary
BOUNDARIES = (
    B("hvector.parse", "gorlef.hvector", "parse", CONSTRUCTS, cls="HVector",
      kind="classmethod"),
    B("hvector.hbar", "gorlef.hvector", "hbar", CONSTRUCTS),
    B("apolar.contract", "gorlef.apolar", "contract_monomial", VERIFIERS,
      _count_terms),
    B("apolar.contract", "gorlef.apolar", "contract_linear_power", ALL,
      _count_terms),
    B("apolar.power", "gorlef.apolar", "power_of_linear", ALL, _count_terms),
    B("apolar.evaluate", "gorlef.apolar", "evaluate", VERIFIERS, cls="Poly",
      kind="method"),
    B("linalg.rank", "gorlef.linalg", "rank", ALL, _count_matrix),
    B("linalg.pivots", "gorlef.linalg", "pivot_rows", ALL, _count_matrix),
    B("linalg.pivots", "gorlef.linalg", "pivot_columns", ALL, _count_matrix),
    B("linalg.det", "gorlef.linalg", "det", ALL, _count_matrix),
    B("linalg.nullspace", "gorlef.linalg", "nullspace", VERIFIERS,
      _count_matrix),
    B("gorenstein.catalecticant", "gorlef.gorenstein", "catalecticant", ALL,
      _count_catalecticant),
    B("gorenstein.hilbert_function", "gorlef.gorenstein", "hilbert_function",
      ALL),
    B("gorenstein.basis", "gorlef.gorenstein", "basis", ALL),
    B("gorenstein.hessian_at", "gorlef.gorenstein", "hessian_at", VERIFIERS),
    B("gorenstein.multiplication_rank", "gorlef.gorenstein",
      "multiplication_rank", ALL),
    B("gorenstein.check_slp", "gorlef.gorenstein", "check_slp", VERIFIERS,
      _count_slp),
    B("points.hilbert", "gorlef.points", "hilbert", ALL, cls="PointSet",
      kind="method"),
    B("points.evaluation_matrix", "gorlef.points", "evaluation_matrix", ALL,
      _count_evaluation_matrix, cls="PointSet", kind="method"),
    B("points.generate", "gorlef.points", "lex_order_ideal", CONSTRUCTS),
    B("points.generate", "gorlef.points", "gen_distraction", CONSTRUCTS),
    B("points.generate", "gorlef.points", "gen_two_lines", VERIFIERS),
    B("points.curve_search", "gorlef.points", "find_subset_on_curve",
      VERIFIERS),
    B("construct.expanded", "gorlef.construct", "expanded", ALL,
      _count_expanded, cls="StructuredGenerator", kind="cached_property"),
    B("construct.structured_hessian", "gorlef.construct",
      "structured_hessian_det", ALL),
    B("construct.structured_hessian", "gorlef.construct",
      "structured_hessian_at", ALL),
    B("construct.construct", "gorlef.construct", "construct_slp_algebra",
      CONSTRUCTS, _count_construct),
    B("theorems.conic", "gorlef.theorems", "verify_conic_slp", VERIFIERS),
    B("theorems.tails", "gorlef.theorems", "verify_tail_nonvanishing",
      VERIFIERS, _count_tails, pre=_calls_of_structured_hessian),
    B("theorems.tail_config", "gorlef.theorems", "make_tail_config",
      VERIFIERS),
    B("cli.main", "gorlef.cli", "main", ALL),
    B("cli.emit", "gorlef.cli", "_emit", ALL),
)
del B

# Import sites bound with `from ... import` that the wrappers must reach.
REQUIRED_SITES = (
    "gorlef.construct.multiplication_rank", "gorlef.construct.power_of_linear",
    "gorlef.construct.gen_distraction", "gorlef.theorems.hessian_at",
    "gorlef.theorems.structured_hessian_det", "gorlef.theorems.check_slp",
    "gorlef.theorems.find_subset_on_curve",
    "gorlef.gorenstein.contract_monomial",
    "gorlef.gorenstein.contract_linear_power",
    "gorlef.cli.construct_slp_algebra", "gorlef.cli.verify_conic_slp",
    "gorlef.cli.verify_tail_nonvanishing", "gorlef.cli.make_tail_config",
)

SPAN_NAMES = tuple(dict.fromkeys(b.span for b in BOUNDARIES))


def expected_spans(workload: str, missing=()) -> List[str]:
    """Span names the workload must fire, leaving out missing boundaries."""
    return sorted({b.span for b in BOUNDARIES
                   if workload in b.fires_on and b.qualname not in missing})


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.op = -1
        self.next_id = 0
        self._restore: List[Tuple[object, str, object]] = []
        self.sites: List[str] = []
        self.missing: List[str] = []

    def reset(self) -> None:
        self.stack.clear()
        self.spans = []
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = -1
        self.next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        tracer, name, count, pre = self, b.span, b.count, b.pre

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            state = pre(tracer, args) if pre is not None else None
            parent = stack[-1] if stack else None
            rec = [name, tracer.next_id, 0.0]  # name, span id, time covered
            tracer.next_id += 1
            stack.append(rec)
            tracer.calls[name] += 1
            t_in = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = perf_counter()
                stack.pop()
                tracer.spans.append((rec[1], name, t_in, t_end, rec[2],
                                     parent[1] if parent else -1, tracer.op))
                if parent is not None:
                    parent[2] += t_end - t_in
            if count is not None:
                count(tracer, args, result, state)
                if parent is not None:
                    parent[2] += perf_counter() - t_end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary in every gorlef namespace that binds it.

        A boundary whose function no longer exists is skipped and listed
        in `self.missing`.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gorlef" or n.startswith("gorlef."))]
        for b in BOUNDARIES:
            owner = sys.modules.get(b.module)
            if b.cls is not None:
                owner = getattr(owner, b.cls, None)
            if owner is None or b.attr not in vars(owner):
                self.missing.append(b.qualname)
                continue
            if b.cls is None:
                original = getattr(owner, b.attr)
                wrapper = self._wrap(b, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapper)
                            self.sites.append(f"{mod.__name__}.{name}")
                continue
            raw = vars(owner)[b.attr]
            if b.kind == "classmethod":
                new = classmethod(self._wrap(b, raw.__func__))
            elif b.kind == "cached_property":
                new = property(self._wrap_cached(b, raw.fget))
            else:
                new = self._wrap(b, raw)
            self._set(owner, b.attr, new)
            self.sites.append(b.qualname)

    def install_problems(self) -> List[str]:
        problems = [f"boundary no longer exists: {q}" for q in self.missing]
        unreached = sorted(set(REQUIRED_SITES) - set(self.sites))
        if unreached:
            problems.append(f"wrappers not installed at {unreached}")
        return problems

    def _wrap_cached(self, b: Boundary, fget: Callable) -> Callable:
        """A span only when the cached value is actually computed."""
        traced = self._wrap(b, fget)
        slot = "_" + b.attr

        def get(obj):
            value = getattr(obj, slot, None)
            return value if value is not None else traced(obj)

        return get

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for _id, name, start, end, covered, _parent, _op in self.spans:
            out[name] += end - start - covered
        return out
