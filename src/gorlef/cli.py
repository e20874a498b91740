"""Command-line interface emitting one JSON document per run.

Exit codes: 0 when the requested check or construction succeeds, 1 when
a randomized search exhausts its budget or a verified property fails,
2 for malformed input, bad flags included, 3 for an internal bug; each
GorlefError class has its exit_code (HessianRankMismatchError is the one
bug it names).  Any other exception is an internal error: exit 3 with an
"InternalError" JSON document.  An unwritable --out path is malformed
input: one JSON error on stdout, exit 2.  All randomness flows from --seed
through named substreams, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import reprlib
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .construct import construct_slp_algebra
from .errors import GorlefError
from .gorenstein import GorensteinAlgebra, check_slp, check_wlp
from .hvector import (HVector, first_difference, hbar, is_O_sequence, is_SI,
                      is_differentiable, parse_list)
from .apolar import Poly
from .linalg import exact, exact_str
from .points import (PointSet, check_rnc, curve_params, davis_hint,
                     gen_collinear, gen_distraction, gen_generic, gen_rnc,
                     gen_two_lines, lex_order_ideal)
from .theorems import (make_tail_config, verify_conic_slp,
                       verify_corollary_families, verify_prop_s_minus,
                       verify_rnc_slp, verify_tail_nonvanishing)

_escape = json.encoder.encode_basestring_ascii  # json's own C escaper
_int = int.__repr__
_CONSTANTS = {True: "true", False: "false", None: "null"}
_STR, _INT = {str}, {int}


def _key(k) -> str:
    """A dict key as json writes it: str, or an int, float, bool or None
    in its JSON spelling, quoted; json's TypeError for any other."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + json.dumps(k) + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _dumps(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=2), built by joins; nl is the newline and the
    indent of the line that o starts on.

    The exact scalar types go first, and a list of only str or only int
    is one join over a map.  Containers, subclasses included, are found
    by isinstance; floats and other scalars go through json.dumps, which
    raises json's TypeError for anything it cannot write.
    """
    t = type(o)
    if t is str:
        return _escape(o)
    if t is int:
        return _int(o)
    if t is bool or o is None:
        return _CONSTANTS[o]
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = ("," + inner).join(
            [f"{_key(k)}: {_dumps(v, inner)}" for k, v in o.items()])
        return f"{{{inner}{items}{nl}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        types = set(map(type, o))
        items = ("," + inner).join(map(_escape, o) if types == _STR else
                                   map(_int, o) if types == _INT else
                                   [_dumps(v, inner) for v in o])
        return f"[{inner}{items}{nl}]"
    return json.dumps(o)


def _emit(doc: dict, out: Optional[str]) -> None:
    """Write the document to `out`, then to stdout: a bad path prints nothing.

    The text is json.dumps(doc, indent=2) byte for byte, plus a newline,
    but _dumps builds it by joins: on CPython 3.11 the stdlib's indented
    encoder is pure Python (its C encoder runs only without an indent),
    and it was the largest single stage of a small construct run.
    """
    text = _dumps(doc) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _substream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _load_json_arg(value: str) -> dict:
    """Inline JSON if the argument looks like JSON, else a file path;
    a number with a fraction or exponent stays text, so 0.1 is 1/10."""
    stripped = value.strip()
    try:
        doc = json.loads(stripped if stripped.startswith("{")
                         else Path(value).read_text(), parse_float=str)
    except OSError as exc:
        raise ValueError(f"cannot read {reprlib.repr(value)}: {exc.strerror}"
                         ) from None
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object in {reprlib.repr(value)}")
    return doc


def _point_set_doc(x: PointSet) -> dict:
    doc = x.to_json_dict()
    t = x.tau()
    h = list(x.hilbert_vector(t))
    doc["hilbert"] = h
    doc["delta"] = first_difference(h)
    doc["tau"] = t
    doc["size"] = x.size
    if x.n == 2:
        hint = davis_hint(x)
        doc["davis_hint"] = (None if hint is None else {
            "r": hint.r,
            "j": hint.j,
            "complement_delta": list(hint.complement_delta),
            "description": hint.describe(),
        })
    return doc


# ---------------------------------------------------------------------------
# Subcommand handlers


def _run_seq(args) -> Tuple[dict, int]:
    hv = HVector.parse(args.sequence)
    doc = {
        "h": list(hv),
        "is_O_sequence": is_O_sequence(hv),
        "is_differentiable": is_differentiable(hv),
        "is_SI": is_SI(hv),
    }
    if doc["is_SI"]:
        bar = hbar(hv)
        doc["hbar"] = {
            "t": bar.t,
            "s": bar.s,
            "values": list(bar.values),
            "delta": list(bar.delta()),
        }
    else:
        doc["hbar"] = None
    return doc, 0


def _run_construct(args) -> Tuple[dict, int]:
    rng = _substream(args.seed, "construct")
    result = construct_slp_algebra(HVector.parse(args.h), rng,
                                   attempts=args.attempts, seed=args.seed)
    return result.to_json_dict(), 0


def _run_analyze(args) -> Tuple[dict, int]:
    rng = _substream(args.seed, "analyze")
    doc: dict = {}
    if args.poly is not None:
        f = Poly.from_json_dict(_load_json_arg(args.poly))
        doc["input"] = f.to_json_dict()
        algebra = GorensteinAlgebra(f, args.d)
    else:
        if args.points is None or args.alphas is None or args.d is None:
            raise ValueError("need --poly, or --points with --alphas and --d")
        x = PointSet.from_json_dict(_load_json_arg(args.points))
        alphas = parse_list(args.alphas, exact)
        algebra = GorensteinAlgebra.of_points(x, alphas, args.d)
        doc["input"] = algebra.power_sum_json()
    doc["d"] = algebra.d
    doc["hilbert"] = list(algebra.hilbert)
    doc["codimension"] = algebra.codimension()
    slp = check_slp(algebra, rng, attempts=args.attempts, seed=args.seed)
    wlp = check_wlp(algebra, rng, attempts=args.attempts, seed=args.seed)
    doc["slp"] = slp.to_json_dict()
    doc["wlp"] = wlp.to_json_dict()
    return doc, 0 if slp.verdict or wlp.verdict or not args.expect_slp else 1


# The flags without a default that each points kind and verify theorem reads
_NEEDED_FLAGS = {
    "points": {"generic": ("n", "s"), "collinear": ("n", "s"),
               "two-lines": ("s1", "s2"), "rnc": ("n", "s"),
               "distraction": ("delta",)},
    "verify": {"rnc": ("s",), "conic": ("s1", "s2"),
               "tails": ("kind", "tau"), "s-minus": ("s", "d", "j")},
}


def _require_flags(args, name: str) -> None:
    """ValueError naming every flag that `name` needs, when one is missing."""
    needs = _NEEDED_FLAGS[args.command].get(name, ())
    if any(getattr(args, flag) is None for flag in needs):
        *head, last = [f"--{flag}" for flag in needs]
        raise ValueError(f"{name} needs "
                         + (", ".join(head) + " and " if head else "") + last)


def _run_points(args) -> Tuple[dict, int]:
    rng = _substream(args.seed, "points")
    kind = args.kind
    _require_flags(args, kind)
    if kind == "generic":
        x = gen_generic(args.n, args.s, rng)
    elif kind == "collinear":
        x = gen_collinear(args.n, args.s)
    elif kind == "two-lines":
        x = gen_two_lines(args.s1, args.s2, args.share)
    elif kind == "rnc":
        check_rnc(args.n, args.s)
        params = (parse_list(args.params) if args.params is not None
                  else curve_params(args.s, rng))
        x = gen_rnc(args.n, args.s, params)
    else:  # distraction
        delta = parse_list(args.delta)
        n_vars = args.n if args.n is not None else (
            delta[1] if len(delta) > 1 else 1)
        ideal = lex_order_ideal(delta, n_vars)
        x = gen_distraction(ideal)
    doc = {"kind": kind}
    doc.update(_point_set_doc(x))
    if kind == "distraction":
        doc["order_ideal"] = [list(m) for m in ideal.sorted_monomials()]
    return doc, 0


def _run_verify(args) -> Tuple[dict, int]:
    rng = _substream(args.seed, f"verify:{args.theorem}")
    t = args.theorem
    _require_flags(args, t)
    if t == "rnc":
        cert, d = verify_rnc_slp(args.n, args.s, args.d, rng,
                                 attempts=args.attempts)
        doc = {"theorem": "rnc", "n": args.n, "s": args.s, "d": d,
               "verdict": True, "certificate": cert.to_json_dict()}
    elif t == "conic":
        report = verify_conic_slp(args.s1, args.s2, args.share, args.d, rng,
                                  attempts=args.attempts,
                                  eval_points=args.eval_points)
        doc = {"theorem": "conic", "s1": args.s1, "s2": args.s2,
               "share": args.share, "d": report.d, "tau": report.tau,
               "verdict": True, "display_match": report.display_match,
               "decomposition_checks": report.decomposition_checks,
               "certificate": report.certificate.to_json_dict()}
    elif t == "tails":
        x = make_tail_config(args.kind, args.tau, args.off, rng)
        report = verify_tail_nonvanishing(args.kind, x, args.d, rng,
                                          trials=args.trials)
        doc = {"theorem": "tails", "kind": args.kind, "d": report.d,
               "k": report.k, "tau": report.tau, "verdict": True,
               "points": x.to_json_dict()["points"],
               "curve_indices": list(report.curve_indices),
               "off_indices": list(report.off_indices),
               "witnesses": [{"j": j,
                              "ell": [exact_str(c) for c in ell.coeffs],
                              "det": exact_str(val)}
                             for j, (ell, val) in sorted(report.witnesses.items())],
               "zero_forcing_checks": report.zero_forcing_checks}
    elif t == "families":
        ms = parse_list(args.m) if args.m is not None else [2, 3, 4]
        reports = verify_corollary_families(ms, rng, attempts=args.attempts)
        doc = {"theorem": "families", "verdict": True,
               "results": [{"name": r.name, "m": r.m,
                            "delta": list(r.delta), "d": r.d,
                            "size": r.x.size,
                            "verdict": r.certificate.verdict}
                           for r in reports]}
    else:  # s-minus
        x = gen_generic(args.n, args.s, rng)
        report = verify_prop_s_minus(x, args.d, args.j, args.kind_num, rng,
                                     trials=args.trials)
        doc = {"theorem": "s-minus", "kind": args.kind_num, "j": args.j,
               "d": args.d, "verdict": True,
               "ell": [exact_str(c) for c in report.ell.coeffs],
               "det": exact_str(report.det)}
    return doc, 0


# ---------------------------------------------------------------------------
# Parser


_SHARED_DEFAULTS = {"seed": 0, "attempts": 50, "trials": 20}
_SHARED_HELP = {"attempts": "Lefschetz draws; uncapped, work you ask for",
                "trials": "witness draws; uncapped, work you ask for"}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """The shared flags that p's handler reads, then --out, read by main."""
    for flag in flags:
        p.add_argument(f"--{flag}", type=int, default=_SHARED_DEFAULTS[flag],
                       help=_SHARED_HELP.get(flag))
    p.add_argument("--out", default=None, help="also write the JSON here")


class _Parser(argparse.ArgumentParser):
    """A bad flag or value is malformed input like any other: exit 2 with
    a JSON error on stdout, not argparse's usage on stderr."""

    def error(self, message):
        raise ValueError(message)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once, on the first main call; main looks up the handlers."""
    parser = _Parser(
        prog="gorlef",
        description="Exact Lefschetz-property toolkit over the rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="classify finite integer sequences")
    seq_sub = p_seq.add_subparsers(dest="seq_command", required=True)
    p_check = seq_sub.add_parser("check", help="O-sequence / SI classification")
    p_check.add_argument("sequence", help="comma-separated, e.g. 1,3,5,5,3,1")
    _add_common(p_check)

    p_con = sub.add_parser("construct",
                           help="realize an SI-sequence by an SLP algebra")
    p_con.add_argument("--h", dest="h", required=True,
                       help="target Hilbert function, comma-separated")
    _add_common(p_con, "seed", "attempts")

    p_an = sub.add_parser("analyze",
                          help="Hilbert function and Lefschetz certificates")
    p_an.add_argument("--poly", default=None,
                      help="dual generator as JSON (inline or a file path)")
    p_an.add_argument("--points", default=None,
                      help="point set as JSON (inline or a file path)")
    p_an.add_argument("--alphas", default=None,
                      help="comma-separated weights for --points")
    p_an.add_argument("--d", type=int, default=None)
    p_an.add_argument("--expect-slp", action="store_true",
                      help="exit 1 when neither Lefschetz check verifies")
    _add_common(p_an, "seed", "attempts")

    p_pts = sub.add_parser("points", help="point-set generators")
    pts_sub = p_pts.add_subparsers(dest="points_command", required=True)
    p_gen = pts_sub.add_parser("gen")
    p_gen.add_argument("--kind", required=True,
                       choices=["generic", "collinear", "two-lines", "rnc",
                                "distraction"])
    p_gen.add_argument("--n", type=int, default=None,
                       help="ambient projective dimension")
    p_gen.add_argument("--s", type=int, default=None, help="point count")
    p_gen.add_argument("--s1", type=int, default=None)
    p_gen.add_argument("--s2", type=int, default=None)
    p_gen.add_argument("--share", action="store_true",
                       help="two-lines: include the intersection point")
    p_gen.add_argument("--params", default=None,
                       help="rnc: comma-separated curve parameters")
    p_gen.add_argument("--delta", default=None,
                       help="distraction: target first difference")
    _add_common(p_gen, "seed")

    p_ver = sub.add_parser("verify", help="run a structural verifier")
    p_ver.add_argument("--theorem", required=True,
                       choices=["rnc", "conic", "tails", "families",
                                "s-minus"])
    p_ver.add_argument("--n", type=int, default=2)
    p_ver.add_argument("--s", type=int, default=None)
    p_ver.add_argument("--s1", type=int, default=None)
    p_ver.add_argument("--s2", type=int, default=None)
    p_ver.add_argument("--share", action="store_true")
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--j", type=int, default=None)
    p_ver.add_argument("--kind", default=None, choices=["line", "conic"],
                       help="tails: curve type")
    p_ver.add_argument("--kind-num", type=int, default=1, choices=[1, 2],
                       help="s-minus: defect 1 or 2")
    p_ver.add_argument("--tau", type=int, default=None, help="tails: target tau")
    p_ver.add_argument("--off", type=int, default=1,
                       help="tails: off-curve point count")
    p_ver.add_argument("--m", default=None,
                       help="families: comma-separated tail lengths")
    p_ver.add_argument("--eval-points", type=int, default=20,
                       help="conic: evaluation points per degree that the "
                            "exact proof covers; at least 1, costs nothing")
    _add_common(p_ver, *_SHARED_DEFAULTS)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        doc, code = {"seq": _run_seq, "construct": _run_construct,
                     "analyze": _run_analyze, "points": _run_points,
                     "verify": _run_verify}[args.command](args)
    except SystemExit:  # --help, the one exit argparse still takes
        return 0
    except (GorlefError, ValueError) as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if getattr(exc, "diagnostics", None) is not None:
            doc["error"]["diagnostics"] = exc.diagnostics
        code = getattr(exc, "exit_code", 2)
    except Exception as exc:  # a bug, not bad input: stdout only, exit 3
        doc = {"error": {"type": "InternalError",
                         "message": f"{type(exc).__name__}: {exc}"}}
        code, out = 3, None
    try:
        _emit(doc, out)
    except OSError as exc:  # an unwritable --out is malformed input
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return 2
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
