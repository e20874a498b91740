"""gorlef benchmark: time to a certified verdict, end to end and per layer.

    python3 perfbench/run.py --workload si_corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports gorlef from `src/` there.
One closed-loop client drives gorlef in-process through
`gorlef.cli.main(argv)` with stdout captured, one call (op) at a time, so
argparse and JSON emission are counted and interpreter start-up is not.
A pass runs the op list drawn from `--seed`.

With `--trace 0` each pass runs in a fresh process, started when the last
has ended, until the next would end past `--seconds` (at least
MIN_PASSES); times are medians over passes.  Each op and each set-up is
timed against a calibration kernel run beside it (`hostspeed.py`), and the
end-to-end times are seconds at the reference host speed: raw times on the
shared benchmark host swing by up to 2x with other tenants' load.  The raw
times are in the report line.

An op fails when its exit code is not 0, its stdout is not JSON, a
structural check on the JSON fails, or the SHA-256 of its stdout differs
from the one recorded in `reference.json`.  All checks run outside the timed
region.

With `--trace 0` the last line of stdout reports the end-to-end metrics;
with `--trace 1` it reports the per-layer metrics of a traced run, made in
this process, which also runs one untraced pass before the traced passes
and one after them to give the tracing overhead.  The line before it is a
fuller report: run metadata, every metric with its unit, the per-op
latencies, the failure ratio and the per-pass times.  Spans of the first
traced pass are written to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 11   # set-ups in a traced run
CHILD_SETUPS = 3     # set-ups in each pass process of an untraced run
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
# The host-speed kernel each workload is timed against (see hostspeed.py):
# construct_large's catalecticants miss the caches, the others' do not.
PROBE_KERNEL = {"si_corpus": "small", "construct_large": "large",
                "verifiers": "small"}


def add_src_to_path() -> None:
    """Put the checkout's `src/` first on sys.path, or exit if it is missing."""
    if not (SRC / "gorlef" / "__init__.py").is_file():
        print(f"perfbench: no gorlef sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(main, argv):
    """One CLI call with stdout captured: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
    except Exception as exc:  # an uncaught error in gorlef is a failed op
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), perf_counter() - t0


def fresh_setup(workload: str, seed: int, probe: hostspeed.Probe):
    """Import gorlef from scratch and draw one pass's ops; returns the
    CLI module, the workloads module, the reference, the ops and the
    seconds taken, raw and at the reference host speed."""
    for name in [n for n in sys.modules
                 if n in ("gorlef", "workloads") or n.startswith("gorlef.")]:
        del sys.modules[name]

    def setup():
        cli = importlib.import_module("gorlef.cli")
        wl = importlib.import_module("workloads")
        reference = wl.load_reference(REFERENCE)
        ops = wl.draw(workload, seed,
                      {key: ref["ms"] for key, ref in reference.items()})
        return cli, wl, reference, ops

    (cli, wl, reference, ops), seconds, ref_seconds = probe.time(setup)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"gorlef imported from {cli.__file__}, not {SRC}")
    return cli, wl, reference, ops, seconds, ref_seconds


def tail_latency(values):
    """The highest order statistic with at least 10 samples above it.

    Returns (value, percentile) or None when there are too few samples.
    """
    n = len(values)
    if n <= 10:
        return None
    idx = n - 11
    return sorted(values)[idx], 100.0 * (idx + 1) / n


class Runner:
    """Runs passes of one workload and checks every op's output."""

    def __init__(self, cli, wl, ops, reference):
        self.cli, self.wl, self.ops, self.reference = cli, wl, ops, reference
        self.attempted = 0
        self.failures = []  # (op key, problems)
        self.bytes_out = 0

    def run_pass(self, tracer=None, probe=None):
        """Run every op once; returns (wall s, cpu s, per-op seconds,
        reference seconds).  With a probe, op times exclude its kernel
        runs, and reference seconds are the pass at the reference host
        speed; without one they are None."""
        gc.collect()
        results, latencies = [], []
        ref_seconds = 0.0 if probe is not None else None
        c0 = process_time()
        for i, argv in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            if probe is None:
                code, out, seconds = run_op(self.cli.main, argv)
            else:
                (code, out, _), seconds, ref = probe.time(
                    run_op, self.cli.main, argv)
                ref_seconds += ref
            results.append((code, out))
            latencies.append(seconds)
        wall, cpu = sum(latencies), process_time() - c0
        self.bytes_out = 0
        for argv, (code, out) in zip(self.ops, results):
            self.attempted += 1
            self.bytes_out += len(out.encode("utf-8"))
            problems = self.check(argv, code, out)
            if problems:
                self.failures.append((self.wl.op_key(argv), problems))
        return wall, cpu, latencies, ref_seconds

    def check(self, argv, code, out):
        if code != 0:
            return [f"exit code {code}"]
        problems = self.wl.check_output(argv, out)
        ref = self.reference.get(self.wl.op_key(argv))
        if ref is None:
            problems.append("no recorded digest for this op")
        elif digest(out) != ref["sha256"]:
            problems.append("stdout differs from the recorded digest")
        return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setups(workload: str, seed: int, probe: hostspeed.Probe,
                   repeats: int):
    """Set up `repeats` times; returns the raw and reference seconds of
    each and the (cli, wl, reference, ops) of the last."""
    setups, ref_setups = [], []
    probe.install()
    try:
        for _ in range(repeats):
            *loaded, seconds, ref_seconds = fresh_setup(workload, seed, probe)
            setups.append(seconds)
            ref_setups.append(ref_seconds)
    finally:
        probe.uninstall()
    return setups, ref_setups, loaded


def one_pass(workload: str, seed: int) -> int:
    """A pass process of an untraced run: set up CHILD_SETUPS times, run
    one pass, and print what was measured as one JSON line."""
    probe = hostspeed.Probe(PROBE_KERNEL[workload])
    setups, ref_setups, (cli, wl, reference, ops) = measure_setups(
        workload, seed, probe, CHILD_SETUPS)
    runner = Runner(cli, wl, ops, reference)
    probe.install()
    try:
        wall, cpu, latencies, ref = runner.run_pass(probe=probe)
    finally:
        probe.uninstall()
    print(json.dumps({
        "setups": setups, "ref_setups": ref_setups, "wall": wall, "cpu": cpu,
        "ref": ref, "latencies": latencies, "attempted": runner.attempted,
        "failures": runner.failures, "host_speed": probe.host_speed(),
        "probe_samples": len(probe.all), "peak_rss_mib": peak_rss_mib(),
        "ops_per_pass": len(ops)}))
    return 0


def end_to_end(workload: str, seed: int, seconds: float):
    """Passes, each in a fresh process started after the last has ended,
    until the next would end past `seconds` (at least MIN_PASSES).

    One process's memory layout and CPU placement can hold all its times
    some 10% off another's, so a run takes medians over several processes.
    """
    passes = []
    start = perf_counter()
    while (len(passes) < MIN_PASSES
           or perf_counter() - start + passes[-1]["elapsed"] <= seconds):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", "0", "--pass-process"],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: a pass process exited with code "
                             f"{done.returncode}")
        passes.append(json.loads(done.stdout.splitlines()[-1]))
        passes[-1]["elapsed"] = perf_counter() - t0

    def column(key):
        return [x for p in passes for x in
                (p[key] if isinstance(p[key], list) else [p[key]])]

    lats = column("latencies")
    metrics = {
        "wall_ref_s": metric(statistics.median(column("ref")), "s"),
        "peak_rss_mib": metric(max(column("peak_rss_mib")), "MiB"),
        "setup_s": metric(statistics.median(column("ref_setups")), "s"),
    }
    extra = {
        "wall_s": metric(statistics.median(column("wall")), "s"),
        "cpu_s": metric(statistics.median(column("cpu")), "s"),
        "setup_raw_s": metric(statistics.median(column("setups")), "s"),
        "host_speed": metric(statistics.median(column("host_speed")),
                             "ratio"),
        "probe_kernel": PROBE_KERNEL[workload],
        "probe_samples": sum(column("probe_samples")),
        "pass_wall_ref_s": column("ref"),
        "pass_wall_s": column("wall"),
        "pass_cpu_s": column("cpu"),
        "passes": len(passes),
        "ops_per_pass": passes[0]["ops_per_pass"],
        "setup_samples": len(column("setups")),
        "op_p50_s": dict(metric(statistics.median(lats), "s"),
                         samples=len(lats)),
    }
    tail = tail_latency(lats)
    if tail is not None:
        extra["op_tail_s"] = dict(metric(tail[0], "s"), percentile=tail[1],
                                  samples=len(lats))
    failures = [tuple(f) for f in column("failures")]
    return metrics, extra, sum(column("attempted")), failures


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(runner: Runner, seconds: float, workload: str, seed: int):
    start = perf_counter()
    untraced = [runner.run_pass()[0]]
    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        while (len(passes) < MIN_TRACED_PASSES
               or perf_counter() - start + passes[-1]["wall"] <= seconds):
            tracer.reset()
            wall = runner.run_pass(tracer)[0]
            passes.append({"wall": wall, "calls": dict(tracer.calls),
                           "counts": dict(tracer.counts),
                           "self": tracer.self_times(),
                           "bytes_out": runner.bytes_out,
                           "spans": tracer.spans if not passes else None})
    finally:
        tracer.uninstall()
    untraced.append(runner.run_pass()[0])
    untraced_wall = statistics.median(untraced)

    problems = tracer.install_problems() + self_check(workload, passes,
                                                      tracer.missing)
    metrics = layer_metrics(passes, untraced_wall)
    write_spans(workload, seed, passes[0]["spans"], runner)
    return metrics, {"traced_passes": len(passes),
                     "untraced_wall_s": untraced_wall,
                     "sites_wrapped": len(tracer.sites)}, problems


def self_check(workload, passes, missing):
    """Counts repeat exactly, every expected boundary fires, and the
    summed self time of all layers fits inside the traced wall time."""
    problems = []
    first = passes[0]
    for later in passes[1:]:
        if (later["calls"], later["counts"]) != (first["calls"], first["counts"]):
            problems.append("work counters differ between traced passes")
            break
    silent = [s for s in tracing.expected_spans(workload, missing)
              if not first["calls"].get(s)]
    if silent:
        problems.append(f"boundaries that never fired: {silent}")
    for p in passes:
        total = sum(p["self"].values())
        if not 0 < total <= p["wall"]:
            problems.append(f"summed self time {total:.4f}s is outside the "
                            f"traced wall time {p['wall']:.4f}s")
            break
    return problems


# Per-layer metrics of a traced run.  Counts come from the first traced
# pass (they repeat exactly); self times are medians over traced passes.
CALLS = ("linalg.rank", "linalg.pivots", "linalg.det", "linalg.nullspace",
         "apolar.contract", "apolar.power", "apolar.evaluate",
         "gorenstein.catalecticant", "gorenstein.basis",
         "gorenstein.hessian_at", "gorenstein.multiplication_rank",
         "points.hilbert", "construct.expanded",
         "construct.structured_hessian")
SELF_TIMES = ("linalg.rank", "linalg.pivots", "linalg.det", "apolar.contract",
              "apolar.power", "apolar.evaluate", "gorenstein.catalecticant",
              "gorenstein.hilbert_function", "gorenstein.basis",
              "gorenstein.hessian_at", "gorenstein.multiplication_rank",
              "points.curve_search", "construct.expanded",
              "construct.structured_hessian", "theorems.conic",
              "theorems.tails", "cli.emit")
COUNTS = {"linalg.cells": "count", "linalg.max_entry_bits": "bits",
          "apolar.terms_out": "count", "gorenstein.catalecticant.cells": "count",
          "gorenstein.slp_attempts": "count",
          "points.evaluation_matrix.cells": "count",
          "construct.expanded.terms": "count",
          "theorems.zero_forcing_checks": "count"}
RATIOS = {
    "linalg.nonint_share": ("linalg.nonint_matrices", "linalg.matrices"),
    "gorenstein.slp_success_ratio": ("gorenstein.slp_successes",
                                     "gorenstein.slp_attempts"),
    "points.hilbert.miss_ratio": ("points.hilbert.misses",
                                  "points.hilbert.calls"),
    "construct.attempt_success_ratio": ("construct.successes",
                                        "construct.attempts"),
    "theorems.witness_ratio": ("theorems.witnesses", "theorems.witness_trials"),
}


def layer_metrics(passes, untraced_wall):
    first = passes[0]
    counts = dict(first["counts"])
    counts.update((f"{name}.calls", n) for name, n in first["calls"].items())

    def self_s(names):
        return statistics.median(sum(p["self"].get(n, 0.0) for n in names)
                                 for p in passes)

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = metric(counts.get(f"{name}.calls", 0), "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = metric(self_s([name]), "s")
    for name, unit in COUNTS.items():
        m[name] = metric(counts.get(name, 0), unit)
    for name, (num, den) in RATIOS.items():
        d = counts.get(den, 0)
        m[name] = metric(counts.get(num, 0) / d if d else 0.0, "ratio")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = metric(self_s(
            [n for n in tracing.SPAN_NAMES if n.split(".")[0] == layer]), "s")
    m["cli.bytes_out"] = metric(first["bytes_out"], "B")
    traced_wall = statistics.median(p["wall"] for p in passes)
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m["trace.spans"] = metric(len(first["spans"]), "count")
    return m


def write_spans(workload, seed, spans, runner):
    """Spans of one traced pass as columns, one JSON file per run."""
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": workload, "seed": seed,
        "ops": [runner.wl.op_key(argv) for argv in runner.ops],
        "names": names,
        "columns": ["id", "name", "start", "end", "covered", "parent", "op"],
        "spans": [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7),
                   round(s[4], 7), s[5], s[6]] for s in spans],
    }
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def run_metadata(workload, seed, ops_per_pass, wl, loadavg):
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(loadavg),
        "workload": workload,
        "seed": seed,
        "ops_per_pass": ops_per_pass,
        "draw_sizes": {"si_corpus": {"si": wl.SI_DRAW},
                       "construct_large": {"large": len(wl.LARGE_CASES)},
                       "verifiers": {"conic": wl.CONIC_DRAW,
                                     "tails": len(wl.TAIL_GRID)}}[workload],
        "clients": 1,
        "loop": "closed",
    }
    meta.update(code_identity())
    return meta


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def code_identity():
    """The git commit when the checkout has one, and always a hash of src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["si_corpus", "construct_large", "verifiers"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pass-process", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    loadavg = os.getloadavg()
    add_src_to_path()
    if args.pass_process:
        return one_pass(args.workload, args.seed)
    problems = []
    if args.trace:
        probe = hostspeed.Probe(PROBE_KERNEL[args.workload])
        setups, _, (cli, wl, reference, ops) = measure_setups(
            args.workload, args.seed, probe, SETUP_REPEATS)
        runner = Runner(cli, wl, ops, reference)
        metrics, extra, problems = traced(runner, args.seconds, args.workload,
                                          args.seed)
        extra["setup_samples"] = len(setups)
        attempted, failures = runner.attempted, runner.failures
        ops_per_pass = len(ops)
    else:
        metrics, extra, attempted, failures = end_to_end(
            args.workload, args.seed, args.seconds)
        wl = importlib.import_module("workloads")
        ops_per_pass = extra["ops_per_pass"]
    meta = run_metadata(args.workload, args.seed, ops_per_pass, wl, loadavg)
    for key, issues in failures[:20]:
        print(f"perfbench: FAILED {key}: {'; '.join(issues)}", file=sys.stderr)
    for issue in problems:
        print(f"perfbench: self-check FAILED: {issue}", file=sys.stderr)

    # `correct` covers gorlef's outputs.  The tracing self-checks cover the
    # benchmark's instrumentation: a later change that removes a boundary
    # or adds a cross-call cache must still be measurable, so they are
    # reported here and on stderr instead.
    correct = not failures
    extra["fail_ratio"] = metric(len(failures) / attempted, "ratio")
    report = {"meta": meta, "metrics": metrics, "extra": extra,
              "self_check_problems": problems}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
