"""Record the reference output digest and latency of every op.

Run from the root of a checkout of the reference commit:

    python3 perfbench/record_reference.py

It writes `perfbench/reference.json`: for each op (argv joined by
spaces) the SHA-256 of its stdout and its latency in milliseconds at the
reference host speed, timed as the benchmark times it and the median of
REPEATS runs.  The benchmark counts an op whose stdout differs from the digest as failed,
and orders ops by the latency to form the strata its draws sample from,
so re-recording changes the benchmark.  Nothing is written when an op
exits non-zero, fails its structural check or prints different output
on different runs.
"""

from __future__ import annotations

import json
import statistics
import sys

import hostspeed
import run

REPEATS = 3


def main() -> int:
    run.add_src_to_path()
    import gorlef.cli
    import workloads

    kernels = {}
    for name, ops in (("si_corpus", workloads.si_ops()),
                      ("construct_large", workloads.large_ops()),
                      ("verifiers", workloads.conic_ops() + workloads.tail_ops())):
        kernels.update((argv, run.PROBE_KERNEL[name]) for argv in ops)
    probes = {k: hostspeed.Probe(k) for k in set(kernels.values())}

    reference = {}
    bad = 0
    for argv in workloads.universe():
        probe = probes[kernels[argv]]
        probe.install()
        try:
            timed = [probe.time(run.run_op, gorlef.cli.main, argv)
                     for _ in range(REPEATS)]
        finally:
            probe.uninstall()
        (code, out, _), _, _ = timed[0]
        seconds = statistics.median(ref_seconds for _, _, ref_seconds in timed)
        key = workloads.op_key(argv)
        problems = ([f"exit code {code}"] if code != 0
                    else workloads.check_output(argv, out))
        if len({result[1] for result, _, _ in timed}) != 1:
            problems.append("output differs between runs")
        print(f"{seconds:8.3f}s  {key}" + (f"  FAILED: {problems}" if problems else ""),
              file=sys.stderr, flush=True)
        bad += bool(problems)
        reference[key] = {"sha256": run.digest(out), "ms": round(seconds * 1e3, 1)}
    if bad:
        print(f"{bad} ops failed; nothing written", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} ops to {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
