#!/usr/bin/env python3
"""spillkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload linear-blocks --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; spillkit is imported from ./src as it
is, pure or compiled kernel alike. With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs the same loop for half the
time untraced and half traced, and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, install_layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # p90 then has at least ten samples beyond it
IMPORT_SAMPLES = 15


def load_spillkit():
    """Import spillkit from ./src; refuse any other copy."""
    if not (SRC / "spillkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spillkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spillkit
    from spillkit import cli, reductions, sweeps  # noqa: F401

    if Path(spillkit.__file__).resolve().parent != SRC / "spillkit":
        sys.exit(f"perfbench: imported spillkit from {spillkit.__file__}")
    return spillkit


def import_seconds():
    """Median over fresh interpreters of the time `import spillkit` takes."""
    code = ("import time; t = time.perf_counter(); import spillkit; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def measure(work, seconds, tracer=None):
    """Closed loop: whole rounds until `seconds` have passed and at least
    MIN_OPS ops ran. Returns the latencies and the number of wrong ops;
    each answer is collected untimed and checked once the loop ends."""
    latencies = []
    done = []
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        for item in work.round(r):
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = work.run(item)
                else:
                    out = tracer.call("bench.op", work.run, (item,))
            except Exception as exc:  # a crash is a failed op, not the end
                out = exc
            latencies.append(perf_counter() - t0)
            if not isinstance(out, Exception):
                out = work.collect(item, out)
            done.append((item, out))
        r += 1
    if tracer is not None:
        tracer.uninstall()
    reasons = work.check(done)
    for (item, _), why in zip(done, reasons):
        if why is not None:
            print(f"perfbench: FAILED {item}: {why}", file=sys.stderr)
    return latencies, sum(why is not None for why in reasons)


def end_to_end(latencies, setup_s):
    q = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, ops, trace_overhead):
    """Per traced op: self seconds of each layer, calls and work counts;
    `bench.other_s` is op time that no layer span covers, so the `.s`
    metrics and it add up to `bench.op_s`."""
    own = tracer.self_times(in_ops=True)
    calls = tracer.calls(in_ops=True)
    c = tracer.counts
    setup = tracer.self_times(in_ops=False)

    def per_op(x):
        return x / ops

    def rate(num, den):
        return num / den if den else 0.0

    parse_s = tracer.inclusive("fileformat.parse")
    m = {
        "fileformat.parse.s": per_op(own["fileformat.parse"]),
        "fileformat.parse.calls": per_op(calls["fileformat.parse"]),
        "fileformat.parse.kb_per_s": rate(c["fileformat.parse.bytes"] / 1024, parse_s),
        "model.from_code.s": per_op(own["model.from_code"]),
        "model.from_ranges.s": per_op(own["model.from_ranges"]),
        "model.construct.calls": per_op(calls["model.from_code"] + calls["model.from_ranges"]),
        "model.validate.s": per_op(own["model.validate"]),
        "model.pressure.s": per_op(own["model.pressure"]),
        "model.pressure.calls": per_op(calls["model.pressure"]),
        "intervals.greedy.s": per_op(own["intervals.greedy"]),
        "intervals.flow.s": per_op(own["intervals.flow"]),
        "intervals.flow.pops": per_op(c["intervals.flow.pops"]),
        "intervals.calls": per_op(calls["intervals.greedy"] + calls["intervals.flow"]),
        "treedp.dp_fit.s": per_op(own["treedp.dp_fit"]),
        "treedp.dp_fit_holes.s": per_op(own["treedp.dp_fit_holes"]),
        "treedp.steps": per_op(c["treedp.steps"]),
        "treedp.infeasible": per_op(c["treedp.infeasible"]),
        "punched.dp_extra.s": per_op(own["punched.dp_extra"]),
        "punched.steps": per_op(c["punched.steps"]),
        "oracle.encode.s": per_op(own["oracle.encode"]),
        "oracle.brute.s": per_op(own["oracle.brute"]),
        "oracle.brute.calls": per_op(calls["oracle.brute"]),
        "oracle.bnb.s": per_op(own["oracle.bnb"]),
        "oracle.bnb.nodes": per_op(c["oracle.bnb.nodes"]),
        "oracle.bnb.proven_ratio": rate(c["oracle.bnb.proven"], calls["oracle.bnb"]),
        "oracle.verify.s": per_op(own["oracle.verify"]),
        "kernel.sweep.s": per_op(own["kernel.sweep"]),
        "kernel.sweep.calls": per_op(calls["kernel.sweep"]),
        "kernel.subsets": per_op(c["kernel.subsets"]),
        "kernel.rows": per_op(c["kernel.rows"]),
        "kernel.subsets_per_s": rate(c["kernel.subsets"], own["kernel.sweep"]),
        "reductions.gen.s": per_op(own["reductions.gen"]),
        "reductions.decide.s": per_op(own["reductions.decide"]),
        "reductions.solve.s": per_op(own["reductions.solve"]),
        "reductions.solver.brute": per_op(c["reductions.solver.brute"]),
        "reductions.solver.dp_extra": per_op(c["reductions.solver.dp_extra"]),
        "reductions.solver.bnb": per_op(c["reductions.solver.bnb"]),
        "sweeps.enumerate.s": setup["sweeps.enumerate"],
        "sweeps.sources": c["sweeps.sources"],
        "cli.solve.self_s": per_op(own["cli.solve"]),
        "cli.calls": per_op(calls["cli.solve"]),
        "gc.pause_s": per_op(c["gc.pause_s"]),
        "gc.collections": per_op(c["gc.collections"]),
        "bench.op_s": per_op(tracer.inclusive("bench.op")),
        "bench.other_s": per_op(own["bench.op"]),
        "bench.trace_overhead": trace_overhead,
    }
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name):
    if name.endswith("_ratio") or name.endswith("overhead"):
        return "ratio"
    if name.endswith("kb_per_s"):
        return "KiB/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.startswith("sweeps."):
        return "s" if name.endswith(".s") else "count"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/op"
    return "count/op"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


class CoverageError(Exception):
    """A layer span the workload exercises never fired."""


def run_workload(work, sk, seed, seconds, trace, workdir):
    """Set up, prepare and measure one workload.

    Untraced: the end-to-end metrics. Traced: set-up runs once under the
    tracer, then the loop runs for half the time untraced and half traced,
    giving the per-layer metrics. Returns (metrics, attempted, failed,
    tracer or None).
    """
    tracer = setup_s = None
    if trace:
        tracer = Tracer()
        install_layers(tracer, sk)
        work.setup(repeats=1)
        tracer.uninstall()
    else:
        setup_s = import_seconds() + statistics.median(work.setup())
    work.prepare(seed, workdir)
    # Full collections would otherwise walk the corpus and references on
    # every pass; what ops create, results kept to the end included, is
    # still collected.
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            latencies, failed = measure(work, seconds)
            return end_to_end(latencies, setup_s), len(latencies), failed, None

        latencies, failed = measure(work, seconds / 2)
        gc.collect()
        install_layers(tracer, sk)
        tracer.watch_gc()
        traced, failed_traced = measure(work, seconds / 2, tracer)
    finally:
        gc.unfreeze()
    fired = tracer.calls(in_ops=None)
    missing = [name for name in work.SPANS if not fired[name]]
    if missing:
        raise CoverageError(f"no {', '.join(missing)} span fired on {work.name}")
    overhead = (len(traced) / sum(traced)) / (len(latencies) / sum(latencies))
    return (per_layer(tracer, len(traced), overhead),
            len(latencies) + len(traced), failed + failed_traced, tracer)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sk = load_spillkit()
    work = WORKLOADS[args.workload](sk)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed, tracer = run_workload(
            work, sk, args.seed, args.seconds, args.trace, str(workdir))
    except CoverageError as exc:
        sys.exit(f"perfbench: trace coverage: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": attempted,
        "failed_frac": failed / attempted,
        "kernel_implementation": sk.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(), "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    stem = OUT / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}.spans.tsv")

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(failed_frac {meta['failed_frac']:.4f})")
    for k, (v, u) in metrics.items():
        print(f"  {k:<28} {v:>14.6g} {u}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
