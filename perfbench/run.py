"""sfde benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-smoke --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports sfde from `src/`. With
`--trace 0` it reports the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it alternates untraced and traced operations and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else (lines before
it, and the files under .perfbench/out/) is for people.

Exit codes: 0 when a result was printed, 2 when sfde cannot be imported
from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# One BLAS thread: the steadiest setting on a shared 2-core box, and within
# the `nproc` pool limit. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sfde.cli, sfde.train; "
                "print(time.perf_counter() - t)")
# Stop a run after this many failed operations instead of spinning on a
# broken program until the deadline.
MAX_FAILURES = 3


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it (nearest rank). Below 20 samples that percentile
    would fall under the median, so p75 is reported instead; it is steadier
    run to run than the maximum of a handful of passes."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 75, xs[math.ceil(0.75 * n) - 1]


def import_seconds():
    """Import time of sfde's entry points in a fresh interpreter."""
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                       capture_output=True, text=True, timeout=120,
                       check=True)
    return float(r.stdout.strip())


def environment():
    import numpy
    import scipy
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "sfde"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(samples, items, setup_times, import_times):
    pct, tail_value = tail(samples)
    setups = [a + b for a, b in zip(import_times, setup_times)]
    values = {
        "op_s": statistics.median(samples),
        "op_tail_s": tail_value,
        "items_per_s": sum(items) / sum(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {"samples": len(samples), "tail_percentile": pct,
             "sample_s": samples,
             "setup_s_each": setups, "import_s_each": import_times}
    return values, notes


def per_layer(tracer, traced, untraced):
    """Self times and counts per traced operation, derived ratios, and the
    tracing overhead (median traced over median untraced sample)."""
    n = max(tracer.ops, 1)
    values = {f"{k}_s": v / n for k, v in tracer.self_times().items()}
    counts = tracer.counts
    for k, v in counts.items():
        if not k.startswith(("autodiff.", "train.image_cache.")):
            values[k] = v / n
    records = counts["autodiff.records_made"]
    values["autodiff.records"] = records / n
    values["autodiff.useful_records_ratio"] = (
        counts["autodiff.records_replayed"] / records if records else 0.0)
    gets = counts["train.image_cache.gets"]
    values["train.image_cache_hit_ratio"] = (
        1.0 - counts["train.image_cache.misses"] / gets if gets else 0.0)
    wall = tracer.op_wall()
    values["bench.self_time_coverage"] = (
        1.0 - values.get("bench.unattributed_s", 0.0) * n / wall
        if wall else 0.0)
    values["bench.traced_op_s"] = statistics.median(traced)
    values["bench.untraced_op_s"] = statistics.median(untraced)
    values["bench.trace_overhead_ratio"] = (
        values["bench.traced_op_s"] / values["bench.untraced_op_s"] - 1.0)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import sfde
        import workloads
        import spans
    except ImportError as e:
        print(f"perfbench: cannot import sfde from {SRC}: {e}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(sfde.__file__).startswith(SRC + os.sep):
        print(f"perfbench: sfde was imported from {sfde.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    env = environment()

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "out"), exist_ok=True)
    try:
        setup_times, import_times = [], []
        for rep in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            rep_dir = os.path.join(work, f"setup{rep}")
            os.makedirs(rep_dir)
            t0 = time.perf_counter()
            state = wl.setup(rep_dir, args.seed)
            setup_times.append(time.perf_counter() - t0)
        wl.prepare_checks(state, args.seed)

        tracer = spans.Tracer()
        untraced, traced, items = [], [], []
        attempted = failed = 0
        first = None
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while failed < MAX_FAILURES:
            # Start another operation only if it should end by half an
            # operation past the deadline. A traced run alternates untraced
            # and traced operations and ends on an untraced one, which must
            # reproduce the outputs.
            tracing = bool(args.trace) and attempted % 2 == 1
            start = time.perf_counter()
            if start + last / 2 >= deadline and attempted and (
                    not args.trace or (attempted > 1 and attempted % 2 == 1)):
                break
            attempted += 1
            try:
                if tracing:
                    before = spans.snapshot()
                    with spans.patched(tracer):
                        samples, n_items, fp = wl.run(state, tracer)
                    left = spans.changed_bindings(before)
                    if left:
                        raise workloads.CheckFailed(
                            f"tracing left patched bindings: {left[:5]}")
                else:
                    samples, n_items, fp = wl.run(state, None)
                if first is None:
                    first = fp
                elif fp != first:
                    raise workloads.CheckFailed(
                        "outputs differ from the first operation's "
                        f"({'traced' if tracing else 'untraced'} run)")
            except Exception:
                failed += 1
                print(f"perfbench: operation {attempted} failed:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                last = time.perf_counter() - start
            (traced if tracing else untraced).extend(samples)
            if not tracing:
                items.extend(n_items)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        print(f"perfbench: no successful operation in {attempted} attempts",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0

    e2e, notes = end_to_end(untraced, items, setup_times, import_times)
    if args.trace:
        measured = per_layer(tracer, traced, untraced)
        units = layer_units
        with open(os.path.join(OUT, "out", f"spans-{tag}.json"), "w") as fh:
            json.dump({"environment": env, "spans": tracer.rows()}, fh)
    else:
        measured = e2e
        units = e2e_units
    undeclared = sorted(set(measured) - set(units))
    if undeclared:
        print(f"perfbench: measured but not declared: {undeclared}",
              file=sys.stderr)
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    with open(os.path.join(OUT, "out", f"result-{tag}.json"), "w") as fh:
        json.dump({"environment": env, "workload": wl.name,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "notes": notes,
                   "end_to_end": e2e, "result": result}, fh, indent=1)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"error_rate {failed / attempted:.4f} ({failed} failed of "
          f"{attempted} operations)")
    print(f"{notes['samples']} untraced samples ({wl.sample}); "
          f"op_tail_s is p{notes['tail_percentile']}; items are "
          f"{wl.unit_items}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
