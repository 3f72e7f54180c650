"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

1. Patching rebinds the three by-name traps (`ops.record`,
   `spectral.record`, `train.load_image`) and restores every binding of the
   package on exit; the restore check itself detects a leftover binding.
2. Each workload runs in trace mode for the minimum of untraced, traced,
   untraced operations. `run.py` fails an operation whose outputs differ from
   the first one's or that leaves a binding patched, so `correct` covers
   "an untraced run after a traced one gives identical outputs".
3. Every per-layer metric the metric table (README.md) ties to a workload
   reads non-zero there, and the conv and backward metrics read zero where
   the table says that layer does not run.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)

CONV = [f"ops.conv2d.{k}.{m}" for k in ("dw7", "pw1", "stem4", "down2", "dil3")
        for m in ("fwd_s", "calls", "patch_mb", "macs")]
CONV_BWD = [f"ops.conv2d.{k}.bwd_s"
            for k in ("dw7", "pw1", "stem4", "down2", "dil3")]
FWD = ["ops.gelu.fwd_s", "ops.batch_norm.fwd_s", "ops.other.fwd_s",
       "spectral.fwd_s", "backbone.fwd_s", "gscb.fwd_s", "lgsb.fwd_s",
       "fsab.fwd_s", "layers.attention_copy_mb"]
BWD = CONV_BWD + ["ops.gelu.bwd_s", "ops.batch_norm.bwd_s", "ops.other.bwd_s",
                  "spectral.bwd_s", "autodiff.backward_s", "autodiff.records"]

NONZERO = {
    "train-smoke": CONV + FWD + BWD + [
        "losses.fwd_s", "autodiff.useful_records_ratio", "train.batch_s",
        "train.adamw_s", "train.image_cache_hit_ratio"],
    "embed-split": CONV + FWD + [
        "data.load_image_s", "data.load_image.calls",
        "model.load_checkpoint_s", "model.forward_s",
        "retrieval.assemble_embedding_s", "retrieval.save_embeddings_s",
        "train.extract_embeddings_s"],
    "eval-gallery": [
        "retrieval.load_embeddings_s", "retrieval.evaluate_s",
        "retrieval.cosine_topk.calls", "train.write_reports_s",
        "train.write_reports_mb"],
}
ZERO = {
    "train-smoke": ["retrieval.evaluate_s", "train.write_reports_s"],
    "embed-split": BWD,
    "eval-gallery": CONV + BWD + ["model.forward_s", "data.load_image_s"],
}


def check_patching():
    sys.path.insert(0, run.SRC)
    import spans
    mods = spans.modules()
    originals = {(m, n): getattr(mods[m], n) for m, n in (
        ("ops", "record"), ("spectral", "record"), ("train", "load_image"),
        ("ops", "conv2d"))}
    before = spans.snapshot()
    problems = []
    with spans.patched(spans.Tracer()):
        for (m, n), fn in originals.items():
            if getattr(mods[m], n) is fn:
                problems.append(f"sfde.{m}.{n} was not patched")
    left = spans.changed_bindings(before)
    if left:
        problems.append(f"bindings left patched: {left}")
    mods["ops"].conv2d = print
    try:
        if "('ops', 'conv2d')" not in spans.changed_bindings(before):
            problems.append("changed_bindings missed a rebound name")
    finally:
        mods["ops"].conv2d = originals[("ops", "conv2d")]
    return problems


def check_workload(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                         "--trace", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    problems = []
    if code != 0 or not result["correct"] or result["attempted"] < 3:
        problems.append(f"{name}: exit {code}, {result['attempted']} "
                        f"operations, correct={result['correct']}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for m in NONZERO[name]:
        if not metrics.get(m):
            problems.append(f"{name}: {m} reads zero")
    for m in ZERO[name]:
        if metrics.get(m):
            problems.append(f"{name}: {m} reads {metrics[m]}, expected zero")
    coverage = metrics.get("bench.self_time_coverage", 0.0)
    if coverage < 0.9:
        problems.append(f"{name}: layer self times cover only {coverage:.3f} "
                        "of the traced op wall time")
    return problems


def main():
    problems = check_patching()
    for name in NONZERO:
        problems += check_workload(name)
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
