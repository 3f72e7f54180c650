"""The committed tooling under `scripts/` runs and is deterministic."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def test_fingerprints_repeat_exactly():
    """Two runs of the smallest case print the same digests: one line per
    output of a SMOKE training, its two stores and its evaluation, then of
    the stores saved again under ids of one length and their evaluation,
    then of the two stores of a 256 px set."""
    argv = [sys.executable, os.path.join(SCRIPTS, "fingerprints.py"),
            "--seed", "1", "--threads", "1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=600)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    evaluation = ["drone.bin", "satellite.bin",
                  "reports/retrieval_rankings.csv",
                  "reports/retrieval_summary.csv",
                  "reports/retrieval_distances.csv", "eval.stdout"]
    assert [line.split()[2] for line in lines] == [
        "model.ckpt", "model.ckpt.log.csv"] + evaluation + [
        f"uniform/{name}" for name in evaluation] + [
        "shrink/drone.bin", "shrink/satellite.bin"]
    assert all(line.startswith("seed=1 threads=1 ") and
               len(line.split()[3]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout
