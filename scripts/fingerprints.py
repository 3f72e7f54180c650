"""Print the sha256 of every file and report a training-and-retrieval run
writes, so that two checkouts can be compared byte for byte.

    python3 scripts/fingerprints.py --seed 1 --seed 4242 --threads 1 --threads 2

Run it from the root of a source checkout: it runs the `sfde` verbs of that
checkout's `src/`. For each seed and BLAS thread count it makes a 12-class
synthetic set (64 px) with that seed, trains the SMOKE config (channels
8,16,16,32; 1 block; 128 px; 8 pairs) for 26 steps at that seed, embeds the
drone and the satellite views, and evaluates drone queries against the
satellite gallery at K = 1, 5, 10. It prints one line per output:

    seed=1 threads=1 model.ckpt <sha256>

covering the checkpoint and its loss log, both embedding stores, the three
report CSVs and the stdout of `sfde eval`. (The manifest is left out: it
holds the absolute paths of the run's temporary directory.) Each verb runs
in a fresh Python process, because a BLAS thread count must be set before
numpy is imported. Two checkouts agree when their outputs are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SMOKE_CONFIG = """\
[model]
stage_channels = 8,16,16,32
blocks_per_stage = 1
input_size = 128
embed_dim = 32
heads = 2

[train]
seed = {seed}
steps = 26
batch_pairs = 8
learning_rate = 0.003
"""


def sfde(argv, threads):
    """stdout of `sfde <argv>` in a fresh process with `threads` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "sfde.cli", *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"sfde {' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout


def fingerprints(seed, threads):
    """(name, sha256) of each output of one case."""
    with tempfile.TemporaryDirectory() as work:
        def path(name):
            return os.path.join(work, name)

        with open(path("smoke.cfg"), "w") as fh:
            fh.write(SMOKE_CONFIG.format(seed=seed))
        sfde(["synth", "--root", path("data"), "--classes", "12",
              "--size", "64", "--seed", str(seed)], threads)
        sfde(["ingest", "--root", path("data"), "--out", path("manifest.csv")],
             threads)
        sfde(["train", "--config", path("smoke.cfg"), "--manifest",
              path("manifest.csv"), "--out", path("model.ckpt")], threads)
        for view in ("drone", "satellite"):
            sfde(["embed", "--ckpt", path("model.ckpt"), "--manifest",
                  path("manifest.csv"), "--split", "train", "--view", view,
                  "--out", path(f"{view}.bin")], threads)
        stdout = sfde(["eval", "--query", path("drone.bin"), "--gallery",
                       path("satellite.bin"), "--k", "1,5,10", "--out",
                       path("reports")], threads)
        files = ["model.ckpt", "model.ckpt.log.csv",
                 "drone.bin", "satellite.bin"] + [
            os.path.join("reports", f"retrieval_{n}.csv")
            for n in ("rankings", "summary", "distances")]
        out = []
        for name in files:
            with open(path(name), "rb") as fh:
                out.append((name, hashlib.sha256(fh.read()).hexdigest()))
        out.append(("eval.stdout",
                    hashlib.sha256(stdout.encode()).hexdigest()))
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="training and data seed (repeatable; default 1)")
    parser.add_argument("--threads", type=int, action="append",
                        help="BLAS threads (repeatable; default 1 and 2)")
    args = parser.parse_args(argv)
    for seed in args.seed or [1]:
        for threads in args.threads or [1, 2]:
            for name, digest in fingerprints(seed, threads):
                print(f"seed={seed} threads={threads} {name} {digest}",
                      flush=True)


if __name__ == "__main__":
    main()
