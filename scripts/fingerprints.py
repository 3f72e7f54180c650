"""Print the sha256 of every file and report a training-and-retrieval run
writes, so that two checkouts can be compared byte for byte.

    python3 scripts/fingerprints.py --seed 1 --seed 4242 --threads 1 --threads 2

Run it from the root of a source checkout: it runs the `sfde` verbs of that
checkout's `src/`. For each seed and BLAS thread count it makes a 12-class
synthetic set (64 px) with that seed, trains the SMOKE config (channels
8,16,16,32; 1 block; 128 px; 8 pairs) for 26 steps at that seed, embeds the
drone and the satellite views, and evaluates drone queries against the
satellite gallery at K = 1, 5, 10. It then saves both stores again under
ids of one length (`d0000`, `d0001`, ... and `s0000`, ...) in `uniform/`
and evaluates those too: their report blocks have columns of one width,
which `write_reports` writes without a padding pass, while the synthetic
ids differ in length. That eval writes into a copy of the first eval's
reports, so it rewrites report files that are longer than its own, as
their ids are longer. Last, it makes a 12-class synthetic set of 256 px
images with the same seed and embeds its two views with the trained
checkpoint into `shrink/`: a 256 px source shrinks to 128 px by a whole
factor, which `data.load_image` decodes as a box mean, while a 64 px source
takes the general bilinear path. It prints one line per output:

    seed=1 threads=1 model.ckpt <sha256>

covering the checkpoint and its loss log, both embedding stores, the three
report CSVs and the stdout of `sfde eval`, then the stores, CSVs and stdout
of the `uniform/` eval, then the two `shrink/` stores. (The manifests are
left out: they hold the absolute paths of the run's temporary directory.) Each step runs in a fresh Python
process, because a BLAS thread count must be set before numpy is imported.
Two checkouts agree when their outputs are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
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


# saves the store argv[1] again at argv[2], record i under the id
# argv[3] + f"{i:04d}"
RESAVE_UNDER_PADDED_IDS = """\
import sys
from sfde import retrieval
records = retrieval.load_embeddings(sys.argv[1])
for i, r in enumerate(records):
    r.id = f"{sys.argv[3]}{i:04d}"
retrieval.save_embeddings(records, sys.argv[2])
"""


def python(argv, threads):
    """stdout of `python <argv>` in a fresh process with `threads` BLAS
    threads and this checkout's `src/` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"python {' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout


def sfde(argv, threads):
    """stdout of `sfde <argv>`, run as `python`."""
    return python(["-m", "sfde.cli", *argv], threads)


def evaluate(path, stores, threads):
    """Evaluate the `stores[0]` queries against the `stores[1]` gallery into
    `path("reports")`, and keep its stdout in `path("eval.stdout")`; the
    names of the two stores and of the four outputs."""
    stdout = sfde(["eval", "--query", path(stores[0]), "--gallery",
                   path(stores[1]), "--k", "1,5,10", "--out",
                   path("reports")], threads)
    with open(path("eval.stdout"), "w") as fh:
        fh.write(stdout)
    return stores + [os.path.join("reports", f"retrieval_{n}.csv")
                     for n in ("rankings", "summary", "distances")] + [
        "eval.stdout"]


def fingerprints(seed, threads):
    """(name, sha256) of each output of one case."""
    with tempfile.TemporaryDirectory() as work:
        def path(name):
            return os.path.join(work, name)

        with open(path("smoke.cfg"), "w") as fh:
            fh.write(SMOKE_CONFIG.format(seed=seed))
        def synth(name, size):
            sfde(["synth", "--root", path(name), "--classes", "12",
                  "--size", str(size), "--seed", str(seed)], threads)
            sfde(["ingest", "--root", path(name), "--out",
                  path(f"{name}.csv")], threads)

        def embed(name, out_dir):
            for view in ("drone", "satellite"):
                sfde(["embed", "--ckpt", path("model.ckpt"), "--manifest",
                      path(f"{name}.csv"), "--split", "train", "--view", view,
                      "--out", path(os.path.join(out_dir, f"{view}.bin"))],
                     threads)

        synth("data", 64)
        sfde(["train", "--config", path("smoke.cfg"), "--manifest",
              path("data.csv"), "--out", path("model.ckpt")], threads)
        embed("data", "")
        stores = ["drone.bin", "satellite.bin"]
        files = ["model.ckpt", "model.ckpt.log.csv"] + evaluate(
            path, stores, threads)
        shutil.copytree(path("reports"), path(os.path.join("uniform",
                                                          "reports")))
        for name, prefix in zip(stores, "ds"):
            python(["-c", RESAVE_UNDER_PADDED_IDS, path(name),
                    path(os.path.join("uniform", name)), prefix], threads)
        files += [os.path.join("uniform", name) for name in evaluate(
            lambda name: path(os.path.join("uniform", name)), stores,
            threads)]
        synth("data256", 256)
        os.mkdir(path("shrink"))
        embed("data256", "shrink")
        files += [os.path.join("shrink", name) for name in stores]
        out = []
        for name in files:
            with open(path(name), "rb") as fh:
                out.append((name, hashlib.sha256(fh.read()).hexdigest()))
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
