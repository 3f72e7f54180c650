"""The three benchmark workloads: set-up, one checked operation, and the
independent output checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned. The seed is a benchmark argument; sfde
only ever sees the inputs generated from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

from sfde import cli, data, retrieval, train as training
from sfde.config import RunConfig
from sfde.model import SFDEModel, load_checkpoint, save_checkpoint

# The acceptance SMOKE model: the loop every experiment and the tier-1 smoke
# fixture pay for. Its descriptor is 32 global + 32 local + 32 frequency = 96.
SMOKE = dict(stage_channels=(8, 16, 16, 32), blocks_per_stage=1,
             input_size=128, embed_dim=32, heads=2, batch_pairs=8,
             learning_rate=0.003)
# Steps per `train` call: 25 timed steps, so the tail percentile (p60) has
# ten samples beyond it, and enough steps that the loss falls on every seed
# tried (0-23); at 10-13 steps it did not on some.
TRAIN_STEPS = 26


class CheckFailed(RuntimeError):
    """An operation returned, but its output is wrong."""


def _digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli(argv):
    """Run one `sfde` verb in-process; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"sfde {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()}")


@contextlib.contextmanager
def _op(tracer):
    """The timed part of one operation: the root span of a traced run."""
    if tracer is not None:
        tracer.begin_op()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.end_op()


class Workload:
    """One operation yields timed samples (seconds) and a fingerprint of its
    outputs. Every operation of a run gets identical inputs, so every
    fingerprint must equal the first one, traced or not."""

    name = ""
    sample = ""       # what one timed sample is
    unit_items = ""   # what items_per_s counts

    def setup(self, work, seed):
        raise NotImplementedError

    def prepare_checks(self, state, seed):
        """Benchmark-side reference data, outside the set-up timing."""

    def run(self, state, tracer):
        """One checked operation: (samples, items, fingerprint)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-smoke
# ---------------------------------------------------------------------------

class TrainSmoke(Workload):
    """`train.train` on the SMOKE config, 8 synth classes with 64 px sources.

    One operation is a `train` call of TRAIN_STEPS steps; its samples are the
    wall times of steps 1..N-1, taken from the public `probe` callback, which
    fires right after `AdamW.step`. Step 0 also pays for model build and
    norm stats inside `train`, so it is not a sample.
    """

    name = "train-smoke"
    sample = "train steps"
    unit_items = "images"

    def setup(self, work, seed):
        manifest = data.generate_synthetic_dataset(
            os.path.join(work, "data"), num_classes=8, drone_per_class=2,
            satellite_per_class=1, size=64, seed=seed)
        cfg = RunConfig(**SMOKE, steps=TRAIN_STEPS, seed=seed)
        # what `train` does before its first step
        SFDEModel(cfg.model_config(num_classes=len(manifest.classes)),
                  np.random.default_rng(cfg.seed))
        training.compute_norm_stats(manifest,
                                    training.ImageCache(cfg.input_size))
        return dict(manifest=manifest, cfg=cfg,
                    ckpt=os.path.join(work, "model.ckpt"))

    def run(self, state, tracer):
        cfg = state["cfg"]
        stamps = []

        def probe(model, norm_stats, class_index, step):
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.end_op()
                if step + 1 < cfg.steps:
                    tracer.begin_op()
                    tracer.begin("train.batch")

        model, _, logs = training.train(cfg, state["manifest"], state["ckpt"],
                                        probe=probe, probe_every=1)
        if len(stamps) != cfg.steps:
            raise CheckFailed(f"probe fired {len(stamps)} times, "
                              f"expected {cfg.steps}")
        for log in logs:
            terms = (log.ce, log.infonce, log.dsa, log.total)
            if not all(np.isfinite(terms)):
                raise CheckFailed(f"non-finite loss term at step {log.step}: "
                                  f"{terms}")
        # Single steps are noisy (the warm-up step jumps the loss), so the
        # final and initial losses are means over a quarter of the steps.
        q = max(1, len(logs) // 4)
        initial = np.mean([l.total for l in logs[:q]])
        final = np.mean([l.total for l in logs[-q:]])
        if not final < initial:
            raise CheckFailed(f"final loss {final} (mean of the last {q} "
                              f"steps) is not below the initial loss "
                              f"{initial}")
        # The loader casts arrays to the configured dtype; under NumPy 2 the
        # float64 learning rate promotes trained parameters to float64, so
        # compare after the same cast.
        reloaded, _ = load_checkpoint(state["ckpt"])
        saved = dict(reloaded.named_parameters())
        for name, p in model.named_parameters():
            if not np.array_equal(saved[name].data,
                                  p.data.astype(saved[name].dtype)):
                raise CheckFailed(f"checkpoint reload differs at {name}")
        samples = list(np.diff(stamps))
        fingerprint = hashlib.sha256(repr(
            [(l.ce, l.infonce, l.dsa, l.total) for l in logs]).encode()
        ).hexdigest() + _digest(state["ckpt"])
        return samples, [2 * cfg.batch_pairs] * len(samples), fingerprint


# ---------------------------------------------------------------------------
# embed-split
# ---------------------------------------------------------------------------

class EmbedSplit(Workload):
    """`sfde embed` for the drone view plus `sfde embed` for the satellite
    view of a 64-class synth split (128 + 64 images, 256 px sources, so
    decode and resize do real work) with a checkpoint written in set-up.
    Forward only, batch 1, no tape."""

    name = "embed-split"
    sample = "embed passes"
    unit_items = "images"
    classes = 64

    def setup(self, work, seed):
        manifest = data.generate_synthetic_dataset(
            os.path.join(work, "data"), num_classes=self.classes,
            drone_per_class=2, satellite_per_class=1, size=256, seed=seed)
        manifest_path = os.path.join(work, "manifest.csv")
        data.save_manifest(manifest, manifest_path)
        cfg = RunConfig(**SMOKE, seed=seed)
        model = SFDEModel(cfg.model_config(num_classes=len(manifest.classes)),
                          np.random.default_rng(cfg.seed))
        mean, std = training.compute_norm_stats(
            manifest, training.ImageCache(cfg.input_size))
        ckpt = os.path.join(work, "model.ckpt")
        save_checkpoint(ckpt, model, {
            "norm_mean": mean.tolist(), "norm_std": std.tolist(),
            "classes": manifest.classes, "seed": cfg.seed, "steps": 0})
        return dict(manifest=manifest, manifest_path=manifest_path, ckpt=ckpt,
                    out={v: os.path.join(work, f"{v}.bin")
                         for v in ("drone", "satellite")})

    def run(self, state, tracer):
        with _op(tracer):
            t0 = time.perf_counter()
            for view, out in state["out"].items():
                _cli(["embed", "--ckpt", state["ckpt"], "--manifest",
                      state["manifest_path"], "--split", "train", "--view",
                      view, "--out", out])
            elapsed = time.perf_counter() - t0
        images = 0
        for view, out in state["out"].items():
            records = retrieval.load_embeddings(out)
            expected = [e.id for e in state["manifest"].subset("train", view)]
            if [r.id for r in records] != expected:
                raise CheckFailed(f"{view} store ids differ from the manifest")
            norms = np.linalg.norm(
                np.stack([r.vector for r in records]).astype(np.float64),
                axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-6:
                raise CheckFailed(f"{view} vector norm off by "
                                  f"{np.max(np.abs(norms - 1.0)):.2e}")
            images += len(records)
        return [elapsed], [images], _digest(*state["out"].values())


# ---------------------------------------------------------------------------
# eval-gallery
# ---------------------------------------------------------------------------

EVAL_K = (1, 5, 10)
DIM = 96


def _quantized_unit_vectors(rng, centers, labels, noise):
    """Noisy copies of class centers, unit-norm to 2e-5, with every component
    a multiple of 2**-11. Products are then multiples of 2**-22 and every
    partial sum of a dot product is exact in float32, so the program's
    per-item float32 dot and the oracle's matrix product give identical
    scores and identical rankings."""
    out = np.empty((len(labels), centers.shape[1]))
    todo = np.arange(len(labels))
    while todo.size:
        v = centers[labels[todo]] + noise * rng.standard_normal(
            (todo.size, centers.shape[1]))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v = np.round(v * 2048.0) / 2048.0
        ok = np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 2e-5
        out[todo[ok]] = v[ok]
        todo = todo[~ok]
    return out


def eval_vectors(seed, n_query=1000, n_gallery=1000, classes=250,
                 noise=0.17, duplicates=50):
    """Class-structured query and gallery vectors. `duplicates` gallery items
    are exact copies of items of another class, so ranking ties between
    classes occur and the id tie-break decides R@K and AP."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    qcls = np.arange(n_query) % classes
    gcls = np.arange(n_gallery) % classes
    Q = _quantized_unit_vectors(rng, centers, qcls, noise)
    G = _quantized_unit_vectors(rng, centers, gcls, noise)
    src = rng.choice(n_gallery, size=duplicates, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n_gallery), src), size=duplicates,
                     replace=False)
    G[dst] = G[src]
    qids = [f"q{i:05d}" for i in range(n_query)]
    gids = [f"g{i:05d}" for i in range(n_gallery)]
    return Q, qcls, qids, G, gcls, gids


def oracle_summary(Q, qcls, G, gcls, gids, ks=EVAL_K):
    """The summary CSV the program must write, from `Q @ G.T` ranked by
    descending score then ascending gallery id (np.lexsort)."""
    scores = Q @ G.T
    id_rank = np.empty(len(gids), dtype=np.int64)
    id_rank[np.argsort(np.array(gids))] = np.arange(len(gids))
    order = np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores),
                       axis=-1)
    rel = gcls[order] == qcls[:, None]
    aps = []
    for row in rel:
        pos = np.flatnonzero(row)
        aps.append(float(np.mean(np.arange(1, pos.size + 1) / (pos + 1))))
    lines = ["metric,K,value"]
    for k in ks:
        lines.append(f"recall,{k},{np.mean(rel[:, :k].any(axis=1)):.8f}")
    lines.append(f"mean_ap,,{np.mean(aps):.8f}")
    lines.append("skipped_queries,,0")
    return "\n".join(lines) + "\n"


class EvalGallery(Workload):
    """`sfde eval` on 1000 query x 1000 gallery stores of width 96 (the SMOKE
    descriptor). The Python ranking loop, AP and about 60 MB of CSV reports
    do all the work; the model does none."""

    name = "eval-gallery"
    sample = "eval passes"
    unit_items = "queries"

    def setup(self, work, seed):
        Q, qcls, qids, G, gcls, gids = eval_vectors(seed)
        paths = {}
        for side, vecs, cls, ids, view in (
                ("query", Q, qcls, qids, "drone"),
                ("gallery", G, gcls, gids, "satellite")):
            paths[side] = os.path.join(work, f"{side}.bin")
            retrieval.save_embeddings(
                [retrieval.EmbeddingRecord(i, view, int(c),
                                           v.astype(np.float32))
                 for i, c, v in zip(ids, cls, vecs)], paths[side])
        return dict(paths=paths, out=os.path.join(work, "report"),
                    queries=len(qids), gallery=len(gids))

    def prepare_checks(self, state, seed):
        Q, qcls, _, G, gcls, gids = eval_vectors(seed)
        state["expected_summary"] = oracle_summary(Q, qcls, G, gcls, gids)

    def run(self, state, tracer):
        with _op(tracer):
            t0 = time.perf_counter()
            _cli(["eval", "--query", state["paths"]["query"], "--gallery",
                  state["paths"]["gallery"], "--k", ",".join(map(str, EVAL_K)),
                  "--out", state["out"]])
            elapsed = time.perf_counter() - t0
        reports = [os.path.join(state["out"], f"retrieval_{n}.csv")
                   for n in ("summary", "rankings", "distances")]
        with open(reports[0]) as fh:
            summary = fh.read()
        if summary != state["expected_summary"]:
            raise CheckFailed("summary differs from the numpy oracle:\n"
                              f"{summary}expected:\n"
                              f"{state['expected_summary']}")
        rows = 1 + state["queries"] * state["gallery"]
        for path in reports[1:]:
            with open(path, "rb") as fh:
                if fh.read().count(b"\n") != rows:
                    raise CheckFailed(f"{path} does not hold {rows} rows")
        return [elapsed], [state["queries"]], _digest(*reports)


WORKLOADS = {w.name: w for w in (TrainSmoke(), EmbedSplit(), EvalGallery())}
