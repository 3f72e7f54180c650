"""Desk-scale training loop: decoupled-weight-decay adaptive moments,
cosine-annealed step size with 10% warm-up, symmetric batch composition,
and deterministic embedding extraction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import losses, ops, retrieval
from .autodiff import Tape, Tensor
from .config import RunConfig
from .data import DatasetManifest, load_image
from .model import (CheckpointError, SFDEModel, load_checkpoint,
                    save_checkpoint)


# images per forward pass in `extract_embeddings`: past 16 the pass gets no
# faster and the peak memory grows
EMBED_BATCH = 16


class NumericError(RuntimeError):
    """Non-finite loss with per-branch diagnostics."""


def cosine_warmup_lr(step, total_steps, peak, floor=0.0, warmup_fraction=0.1):
    """0 at step 0, linear to `peak` at warmup_fraction*total_steps, then
    cosine decay to `floor` at `total_steps`. Always a Python float, so it
    never widens float32 parameters (NEP 50 promotion)."""
    warm = max(1, round(warmup_fraction * total_steps))
    if step < warm:
        return float(peak * step / warm)
    progress = (step - warm) / max(1, total_steps - warm)
    progress = min(1.0, progress)
    return float(floor + (peak - floor) * 0.5 * (1.0 + np.cos(np.pi * progress)))


class AdamW:
    """Adaptive moment estimation with decoupled weight decay. The moment
    decays and epsilon are the ones `model.OPTIMIZER_NOTE` states."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, weight_decay=0.05):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        """One update; every parameter keeps its own dtype."""
        lr = float(lr)
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mh = self.m[i] / (1 - self.b1 ** self.t)
            vh = self.v[i] / (1 - self.b2 ** self.t)
            p.data = p.data - lr * mh / (np.sqrt(vh) + self.eps)
            if self.weight_decay and p.weight_decay:
                p.data = p.data - lr * self.weight_decay * p.data
            if p.clamp_range is not None:
                p.data = np.clip(p.data, *p.clamp_range)


@dataclass
class StepLog:
    step: int
    lr: float
    ce: float
    infonce: float
    dsa: float
    total: float


class ImageCache:
    def __init__(self, size):
        self.size = size
        self._cache = {}

    def get(self, entry):
        if entry.id not in self._cache:
            self._cache[entry.id] = load_image(entry.path, self.size)
        return self._cache[entry.id]


def compute_norm_stats(manifest: DatasetManifest, cache: ImageCache):
    """Per-channel mean/std over the training split (after resize)."""
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    count = 0
    for e in manifest.subset("train"):
        img = cache.get(e)
        acc += img.mean(axis=(1, 2))
        acc2 += (img ** 2).mean(axis=(1, 2))
        count += 1
    mean = acc / count
    std = np.sqrt(np.maximum(acc2 / count - mean ** 2, 1e-8))
    return mean.astype(np.float32), std.astype(np.float32)


def standardize(images, mean, std):
    return (images - mean[:, None, None]) / std[:, None, None]


def compute_batch_losses(model: SFDEModel, drone_imgs, sat_imgs, labels,
                         weights, training=True, rng=None):
    """Forward both views through the shared model (one combined batch, so
    batch-norm sees the symmetric composition) and compute the three terms."""
    n = drone_imgs.shape[0]
    batch = Tensor(np.concatenate([drone_imgs, sat_imgs], axis=0).astype(
        model.cfg.np_dtype, copy=False))
    out = model(batch, training=training, rng=rng)

    def contrast(feature_map, gem_p):
        if feature_map is None or n < 2:
            return None
        emb = losses.pool_for_contrast(feature_map, gem_p)
        return losses.info_nce(ops.slice_(emb, slice(0, n)),
                               ops.slice_(emb, slice(n, 2 * n)),
                               model.log_temperature)

    ce = None
    if out.global_desc is not None and out.global_desc.logits is not None:
        both_labels = np.concatenate([labels, labels])
        ce = losses.cross_entropy(out.global_desc.logits, both_labels)
    nce = contrast(out.local_map, model.pool_p_local)
    dsa = contrast(out.freq_map, model.pool_p_freq)
    total = losses.total_loss(ce, nce, dsa, weights)
    return total, ce, nce, dsa, out


def _branch_norms(out):
    parts = {"backbone": out.features}
    if out.global_desc is not None:
        parts["global"] = out.global_desc.embedding
    if out.local_map is not None:
        parts["local"] = out.local_map
    if out.freq_map is not None:
        parts["frequency"] = out.freq_map
    return {k: float(np.linalg.norm(v.data)) for k, v in parts.items()}


def train(config: RunConfig, manifest: DatasetManifest, ckpt_path,
          log_path=None, probe=None, probe_every=0):
    """Run the training loop; returns the list of StepLogs.

    `probe(model, norm_stats, class_index, step)` is an optional callback
    (used by tests to track retrieval quality during training).
    """
    problems = manifest.validate_pairing("train")
    if problems:
        raise ValueError("manifest validation failed: " + "; ".join(problems))
    if not manifest.subset("train"):
        raise ValueError("manifest has no train entries")

    classes = sorted({e.class_id for e in manifest.subset("train")})
    class_index = {cid: i for i, cid in enumerate(classes)}
    by_class = {cid: {"drone": [], "satellite": []} for cid in classes}
    for e in manifest.subset("train"):
        by_class[e.class_id][e.view].append(e)

    rng = np.random.default_rng(config.seed)
    model = SFDEModel(config.model_config(num_classes=len(classes)), rng)
    cache = ImageCache(config.input_size)
    mean, std = compute_norm_stats(manifest, cache)
    weights = config.loss_weights()
    opt = AdamW(model.parameters(), weight_decay=config.weight_decay)

    logs = []
    initial_total = None
    for step in range(config.steps):
        pairs = min(config.batch_pairs, len(classes))
        batch_classes = rng.choice(classes, size=pairs, replace=False)
        drone_imgs, sat_imgs, labels = [], [], []
        for cid in batch_classes:
            d = by_class[cid]["drone"][rng.integers(len(by_class[cid]["drone"]))]
            s = by_class[cid]["satellite"][rng.integers(len(by_class[cid]["satellite"]))]
            di = cache.get(d).copy()
            si = cache.get(s).copy()
            if rng.random() < config.flip_probability:
                di = di[:, :, ::-1].copy()
            if rng.random() < config.flip_probability:
                si = si[:, :, ::-1].copy()
            drone_imgs.append(standardize(di, mean, std))
            sat_imgs.append(standardize(si, mean, std))
            labels.append(class_index[cid])
        drone_imgs = np.stack(drone_imgs)
        sat_imgs = np.stack(sat_imgs)
        labels = np.array(labels)

        model.zero_grads()
        with Tape() as tape:
            total, ce, nce, dsa, out = compute_batch_losses(
                model, drone_imgs, sat_imgs, labels, weights,
                training=True, rng=rng)
        if not np.isfinite(total.data):
            raise NumericError(
                f"non-finite loss at step {step}; branch activation norms: "
                f"{_branch_norms(out)}")
        tape.backward(total)
        lr = cosine_warmup_lr(step, config.steps, config.learning_rate,
                              config.lr_floor, config.warmup_fraction)
        opt.step(lr)

        log = StepLog(step, lr,
                      float(ce.data) if ce is not None else 0.0,
                      float(nce.data) if nce is not None else 0.0,
                      float(dsa.data) if dsa is not None else 0.0,
                      float(total.data))
        logs.append(log)
        if initial_total is None:
            initial_total = log.total
        if probe is not None and probe_every and (step + 1) % probe_every == 0:
            probe(model, (mean, std), class_index, step)

    meta = {
        "norm_mean": mean.tolist(),
        "norm_std": std.tolist(),
        "classes": classes,
        "seed": config.seed,
        "steps": config.steps,
    }
    save_checkpoint(ckpt_path, model, meta)
    if log_path:
        with open(log_path, "w") as fh:
            fh.write("step,lr,loss_ce,loss_infonce,loss_dsa,loss_total\n")
            for l in logs:
                fh.write(f"{l.step},{l.lr:.8f},{l.ce:.8f},{l.infonce:.8f},"
                         f"{l.dsa:.8f},{l.total:.8f}\n")
    return model, (mean, std), logs


# ---------------------------------------------------------------------------
# embedding extraction
# ---------------------------------------------------------------------------

def extract_embeddings(model: SFDEModel, norm_stats, entries, input_size):
    """One unit-norm record per manifest entry, eval mode, deterministic.

    The forward pass runs on chunks of EMBED_BATCH images. In eval mode every
    kernel treats each sample on its own (BN uses running stats), so the
    records are bit-identical to embedding one image at a time."""
    mean, std = norm_stats
    p_local = float(model.pool_p_local.data)
    p_freq = float(model.pool_p_freq.data)
    records = []
    for start in range(0, len(entries), EMBED_BATCH):
        chunk = entries[start:start + EMBED_BATCH]
        imgs = np.stack([load_image(e.path, input_size) for e in chunk])
        imgs = standardize(imgs, mean, std).astype(model.cfg.np_dtype)
        out = model(Tensor(imgs), training=False)
        for i, e in enumerate(chunk):
            # one record at a time: a batched axis=1 norm would sum in
            # another order and change the last bits
            vec = retrieval.assemble_embedding(
                out.global_desc.embedding.data[i]
                if out.global_desc is not None else None,
                out.local_map.data[i] if out.local_map is not None else None,
                out.freq_map.data[i] if out.freq_map is not None else None,
                p_local=p_local, p_freq=p_freq)
            records.append(
                retrieval.EmbeddingRecord(e.id, e.view, e.class_id, vec))
    return records


def embed_from_checkpoint(ckpt_path, entries, out_path):
    model, header = load_checkpoint(ckpt_path)
    norm_stats = []
    for key in ("norm_mean", "norm_std"):
        try:
            norm_stats.append(np.array(header[key], dtype=np.float32).reshape(3))
        except (KeyError, TypeError, ValueError):
            raise CheckpointError(
                f"checkpoint header needs a 3-element {key}") from None
    records = extract_embeddings(model, norm_stats, entries,
                                 model.cfg.input_size)
    retrieval.save_embeddings(records, out_path)
    return records


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------

def _csv_field(text):
    """`text` as one CSV field, quoted RFC 4180 style only when it must be."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _byte_table(texts, width=1):
    """The UTF-8 bytes of each string as a 1-D `S` array, padded with NUL to
    the longest string or to `width`, whichever is wider."""
    encoded = [t.encode() for t in texts]
    return np.array(encoded, dtype=f"S{max([width] + [len(e) for e in encoded])}")


def _id_fields(ids):
    """Each id as one CSV field plus `,`, in a `_byte_table`."""
    for i in ids:
        if "\0" in i:
            raise ValueError(f"id {i!r} holds a NUL character")
    return _byte_table([_csv_field(i) + "," for i in ids])


_HEADS = _byte_table([f"{sign}{d}." for sign in ("", "-") for d in range(10)])
_DIGITS4 = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view("S4").ravel()
_PAIRS = _byte_table(["negative,", "positive,"])
_NEWLINE = np.array(b"\n")


def _fixed8(values):
    """`f"{v:.8f}"` of each float64 in `values`, as a NUL-padded `S` array.

    The digits come from n = rint(|v| * 1e8). For |v| < 9.5 the float64
    product is within 6e-8 of the exact |v| * 1e8, so n is the correctly
    rounded value unless the product lies within 1e-6 of a .5 boundary.
    Those values, |v| >= 9.5 and non-finite values are formatted by Python.
    """
    mag = np.abs(values)
    fast = mag < 9.5
    scaled = np.where(fast, mag, 0.0) * 1e8
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6
    slow = _byte_table([f"{v:.8f}" for v in values[~fast].tolist()], 11)
    # n <= 9.5e8 fits int32, whose floor division is several times faster
    # than np.divmod or int64 division
    n = np.rint(scaled).astype(np.int32)
    whole = n // 10 ** 8
    frac = n - whole * 10 ** 8
    hi = frac // 10 ** 4
    lo = frac - hi * 10 ** 4
    out = np.zeros(values.shape, {"names": ["head", "hi", "lo"],
                                  "formats": ["S3", "S4", "S4"],
                                  "offsets": [0, 3, 7],
                                  "itemsize": slow.itemsize})
    out["head"] = _HEADS.take(whole + 10 * np.signbit(values))
    out["hi"], out["lo"] = _DIGITS4.take(hi), _DIGITS4.take(lo)
    out = out.view(slow.dtype)
    out[~fast] = slow
    return out


def _csv_rows(*columns):
    """Rows of `S` fields, one field from each column, the columns broadcast
    to one shape, as back-to-back bytes with a newline after each row. No
    field holds NUL, so dropping every NUL drops just the padding."""
    columns += (_NEWLINE,)
    rows = np.empty(np.broadcast_shapes(*(c.shape for c in columns)),
                    [(f"f{i}", c.dtype) for i, c in enumerate(columns)])
    for i, c in enumerate(columns):
        rows[f"f{i}"] = c
    raw = rows.view(np.uint8)
    return raw[raw != 0].tobytes()


# about this many CSV rows are built at a time, so the temporaries of a
# block of queries stay at a few MB
_REPORT_BLOCK_ROWS = 1 << 15


def write_reports(report, queries, gallery, out_dir):
    """Ranking CSV, summary CSV, and the distances CSV, which repeats every
    ranked (query, gallery) pair with its positive/negative label and its
    cosine distance `1 - score`. Query blocks are written in ascending
    query-id order.

    The rankings and distances CSVs are UTF-8 bytes built by numpy, a block
    of queries at a time; each score and distance field is the correctly
    rounded `%.8f` of its float64 value, as Python's `f"{v:.8f}"` gives.
    An id holding NUL is a `ValueError`."""
    os.makedirs(out_dir, exist_ok=True)
    rank_path = os.path.join(out_dir, "retrieval_rankings.csv")
    summary_path = os.path.join(out_dir, "retrieval_summary.csv")
    hist_path = os.path.join(out_dir, "retrieval_distances.csv")
    qids, gids = report.query_ids, report.gallery_ids
    qclass = {q.id: q.class_id for q in queries}
    gclass = {g.id: g.class_id for g in gallery}
    # classes as small ints that compare equal when the classes do (two ids
    # missing from `queries`/`gallery` share the class None)
    codes = {}
    gcode = np.array([codes.setdefault(gclass.get(g), len(codes))
                      for g in gids], dtype=np.intp)
    qcode = np.array([codes.get(qclass.get(q), -1) for q in qids], dtype=np.intp)
    qfields, gfields = _id_fields(qids), _id_fields(gids)
    ranks = _byte_table([f"{r}," for r in range(1, len(gids) + 1)])
    order = np.asarray(report.order, dtype=np.intp).reshape(len(qids), len(gids))
    scores = np.asarray(report.scores, dtype=np.float64).reshape(order.shape)
    by_id = sorted(range(len(qids)), key=qids.__getitem__)
    step = max(1, _REPORT_BLOCK_ROWS // max(1, len(gids)))
    with open(rank_path, "wb") as rank_fh, open(hist_path, "wb") as hist_fh:
        rank_fh.write(b"query_id,rank,gallery_id,score\n")
        hist_fh.write(b"query_id,gallery_id,pair,cosine_distance\n")
        for start in range(0, len(by_id), step):
            rows = by_id[start:start + step]
            o, s, q = order[rows], scores[rows], qfields[rows][:, None]
            g = gfields[o]
            rank_fh.write(_csv_rows(q, ranks, g, _fixed8(s)))
            pair = _PAIRS[(gcode[o] == qcode[rows, None]).astype(np.intp)]
            hist_fh.write(_csv_rows(q, g, pair, _fixed8(1.0 - s)))
    with open(summary_path, "w") as fh:
        fh.write("metric,K,value\n")
        for k in sorted(report.recall_at):
            fh.write(f"recall,{k},{report.recall_at[k]:.8f}\n")
        fh.write(f"mean_ap,,{report.mean_ap:.8f}\n")
        fh.write(f"skipped_queries,,{report.skipped_queries}\n")
    return rank_path, summary_path, hist_path
