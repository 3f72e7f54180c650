"""Desk-scale training loop: decoupled-weight-decay adaptive moments,
cosine-annealed step size with 10% warm-up, symmetric batch composition,
and deterministic embedding extraction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import losses, ops, retrieval
from .autodiff import Constant, Tape, Tensor
from .config import RunConfig
from .data import DatasetManifest, load_image
from .model import (CheckpointError, SFDEModel, load_checkpoint,
                    save_checkpoint)


# images per forward pass in `extract_embeddings`, whose helper thread decodes
# the next chunk meanwhile: past 16 the pass gets no faster and the peak
# memory grows (on 2 cores with one BLAS thread, 192 images at 128 px from
# 256 px sources took 0.39, 0.33 and 0.40 s at 8, 16 and 32, as two calls of
# 128 and 64 images)
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
    """Each image decoded once, by entry id, at `size`. `train` standardizes
    the cached images in place once `compute_norm_stats` has read them, so
    from then on `get` returns the standardized image; a flip commutes with
    the per-channel standardization, so flipping it afterwards gives the
    same bits as before."""

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
    """`(images - mean) / std` per channel, in place: returns `images`."""
    np.subtract(images, mean[:, None, None], out=images)
    return np.divide(images, std[:, None, None], out=images)


def compute_batch_losses(model: SFDEModel, drone_imgs, sat_imgs, labels,
                         weights, training=True, rng=None):
    """Forward both views through the shared model (one combined batch, so
    batch-norm sees the symmetric composition) and compute the three terms.
    `drone_imgs` and `sat_imgs` each hold n (3, S, S) images, as a list or
    as an (n, 3, S, S) array; the combined batch is stacked from them in one
    copy. The batch is a `Constant`: no gradient is taken for the images."""
    n = len(drone_imgs)
    batch = Constant(np.stack([*drone_imgs, *sat_imgs]).astype(
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
    """Run the training loop; returns `(model, (mean, std), logs)`: the
    trained model, the float32 per-channel norm stats the checkpoint also
    holds, and one StepLog per step.

    Each training image is decoded and standardized once, before the first
    step, and kept in an `ImageCache`; a step picks (and maybe flips) the
    cached images, and `compute_batch_losses` stacks them into the batch.
    The image batch gets no gradient (`Constant`).

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
    for e in manifest.subset("train"):
        standardize(cache.get(e), mean, std)
    weights = config.loss_weights()
    opt = AdamW(model.parameters(), weight_decay=config.weight_decay)

    logs = []
    for step in range(config.steps):
        pairs = min(config.batch_pairs, len(classes))
        batch_classes = rng.choice(classes, size=pairs, replace=False)
        drone_imgs, sat_imgs, labels = [], [], []
        for cid in batch_classes:
            d = by_class[cid]["drone"][rng.integers(len(by_class[cid]["drone"]))]
            s = by_class[cid]["satellite"][rng.integers(len(by_class[cid]["satellite"]))]
            di = cache.get(d)
            si = cache.get(s)
            if rng.random() < config.flip_probability:
                di = di[:, :, ::-1]
            if rng.random() < config.flip_probability:
                si = si[:, :, ::-1]
            drone_imgs.append(di)
            sat_imgs.append(si)
            labels.append(class_index[cid])
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

def _decode_chunk(chunk, input_size, mean, std):
    """The standardized images of `chunk` as one (B, 3, S, S) float32 array."""
    imgs = np.empty((len(chunk), 3, input_size, input_size), np.float32)
    for i, e in enumerate(chunk):
        imgs[i] = load_image(e.path, input_size)
    return standardize(imgs, mean, std)


def extract_embeddings(model: SFDEModel, norm_stats, entries):
    """One unit-norm record per manifest entry, eval mode, deterministic.
    Images are resized to the model's `cfg.input_size`.

    The forward pass runs on chunks of EMBED_BATCH images, and each chunk's
    descriptors are assembled in one `assemble_embedding` call. In eval mode
    every kernel treats each sample on its own (BN uses running stats), and
    the assembly normalizes one record at a time, so the records are
    bit-identical to embedding one image at a time.

    One helper thread decodes and standardizes the next chunk while the
    calling thread runs the model on this one; the model only ever runs on
    the calling thread. At most one decoded chunk waits, so the extra memory
    is one chunk of float32 images (3 MiB at 128 px, 12 MiB at 256 px) plus
    one image's decode temporaries. A decode error is raised in manifest
    order, and on any error the pending decode is cancelled and the helper
    joined first. `norm_stats` are float32, as `compute_norm_stats` and the
    checkpoint header give them."""
    mean, std = norm_stats
    input_size = model.cfg.input_size
    p_local = float(model.pool_p_local.data)
    p_freq = float(model.pool_p_freq.data)
    chunks = [entries[start:start + EMBED_BATCH]
              for start in range(0, len(entries), EMBED_BATCH)]
    # imported here, not at the top: concurrent.futures adds about 0.5 MiB
    # of RSS, which a process that only trains or evaluates need not pay
    from concurrent.futures import ThreadPoolExecutor
    records = []
    pool = ThreadPoolExecutor(max_workers=1)

    def decode(k):
        return pool.submit(_decode_chunk, chunks[k], input_size, mean, std)

    try:
        pending = decode(0) if chunks else None
        for k, chunk in enumerate(chunks):
            imgs = pending.result()
            if k + 1 < len(chunks):
                pending = decode(k + 1)
            out = model(Tensor(imgs.astype(model.cfg.np_dtype, copy=False)),
                        training=False)
            g = out.global_desc
            vecs = retrieval.assemble_embedding(
                g.embedding.data if g is not None else None,
                out.local_map.data if out.local_map is not None else None,
                out.freq_map.data if out.freq_map is not None else None,
                p_local=p_local, p_freq=p_freq)
            records += [retrieval.EmbeddingRecord(e.id, e.view, e.class_id, v)
                        for e, v in zip(chunk, vecs)]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
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
    records = extract_embeddings(model, norm_stats, entries)
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


# `d.` for d = 0..9, then `-d.`, three bytes wide; a block without a sign
# bit takes its heads from `_HEADS2`, the first ten two bytes wide
_HEADS = _byte_table([f"{sign}{d}." for sign in ("", "-") for d in range(10)])
_HEADS2 = _HEADS[:10].astype("S2")
_DIGITS4 = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view("S4").ravel()
_PAIRS = _byte_table(["negative,", "positive,"])


def _fixed8(values):
    """`f"{v:.8f}"` of each float64 in `values`, as a NUL-padded `S` array.

    The digits come from n = rint(|v| * 1e8). For |v| < 9.5 the float64
    product is within 6e-8 of the exact |v| * 1e8, so n is the correctly
    rounded value unless the product lies within 1e-6 of a .5 boundary.
    Those values, |v| >= 9.5 and non-finite values are formatted by Python.

    A field is three bytes of head (`d.` padded with NUL, or `-d.`) and
    eight digits. When no value has its sign bit set the head is `d.` and
    the field ten bytes, so a block of such values below 9.5 has no NUL at
    all. The field widens to the longest value formatted by Python."""
    mag = np.abs(values)
    fast = mag < 9.5
    scaled = np.where(fast, mag, 0.0) * 1e8
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6
    sign = np.signbit(values)
    heads = _HEADS if sign.any() else _HEADS2
    width = heads.itemsize + 8
    slow = _byte_table([f"{v:.8f}" for v in values[~fast].tolist()], width)
    # n <= 9.5e8 fits int32, whose floor division is several times faster
    # than np.divmod or int64 division
    n = np.rint(scaled).astype(np.int32)
    whole = n // 10 ** 8
    frac = n - whole * 10 ** 8
    hi = frac // 10 ** 4
    lo = frac - hi * 10 ** 4
    out = np.empty(values.shape + (slow.itemsize,), np.uint8)
    _copy_field(out, 0, heads.take(whole + 10 * sign))
    _copy_field(out, width - 8, _DIGITS4.take(hi))
    _copy_field(out, width - 4, _DIGITS4.take(lo))
    out[..., width:] = 0
    out = out.view(slow.dtype)[..., 0]
    out[~fast] = slow
    return out


def _copy_field(rows, start, column):
    """Copy the `S` array `column`, broadcast, into bytes `start` onward of
    each row of the uint8 buffer `rows`. The copy goes through `V` views:
    unlike the assignment of a structured-array field, it does not hold the
    interpreter lock, so two report writers run side by side."""
    width = column.itemsize
    rows[..., start:start + width].view(f"V{width}")[..., 0] = column.view(
        f"V{width}")


def _csv_rows(*columns):
    """Rows of `S` fields, one field from each column, the columns broadcast
    to one shape, as a uint8 array of back-to-back bytes with a newline
    after each row. A field holds NUL only as padding, so dropping every NUL drops just the
    padding; a block whose columns each have one width has none, and its
    row buffer is returned as it is."""
    rows = np.empty(np.broadcast_shapes(*(c.shape for c in columns))
                    + (sum(c.itemsize for c in columns) + 1,), np.uint8)
    start = 0
    for c in columns:
        _copy_field(rows, start, c)
        start += c.itemsize
    rows[..., start] = ord("\n")
    raw = rows.reshape(-1)
    return raw if raw.all() else raw[raw != 0]


# about this many CSV rows are built at a time by each of the two writers,
# so the temporaries of the two blocks in flight stay at a few MB
_REPORT_BLOCK_ROWS = 1 << 14


def _write_all(fd, blob):
    """Write every byte of `blob` at `fd`'s position."""
    view = memoryview(blob)
    while view:
        view = view[os.write(fd, view):]


def _cut(fd):
    """Cut the file open at `fd` where its position is."""
    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_csv(path, header, blocks, fields):
    """A CSV file: `header`, then the rows of `fields(rows)` for each block.

    An existing file is written over from byte 0 and then cut at the last
    byte written, on success and on error alike, so it ends where the new
    bytes end, as after `open(path, "wb")`. Unlike that, it keeps the old
    file's blocks instead of freeing them for the new rows to allocate
    again: writing the two eval-gallery CSVs (63 MB) over old ones took
    16.5 ms this way and 51-52 ms after truncating (ext4, 2 vCPUs, medians
    of 15); on tmpfs the saving was inside the run-to-run spread. The
    bytes go to the file unbuffered, so a write that fails leaves nothing
    pending and the cut is at the last byte the file took. A cut that
    fails after an error is not raised over that error."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        try:
            _write_all(fd, header)
            for rows in blocks:
                _write_all(fd, _csv_rows(*fields(rows)))
        except BaseException:
            try:
                _cut(fd)
            except OSError:
                pass
            raise
        _cut(fd)
    finally:
        os.close(fd)


def write_reports(report, out_dir):
    """Ranking CSV, summary CSV, and the distances CSV, which repeats every
    ranked (query, gallery) pair with its cosine distance `1 - score` and a
    positive/negative label read from `report.relevant`. Query blocks are
    written in ascending query-id order.

    The rankings and distances CSVs are UTF-8 bytes built by numpy, a block
    of queries at a time; each score and distance field is the correctly
    rounded `%.8f` of its float64 value, as Python's `f"{v:.8f}"` gives.
    One helper thread writes the distances CSV while the calling thread
    writes the rankings CSV, so the two files share the machine's cores;
    neither file's bytes depend on how the threads interleave. On any error
    the helper is joined before the error propagates; an error in the
    rankings CSV (an interrupt included) wins over one in the distances CSV
    and stops the helper after the block it is writing. An id holding NUL
    is a `ValueError`, raised before the helper starts.

    Existing CSVs are written over in place and cut to length
    (`_write_csv`), so on an error each CSV ends at its last byte written.
    An existing summary is removed before either CSV is written, so
    `out_dir` must allow removing a file, and the summary is written last:
    a failed or killed run leaves no summary, and a directory without one
    holds no complete report. A process killed mid-write can leave a CSV
    whose new rows are followed by the old file's remaining bytes."""
    os.makedirs(out_dir, exist_ok=True)
    rank_path = os.path.join(out_dir, "retrieval_rankings.csv")
    summary_path = os.path.join(out_dir, "retrieval_summary.csv")
    hist_path = os.path.join(out_dir, "retrieval_distances.csv")
    qids, gids = report.query_ids, report.gallery_ids
    order, scores, relevant = report.order, report.scores, report.relevant
    qfields, gfields = _id_fields(qids), _id_fields(gids)
    ranks = _byte_table([f"{r}," for r in range(1, len(gids) + 1)])
    by_id = sorted(range(len(qids)), key=qids.__getitem__)
    step = max(1, _REPORT_BLOCK_ROWS // max(1, len(gids)))
    blocks = [by_id[start:start + step] for start in range(0, len(by_id), step)]

    def rank_fields(rows):
        return (qfields[rows][:, None], ranks, gfields[order[rows]],
                _fixed8(scores[rows]))

    def distance_fields(rows):
        pair = _PAIRS[relevant[rows].astype(np.intp)]
        return (qfields[rows][:, None], gfields[order[rows]], pair,
                _fixed8(1.0 - scores[rows]))

    failed = False

    def distance_blocks():
        for rows in blocks:
            if failed:
                return
            yield rows

    try:
        os.remove(summary_path)
    except FileNotFoundError:
        pass
    # imported here for the reason given in `extract_embeddings`
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        distances = pool.submit(
            _write_csv, hist_path, b"query_id,gallery_id,pair,cosine_distance\n",
            distance_blocks(), distance_fields)
        try:
            _write_csv(rank_path, b"query_id,rank,gallery_id,score\n", blocks,
                       rank_fields)
        except BaseException:
            failed = True       # the helper stops after its current block
            raise
        distances.result()
    with open(summary_path, "w") as fh:
        fh.write("metric,K,value\n")
        for k in sorted(report.recall_at):
            fh.write(f"recall,{k},{report.recall_at[k]:.8f}\n")
        fh.write(f"mean_ap,,{report.mean_ap:.8f}\n")
        fh.write(f"skipped_queries,,{report.skipped_queries}\n")
    return rank_path, summary_path, hist_path
