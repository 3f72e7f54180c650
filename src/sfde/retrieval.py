"""Descriptor assembly, cosine ranking, Recall@K / AP, and the persistent
embedding store.

Store layout (binary, little-endian): magic "SFDE", u32 format version,
u32 record count, u32 dim, then per record {u16 id length, id UTF-8 without
NUL, u8 view (0=drone, 1=satellite), u32 class_id, dim x float32}, and
nothing after the last record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Tensor
from .binio import Reader, write_atomic

MAGIC = b"SFDE"
VERSION = 1

VIEW_CODES = {"drone": 0, "satellite": 1}
CODE_VIEWS = {v: k for k, v in VIEW_CODES.items()}


class StoreError(ValueError):
    code = "store"


class StoreMagicError(StoreError):
    code = "magic-mismatch"


class StoreVersionError(StoreError):
    code = "version-mismatch"


class StoreTruncatedError(StoreError):
    code = "truncated"


class StoreVectorError(StoreError):
    code = "non-unit-vector"


class StoreNonFiniteError(FloatingPointError):
    """A NaN/Inf vector: a numeric failure (exit 2), not a format error."""
    code = "non-finite-vector"


@dataclass
class EmbeddingRecord:
    id: str
    view: str                 # "drone" | "satellite"
    class_id: int
    vector: np.ndarray        # unit-norm float32, length D


@dataclass
class RetrievalReport:
    """Metrics plus the full ranking of every query, as arrays.

    The ranking is exact: one float64 score matrix `Q @ G.T`, each row in
    descending score order with ties broken by ascending gallery id, so
    it holds O(Q x G) memory. Row i of `order` holds indices into
    `gallery_ids`, best first, for query `query_ids[i]`; row i of `scores`
    holds the matching scores.
    """
    query_ids: list
    gallery_ids: list
    order: np.ndarray         # (Q, G) gallery indices in rank order
    scores: np.ndarray        # (Q, G) float64 scores in rank order
    recall_at: dict           # K -> fraction
    mean_ap: float
    skipped_queries: int = 0  # queries with no relevant gallery item


# ---------------------------------------------------------------------------
# descriptor assembly
# ---------------------------------------------------------------------------

def assemble_embedding(global_embedding, local_map, freq_map,
                       p_local=3.0, p_freq=3.0):
    """Normalized concatenation of the per-branch descriptors.

    Any argument may be None (branch disabled); each present segment is
    L2-normalized before concatenation and the concatenation is normalized
    again. global_embedding: (E,) array; maps: (C, H, W) arrays.
    """
    segments = []
    if global_embedding is not None:
        segments.append(("global", np.asarray(global_embedding, dtype=np.float64)))
    if local_map is not None:
        segments.append(("local", _gem_np(local_map, p_local)))
    if freq_map is not None:
        segments.append(("frequency", _gem_np(freq_map, p_freq)))
    if not segments:
        raise ValueError("no branch outputs to assemble")
    parts = []
    for name, seg in segments:
        if not np.all(np.isfinite(seg)):
            raise FloatingPointError(f"non-finite values in {name} branch output")
        parts.append(seg / max(np.linalg.norm(seg), 1e-12))
    vec = np.concatenate(parts)
    return (vec / max(np.linalg.norm(vec), 1e-12)).astype(np.float32)


def _gem_np(feature_map, p):
    pooled = ops.gem_pool(Tensor(np.asarray(feature_map)), float(p))
    return pooled.data.reshape(-1).astype(np.float64)


# ---------------------------------------------------------------------------
# ranking and metrics
# ---------------------------------------------------------------------------

def cosine_topk(queries, gallery, k):
    """Top-k gallery records by dot product for an (Nq, D) block of query
    vectors (all vectors unit-norm).

    Exact brute-force search: the scores are one float64 matrix product
    `Q @ G.T`, in which every product of float32 values is exact, and each
    row is ordered by descending score, ties by ascending id, so rankings
    are reproducible. It holds O(Q x G) memory. Returns `(order, scores)`,
    two (Nq, k) arrays of gallery indices and their scores.
    """
    if not gallery:
        raise ValueError("empty gallery")
    if k > len(gallery):
        raise ValueError(f"K={k} exceeds gallery size {len(gallery)}")
    by_id = np.array(sorted(range(len(gallery)), key=lambda i: gallery[i].id),
                     dtype=np.intp)
    vectors = np.array([gallery[i].vector for i in by_id], dtype=np.float64)
    scores = np.asarray(queries, dtype=np.float64) @ vectors.T
    # a stable sort over id-ordered columns breaks score ties by id
    ranks = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    # gathering the scores first frees the unsorted ones before `order` is
    # built: three (Q, G) arrays are live at once, not four
    scores = np.take_along_axis(scores, ranks, axis=1)
    return by_id[ranks], scores


def average_precision(ranked_ids, relevant):
    """Mean of precision-at-rank over the relevant items' ranks."""
    if not relevant:
        raise ValueError("average_precision needs a non-empty relevant set")
    return _ap_at(np.flatnonzero([rid in relevant for rid in ranked_ids]))


def _ap_at(positions):
    """Average precision from the 0-based ranks of the relevant items."""
    if not len(positions):
        return 0.0
    return float(np.mean(np.arange(1, len(positions) + 1) / (positions + 1)))


def evaluate(queries, gallery, k_values):
    """Rank the full gallery for every query; relevance = class_id equality.
    Queries without any relevant gallery item are excluded from the means
    and counted in `skipped_queries`. Ids must be unique within the query
    list and within the gallery."""
    k_values = sorted(k_values)
    if not gallery:
        raise ValueError("empty gallery")
    if min(k_values) < 1:
        raise ValueError(f"K={min(k_values)} is below 1; every K must be at "
                         "least 1")
    if max(k_values) > len(gallery):
        raise ValueError(f"K={max(k_values)} exceeds gallery size {len(gallery)}; "
                         "pass a smaller --k list")
    query_ids = [q.id for q in queries]
    gallery_ids = [r.id for r in gallery]
    for what, ids in (("query", query_ids), ("gallery", gallery_ids)):
        seen = set()
        for i in ids:
            if i in seen:
                raise ValueError(f"duplicate {what} id {i!r}")
            seen.add(i)

    block = np.array([q.vector for q in queries], dtype=np.float64)
    block = block.reshape(len(queries), len(gallery[0].vector))
    order, scores = cosine_topk(block, gallery, len(gallery))
    qcls = np.array([q.class_id for q in queries], dtype=np.int64)
    gcls = np.array([r.class_id for r in gallery], dtype=np.int64)
    rel = gcls[order] == qcls[:, None]
    rel = rel[rel.any(axis=1)]
    aps = [_ap_at(np.flatnonzero(row)) for row in rel]

    n = len(aps)
    return RetrievalReport(
        query_ids=query_ids,
        gallery_ids=gallery_ids,
        order=order,
        scores=scores,
        recall_at={k: (float(np.mean(rel[:, :k].any(axis=1))) if n else 0.0)
                   for k in k_values},
        mean_ap=float(np.mean(aps)) if n else 0.0,
        skipped_queries=len(queries) - n,
    )


# ---------------------------------------------------------------------------
# embedding store
# ---------------------------------------------------------------------------

def save_embeddings(records, path):
    """Atomic write (temp file + rename)."""
    dim = len(records[0].vector) if records else 0
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<III", VERSION, len(records), dim)
    for r in records:
        vec = np.asarray(r.vector, dtype="<f4")
        if dim and vec.shape != (dim,):
            raise StoreError(f"record {r.id!r} has dim {vec.shape}, expected {dim}")
        if not np.isfinite(vec).all():
            raise StoreNonFiniteError(f"record {r.id!r} vector is not finite")
        if "\0" in r.id:
            raise StoreError(f"record {r.id!r} id holds a NUL character")
        rid = r.id.encode()
        if len(rid) > 0xFFFF:
            raise StoreError(f"record id {r.id[:32]!r}... is {len(rid)} bytes; "
                             "the store holds ids of at most 65535 bytes")
        if r.view not in VIEW_CODES:
            raise StoreError(f"record {r.id!r} has unknown view {r.view!r}")
        if not 0 <= r.class_id <= 0xFFFFFFFF:
            raise StoreError(f"record {r.id!r} has class_id {r.class_id}; "
                             "the store holds class ids 0..4294967295")
        blob += struct.pack("<H", len(rid)) + rid
        blob += struct.pack("<BI", VIEW_CODES[r.view], r.class_id)
        blob += vec.tobytes()
    write_atomic(path, blob)


def load_embeddings(path):
    """The records of the store at `path`. Every format or numeric error in
    the store names `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_store(blob)
    except (StoreError, StoreNonFiniteError) as e:
        raise type(e)(f"store {path}: {e}") from None


def _parse_store(blob):
    r = Reader(blob, StoreError, StoreTruncatedError)
    if r.take(4, "magic") != MAGIC:
        raise StoreMagicError("bad store magic")
    version, count, dim = r.unpack("<III", "header")
    if version != VERSION:
        raise StoreVersionError(f"unsupported store version {version}")
    records = []
    for i in range(count):
        (nlen,) = r.unpack("<H", f"record {i} id length")
        rid = r.text(nlen, f"record {i} id")
        if "\0" in rid:
            raise StoreError(f"record {rid!r} id holds a NUL character")
        view_code, class_id = r.unpack("<BI", f"record {i} tags")
        if view_code not in CODE_VIEWS:
            raise StoreError(f"record {rid!r} has unknown view code {view_code}")
        vec = np.frombuffer(r.take(4 * dim, f"record {i} vector"), dtype="<f4")
        if not np.isfinite(vec).all():
            raise StoreNonFiniteError(f"record {rid!r} vector is not finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-4:
            raise StoreVectorError(
                f"record {rid!r} vector norm {norm:.6f} is not unit")
        records.append(EmbeddingRecord(rid, CODE_VIEWS[view_code], class_id,
                                       np.array(vec)))
    r.end()
    return records
