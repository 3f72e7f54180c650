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

# the widest record id (UTF-8 bytes, after its u16 length) and the largest
# class id (u32) a store holds; `_record_problem` also refuses NUL in an id
MAX_ID_BYTES = 0xFFFF
MAX_CLASS_ID = 0xFFFFFFFF

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
    descending score order with ties broken by ascending gallery id (ranked
    a block of queries at a time by `cosine_topk`), so it holds O(Q x G)
    memory. Row i of `order` holds indices into
    `gallery_ids`, best first, for query `query_ids[i]`; row i of `scores`
    holds the matching scores, and row i of `relevant` says which of those
    gallery items are relevant to the query (`evaluate`: the classes match).
    """
    query_ids: list
    gallery_ids: list
    order: np.ndarray         # (Q, G) gallery indices in rank order
    scores: np.ndarray        # (Q, G) float64 scores in rank order
    relevant: np.ndarray      # (Q, G) bool relevance in rank order
    recall_at: dict           # K -> fraction
    mean_ap: float
    skipped_queries: int = 0  # queries with no relevant gallery item


# ---------------------------------------------------------------------------
# descriptor assembly
# ---------------------------------------------------------------------------

def assemble_embedding(global_embedding, local_map, freq_map,
                       p_local=3.0, p_freq=3.0):
    """Normalized concatenation of the per-branch descriptors of a batch,
    as (N, D) float32.

    Any argument may be None (branch disabled); each present segment is
    L2-normalized before concatenation and the concatenation is normalized
    again. global_embedding: (N, E) array; maps: (N, C, H, W) arrays, each
    GeM-pooled in one call.
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
        parts.append(seg / _record_norms(seg))
    vecs = np.concatenate(parts, axis=1)
    return (vecs / _record_norms(vecs)).astype(np.float32)


def _record_norms(vecs):
    """Each row's L2 norm, at least 1e-12, as an (N, 1) column. One record
    at a time: a batched axis=1 norm would sum in another order and change
    the last bits."""
    return np.maximum([[np.linalg.norm(v)] for v in vecs], 1e-12)


def _gem_np(feature_maps, p):
    """(N, C) float64 GeM descriptors of (N, C, H, W) maps."""
    pooled = ops.gem_pool(Tensor(np.asarray(feature_maps)), float(p))
    return pooled.data.reshape(len(feature_maps), -1).astype(np.float64)


# ---------------------------------------------------------------------------
# ranking and metrics
# ---------------------------------------------------------------------------

# cosine_topk sorts about this many scores at a time, so the temporaries of
# a block of queries stay at a few MB
_RANK_BLOCK_SCORES = 1 << 16


def cosine_topk(queries, gallery):
    """Every gallery record ranked by dot product, for an (Nq, D) block of
    query vectors (all vectors unit-norm).

    Exact brute-force search: the scores are one float64 matrix product
    `Q @ G.T`, in which every product of float32 values is exact, and each
    row is ordered by descending score, ties by ascending id, so rankings
    are reproducible. The product is formed once for all queries: OpenBLAS
    sums a row block's dot products in an order that depends on the
    block's shape, so row-block products could differ in the last bit.
    Rows are then ranked a block of about `_RANK_BLOCK_SCORES` scores at a
    time (see `_rank_block`), each block's ranked scores overwriting its
    rows of the score matrix, so it holds two Nq x G arrays at its peak.
    Returns `(order, scores)`, two (Nq, G) arrays of gallery indices and
    their scores; `scores` is the score matrix itself.
    """
    if not gallery:
        raise ValueError("empty gallery")
    by_id = np.array(sorted(range(len(gallery)), key=lambda i: gallery[i].id),
                     dtype=np.intp)
    vectors = np.array([gallery[i].vector for i in by_id], dtype=np.float64)
    scores = np.asarray(queries, dtype=np.float64) @ vectors.T
    order = np.empty(scores.shape, dtype=np.intp)
    step = max(1, _RANK_BLOCK_SCORES // len(gallery))
    for start in range(0, len(scores), step):
        rows = slice(start, start + step)
        # a block's ranked scores overwrite its own rows, which are read only
        # while that block is ranked
        cols, scores[rows] = _rank_block(scores[rows])
        order[rows] = by_id[cols]
    return order, scores


def _rank_block(scores):
    """The columns of each row of `scores` in descending score order, ties
    by ascending column, and their scores: the same as
    `np.argsort(-scores, axis=1, kind="stable")`, NaNs last.

    The default (SIMD) argsort is several times faster than the stable one
    but leaves equal scores in any order. So each row is cut into segments
    of equal sorted values (two NaNs count as equal) and the int64 key
    `segment * n + column`, n the row length, is sorted, which orders each
    segment by column.
    The scores are gathered from `scores` through the repaired columns: a
    segment that holds +0.0 and -0.0 keeps each zero with its column."""
    n = scores.shape[1]
    cols = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, cols, axis=1)
    new = ranked[:, 1:] != ranked[:, :-1]
    new &= ~(np.isnan(ranked[:, 1:]) & np.isnan(ranked[:, :-1]))
    key = np.zeros(scores.shape, dtype=np.int64)
    np.cumsum(new, axis=1, out=key[:, 1:])
    key *= n
    key += cols
    key.sort(axis=1)
    cols = key % n
    return cols, np.take_along_axis(scores, cols, axis=1)


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


def _ap_rows(relevant):
    """`_ap_at` of each row of the (m, G) bool rank-order `relevant`, bit for
    bit, as a float64 array. The rows holding k relevant items are done
    together: one (rows, k) array of their relevant positions per distinct
    k, each row averaged along its contiguous last axis, so numpy sums it in
    the same pairwise order as `_ap_at` sums one row. A row without a
    relevant item gets 0.0."""
    counts = relevant.sum(axis=1)
    aps = np.zeros(len(relevant))
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        pos = np.nonzero(relevant[rows])[1].reshape(-1, k)
        aps[rows] = np.mean(np.arange(1, k + 1) / (pos + 1), axis=1)
    return aps


def evaluate(queries, gallery, k_values):
    """Rank the full gallery for every query. A gallery item is relevant
    when its class id equals the query's; the report's `relevant` holds that
    in rank order. Queries without any relevant gallery item are excluded
    from the means and counted in `skipped_queries`. Each query's AP is
    `_ap_at` of its relevant ranks, computed for all queries with the same
    number of relevant items at once (`_ap_rows`). Each bad input is a
    `ValueError`: an empty gallery, query and gallery widths that differ, a
    K below 1 or above the gallery size, an id repeated within one side."""
    k_values = sorted(k_values)
    if not gallery:
        raise ValueError("empty gallery")
    dim = len(gallery[0].vector)
    if queries and len(queries[0].vector) != dim:
        raise ValueError(f"dimension mismatch: query {len(queries[0].vector)} "
                         f"vs gallery {dim}")
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
    order, scores = cosine_topk(block.reshape(len(queries), dim), gallery)
    # classes as int32 codes that compare equal when the classes do, so the
    # (Q, G) gather of gallery classes is half the size of an int64 one
    codes = {}
    gcls = np.array([codes.setdefault(r.class_id, len(codes)) for r in gallery],
                    dtype=np.int32)
    qcls = np.array([codes.get(q.class_id, -1) for q in queries],
                    dtype=np.int32)
    relevant = gcls[order] == qcls[:, None]
    rel = relevant[relevant.any(axis=1)]
    aps = _ap_rows(rel)

    n = len(aps)
    return RetrievalReport(
        query_ids=query_ids,
        gallery_ids=gallery_ids,
        order=order,
        scores=scores,
        relevant=relevant,
        recall_at={k: (float(np.mean(rel[:, :k].any(axis=1))) if n else 0.0)
                   for k in k_values},
        mean_ap=float(np.mean(aps)) if n else 0.0,
        skipped_queries=len(queries) - n,
    )


# ---------------------------------------------------------------------------
# embedding store
# ---------------------------------------------------------------------------

def _record_problem(rid, view, class_id):
    """Why a store record cannot hold this id, view and class id, or None."""
    if "\0" in rid:
        return f"id {rid!r} holds a NUL character"
    if len(rid.encode()) > MAX_ID_BYTES:
        return f"id is longer than {MAX_ID_BYTES} UTF-8 bytes"
    if view not in VIEW_CODES:
        return f"view {view!r} is not one of {', '.join(VIEW_CODES)}"
    if not isinstance(class_id, (int, np.integer)):
        return f"class_id {class_id!r} is not an integer"
    if not 0 <= class_id <= MAX_CLASS_ID:
        return f"class_id {class_id} is outside 0..{MAX_CLASS_ID}"


def save_embeddings(records, path):
    """Write `records` as a store, atomically (temp file + rename). The first
    bad record raises, with the first check it fails: the vector's width
    (that of the first record), its finiteness, then `_record_problem`. The
    ids and tags are packed record by record, and the vectors from one
    `<f4` block."""
    dim = len(records[0].vector) if records else 0
    vectors = [np.asarray(r.vector, dtype="<f4") for r in records]
    n = next((i for i, v in enumerate(vectors) if v.shape != (dim,)),
             len(records))
    block = np.array(vectors[:n], dtype="<f4").reshape(n, dim)
    finite = np.isfinite(block).all(axis=1)
    rows = memoryview(block.reshape(-1).view(np.uint8))
    parts = [MAGIC, struct.pack("<III", VERSION, len(records), dim)]
    for i, r in enumerate(records):
        if i == n:
            raise StoreError(
                f"record {r.id!r} has dim {vectors[i].shape}, expected {dim}")
        if not finite[i]:
            raise StoreNonFiniteError(f"record {r.id!r} vector is not finite")
        if problem := _record_problem(r.id, r.view, r.class_id):
            raise StoreError(f"record {i}: {problem}")
        rid = r.id.encode()
        parts += (struct.pack("<H", len(rid)), rid,
                  struct.pack("<BI", VIEW_CODES[r.view], r.class_id),
                  rows[4 * dim * i:4 * dim * (i + 1)])
    write_atomic(path, b"".join(parts))


def load_embeddings(path):
    """The records of the store at `path` (see `_parse_store`). Every format
    or numeric error in the store names `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_store(blob)
    except (StoreError, StoreNonFiniteError) as e:
        raise type(e)(f"store {path}: {e}") from None


def _parse_store(blob):
    """The records of a store's bytes, in one pass. A walk over the records
    reads each id and its tags and only appends the vector's bytes to one
    buffer, which becomes a writeable (N, D) float32 block, each record's
    `vector` a row of it; the vectors are then checked together
    (`_check_vectors`). The first bad record raises the error a
    record-by-record read would: when the walk fails at record j, its error
    is raised once the vectors of the records before j have passed."""
    r = Reader(memoryview(blob), StoreError, StoreTruncatedError)
    if r.take(4, "magic") != MAGIC:
        raise StoreMagicError("bad store magic")
    version, count, dim = r.unpack("<III", "header")
    if version != VERSION:
        raise StoreVersionError(f"unsupported store version {version}")
    tags, vectors, walk_error = [], bytearray(), None
    try:
        for i in range(count):
            (nlen,) = r.unpack("<H", "record %d id length", i)
            rid = r.text(nlen, "record %d id", i)
            if "\0" in rid:
                raise StoreError(f"record {rid!r} id holds a NUL character")
            view_code, class_id = r.unpack("<BI", "record %d tags", i)
            if view_code not in CODE_VIEWS:
                raise StoreError(
                    f"record {rid!r} has unknown view code {view_code}")
            vectors += r.take(4 * dim, "record %d vector", i)
            tags.append((rid, CODE_VIEWS[view_code], class_id))
    except StoreError as e:
        walk_error = e
    block = np.frombuffer(vectors, dtype="<f4").reshape(len(tags), dim)
    _check_vectors(block, [t[0] for t in tags])
    if walk_error is not None:
        raise walk_error
    r.end()
    return [EmbeddingRecord(rid, view, class_id, vec)
            for (rid, view, class_id), vec in zip(tags, block)]


def _check_vectors(block, ids):
    """Raise for the first row of the (N, D) float32 `block` that is not
    finite or whose norm is not within 1e-4 of 1, as a per-record check
    raises it. The norms are screened in float64, where the products of
    float32 values are exact. Only the rows that fail the screen, non-finite
    ones included, are checked with the per-record float32
    `np.linalg.norm`, whose value decides and is printed. The screen is
    tighter than the bound by half of it, or by the rounding bound of a
    D-term float32 dot product where that is wider, so a row that passes it
    passes the per-record check too."""
    slack = max(0.5e-4, (block.shape[1] + 2) * 2.0 ** -24)
    squares = np.einsum("ij,ij->i", block, block, dtype=np.float64)
    for i in np.flatnonzero(~(np.abs(np.sqrt(squares) - 1.0) <= 1e-4 - slack)):
        vec = block[i]
        if not np.isfinite(vec).all():
            raise StoreNonFiniteError(f"record {ids[i]!r} vector is not finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-4:
            raise StoreVectorError(
                f"record {ids[i]!r} vector norm {norm:.6f} is not unit")
