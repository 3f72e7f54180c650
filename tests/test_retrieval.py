"""Descriptor assembly, ranking, metric oracles, and the embedding store."""

import csv
import os
import struct

import numpy as np
import pytest

from sfde import retrieval, train as training
from sfde.retrieval import EmbeddingRecord


def unit(v):
    v = np.asarray(v, dtype=np.float32)
    return v / np.linalg.norm(v)


def unit_record(rid):
    return EmbeddingRecord(rid, "drone", 0, unit([0, 1]))


def random_records(rng, n, dim, prefix="g", classes=4):
    return [EmbeddingRecord(f"{prefix}{i:03d}",
                            "satellite" if i % 2 else "drone",
                            int(rng.integers(classes)),
                            unit(rng.normal(size=dim)))
            for i in range(n)]


def tied_records(rng, n, dim, prefix, classes=4):
    """Records whose components are multiples of 1/64, so every dot product
    is exact in float64 whatever the summation order. The last third repeat
    earlier vectors under another class (cross-class ties), and the ids are
    unpadded and shuffled, so id order is neither list nor numeric order."""
    vecs = (np.round(rng.normal(size=(n, dim)) * 16) / 64).astype(np.float32)
    cls = rng.integers(classes, size=n)
    copies = n // 3
    src = rng.integers(n - copies, size=copies)
    vecs[n - copies:] = vecs[src]
    cls[n - copies:] = (cls[src] + 1) % classes
    names = rng.permutation(n)
    return [EmbeddingRecord(f"{prefix}{names[i]}", "drone", int(cls[i]), vecs[i])
            for i in range(n)]


# ---------------------------------------------------------------------------
# descriptor assembly
# ---------------------------------------------------------------------------

def test_assemble_unit_norm_and_dimension(rng):
    g = rng.normal(size=16)
    l = rng.uniform(0.1, 1.0, size=(8, 4, 4))
    p = rng.uniform(0.1, 1.0, size=(8, 4, 4))
    vec = retrieval.assemble_embedding(g, l, p)
    assert vec.shape == (16 + 8 + 8,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-5


def test_assemble_drops_disabled_branches(rng):
    g = rng.normal(size=16)
    p = rng.uniform(0.1, 1.0, size=(8, 4, 4))
    vec = retrieval.assemble_embedding(g, None, p)
    assert vec.shape == (24,)
    with pytest.raises(ValueError):
        retrieval.assemble_embedding(None, None, None)


def test_assemble_names_nan_branch(rng):
    g = rng.normal(size=16)
    bad = np.full((8, 2, 2), np.nan)
    with pytest.raises(FloatingPointError, match="frequency"):
        retrieval.assemble_embedding(g, None, bad)


def test_assemble_deterministic(rng):
    g = rng.normal(size=16)
    l = rng.uniform(0.1, 1.0, size=(8, 4, 4))
    assert np.array_equal(retrieval.assemble_embedding(g, l, None),
                          retrieval.assemble_embedding(g, l, None))


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def topk_one(query, gallery, k):
    """`cosine_topk` for one query vector, as a (1, D) block: the ranked
    gallery ids and their scores."""
    order, scores = retrieval.cosine_topk(np.asarray(query)[None], gallery, k)
    assert order.shape == scores.shape == (1, k)
    return [gallery[j].id for j in order[0]], scores[0].tolist()


def test_topk_self_match(rng):
    gallery = random_records(rng, 10, 8)
    ids, scores = topk_one(gallery[3].vector, gallery, 1)
    assert ids == [gallery[3].id]
    assert scores[0] == pytest.approx(1.0, abs=1e-6)


def test_topk_full_is_permutation(rng):
    gallery = random_records(rng, 12, 8)
    ids, _ = topk_one(rng.normal(size=8), gallery, 12)
    assert sorted(ids) == sorted(r.id for r in gallery)


def test_topk_breaks_ties_by_id():
    v = unit([1.0, 0.0])
    gallery = [EmbeddingRecord("b", "drone", 0, v.copy()),
               EmbeddingRecord("a", "drone", 1, v.copy()),
               EmbeddingRecord("c", "drone", 2, v.copy())]
    assert topk_one(v, gallery, 3)[0] == ["a", "b", "c"]


def test_topk_matches_sort_oracle(rng):
    gallery = random_records(rng, 20, 6)
    q = unit(rng.normal(size=6))
    ranked, _ = topk_one(q, gallery, 20)
    oracle = sorted(gallery, key=lambda r: (-float(q @ r.vector), r.id))
    assert ranked == [r.id for r in oracle]


def test_topk_block_matches_single_query_rows(rng):
    gallery = tied_records(rng, 30, 5, "g")
    queries = tied_records(rng, 8, 5, "q")
    block = np.stack([q.vector for q in queries])
    for k in (1, 7, 30):
        order, scores = retrieval.cosine_topk(block, gallery, k)
        assert order.shape == scores.shape == (8, k)
        for q, row, row_scores in zip(queries, order, scores):
            single_ids, single_scores = topk_one(q.vector, gallery, k)
            assert [gallery[j].id for j in row] == single_ids
            assert row_scores.tolist() == single_scores


def test_topk_validation():
    with pytest.raises(ValueError):
        retrieval.cosine_topk(np.ones((1, 2)), [], 1)
    gallery = [EmbeddingRecord("a", "drone", 0, unit([1, 0]))]
    with pytest.raises(ValueError):
        retrieval.cosine_topk(np.ones((1, 2)), gallery, 2)


def test_ranking_invariant_to_pre_normalization_scale(rng):
    base = [rng.normal(size=6) for _ in range(10)]
    g1 = [EmbeddingRecord(f"g{i}", "drone", i, unit(v))
          for i, v in enumerate(base)]
    g2 = [EmbeddingRecord(f"g{i}", "drone", i, unit(v * rng.uniform(0.1, 10)))
          for i, v in enumerate(base)]
    q = unit(rng.normal(size=6))
    assert topk_one(q, g1, 10)[0] == topk_one(q, g2, 10)[0]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_ap_hand_cases():
    assert retrieval.average_precision(["a", "b", "c"], {"a"}) == 1.0
    assert retrieval.average_precision(["x", "y", "a"], {"a"}) == pytest.approx(1 / 3)
    ranked = ["r1", "x1", "x2", "r2"] + [f"x{i}" for i in range(3, 9)]
    assert retrieval.average_precision(ranked, {"r1", "r2"}) == pytest.approx(0.75)


def brute_force_metrics(queries, gallery, k_values):
    """Independent implementation: exhaustive sort + literal definitions."""
    recalls = {k: [] for k in k_values}
    aps = []
    skipped = 0
    for q in queries:
        order = sorted(gallery, key=lambda r: (-float(np.dot(q.vector, r.vector)),
                                               r.id))
        rel = [r.id for r in gallery if r.class_id == q.class_id]
        if not rel:
            skipped += 1
            continue
        ids = [r.id for r in order]
        for k in k_values:
            recalls[k].append(1.0 if set(ids[:k]) & set(rel) else 0.0)
        hits, precs = 0, []
        for rank, rid in enumerate(ids, start=1):
            if rid in rel:
                hits += 1
                precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
    return ({k: (sum(v) / len(v) if v else 0.0) for k, v in recalls.items()},
            (sum(aps) / len(aps) if aps else 0.0), skipped)


def test_evaluate_matches_brute_force_oracle(rng):
    for trial in range(50):
        dim = int(rng.integers(3, 8))
        gallery = random_records(rng, int(rng.integers(5, 21)), dim,
                                 prefix=f"t{trial}g", classes=5)
        queries = random_records(rng, int(rng.integers(2, 8)), dim,
                                 prefix=f"t{trial}q", classes=6)
        ks = [1, 3, 5]
        report = retrieval.evaluate(queries, gallery, ks)
        recalls, mean_ap, skipped = brute_force_metrics(queries, gallery, ks)
        for k in ks:
            assert report.recall_at[k] == pytest.approx(recalls[k], abs=1e-12)
        assert report.mean_ap == pytest.approx(mean_ap, abs=1e-12)
        assert report.skipped_queries == skipped


def test_recall_monotone_in_k(rng):
    gallery = random_records(rng, 15, 6)
    queries = random_records(rng, 6, 6, prefix="q")
    report = retrieval.evaluate(queries, gallery, [1, 3, 5, 10, 15])
    vals = [report.recall_at[k] for k in sorted(report.recall_at)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_evaluate_counts_skipped_queries(rng):
    gallery = [EmbeddingRecord("g0", "satellite", 0, unit([1, 0]))]
    queries = [EmbeddingRecord("q0", "drone", 0, unit([1, 0])),
               EmbeddingRecord("q1", "drone", 99, unit([0, 1]))]
    report = retrieval.evaluate(queries, gallery, [1])
    assert report.skipped_queries == 1
    assert report.recall_at[1] == 1.0


def test_rankings_csv_matches_sorted_reference_with_ties(rng, tmp_path):
    ties = 0
    for trial in range(20):
        dim = int(rng.integers(3, 7))
        gallery = tied_records(rng, int(rng.integers(6, 25)), dim, "g")
        queries = tied_records(rng, int(rng.integers(1, 7)), dim, "q", classes=5)
        report = retrieval.evaluate(queries, gallery, [1])
        rank_path, _, hist_path = training.write_reports(
            report, queries, gallery, str(tmp_path / f"t{trial}"))
        rank_lines = ["query_id,rank,gallery_id,score"]
        hist_lines = ["query_id,gallery_id,pair,cosine_distance"]
        for q in sorted(queries, key=lambda r: r.id):
            q64 = q.vector.astype(np.float64)
            scores = {g.id: float(q64 @ g.vector.astype(np.float64))
                      for g in gallery}
            ties += len(scores) - len(set(scores.values()))
            ref = sorted(gallery, key=lambda r: (-scores[r.id], r.id))
            for rank, g in enumerate(ref, start=1):
                pair = "positive" if g.class_id == q.class_id else "negative"
                rank_lines.append(f"{q.id},{rank},{g.id},{scores[g.id]:.8f}")
                hist_lines.append(f"{q.id},{g.id},{pair},{1.0 - scores[g.id]:.8f}")
        assert open(rank_path).read().splitlines() == rank_lines
        assert open(hist_path).read().splitlines() == hist_lines
    assert ties > 0


def test_evaluate_empty_queries_gives_zero_metrics_and_header_only_csvs(
        rng, tmp_path):
    gallery = random_records(rng, 5, 4)
    report = retrieval.evaluate([], gallery, [1, 5])
    assert report.recall_at == {1: 0.0, 5: 0.0}
    assert report.mean_ap == 0.0 and report.skipped_queries == 0
    paths = training.write_reports(report, [], gallery, str(tmp_path))
    assert [open(p).read() for p in paths] == [
        "query_id,rank,gallery_id,score\n",
        "metric,K,value\nrecall,1,0.00000000\nrecall,5,0.00000000\n"
        "mean_ap,,0.00000000\nskipped_queries,,0\n",
        "query_id,gallery_id,pair,cosine_distance\n"]


def test_reports_quote_ids_that_need_it(rng, tmp_path):
    names = ["train/0/drone/a,b.pgm", 'say "hi".pgm', "two\nlines.pgm",
             "cr\r.pgm", "plain.pgm", '\u00fc/\u6771"\u4eac",x.pgm']
    queries = [EmbeddingRecord(f"q/{n}", "drone", i % 2,
                               unit(rng.normal(size=4)))
               for i, n in enumerate(names)]
    gallery = [EmbeddingRecord(f"g/{n}", "satellite", i % 2,
                               unit(rng.normal(size=4)))
               for i, n in enumerate(names)]
    report = retrieval.evaluate(queries, gallery, [1])
    rank_path, _, hist_path = training.write_reports(
        report, queries, gallery, str(tmp_path))
    for path, gcol in ((rank_path, 2), (hist_path, 1)):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(queries) * len(gallery)
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows[1:]} == {q.id for q in queries}
        assert {row[gcol] for row in rows[1:]} == {g.id for g in gallery}
        assert b'"q/plain.pgm"' not in open(path, "rb").read()


def test_reports_write_ids_as_utf8(rng, tmp_path):
    name = "\u00fc/\u6771\u4eac.pgm"
    queries = [EmbeddingRecord(f"q/{name}", "drone", 0, unit([1, 0]))]
    gallery = [EmbeddingRecord(f"g/{name}", "satellite", 0, unit([1, 0])),
               EmbeddingRecord("g/plain.pgm", "satellite", 1, unit([0, 1]))]
    report = retrieval.evaluate(queries, gallery, [1])
    rank_path, _, hist_path = training.write_reports(
        report, queries, gallery, str(tmp_path))
    q, g = f"q/{name}".encode("utf-8"), f"g/{name}".encode("utf-8")
    assert open(rank_path, "rb").read() == (
        b"query_id,rank,gallery_id,score\n"
        + q + b",1," + g + b",1.00000000\n"
        + q + b",2,g/plain.pgm,0.00000000\n")
    assert open(hist_path, "rb").read() == (
        b"query_id,gallery_id,pair,cosine_distance\n"
        + q + b"," + g + b",positive,0.00000000\n"
        + q + b",g/plain.pgm,negative,1.00000000\n")


def _score_report(scores):
    """A report whose query `q{i}` ranks gallery items g0, g1, ... with the
    scores of row i, in that order."""
    scores = np.asarray(scores, dtype=np.float64)
    nq, ng = scores.shape
    return retrieval.RetrievalReport(
        query_ids=[f"q{i:04d}" for i in range(nq)],
        gallery_ids=[f"g{j:04d}" for j in range(ng)],
        order=np.tile(np.arange(ng), (nq, 1)), scores=scores,
        recall_at={1: 0.0}, mean_ap=0.0)


def test_report_scores_match_python_formatting(tmp_path, monkeypatch):
    """Every score and distance field is `f"{v:.8f}"`, on the values where
    fixed-point digits are easiest to get wrong."""
    grid = np.linspace(-1.2, 1.2, 240_001)
    ties = np.arange(-614, 615) / 512           # s * 1e8 ends in .5 exactly
    m = np.concatenate([np.arange(5), np.random.default_rng(0).integers(
        0, 120_000_000, size=2000)])
    edge = (m + 0.5) / 1e8
    near = [edge + d for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)]
    near += [np.nextafter(edge, lim) for lim in (-np.inf, np.inf)]
    special = [0.0, -0.0, 1e-10, -1e-10, 1.0, -1.0, 2.0, 9.999999995, 12.5,
               -37.0, np.nan, np.inf, -np.inf]
    values = np.concatenate([grid, ties, *near, -np.concatenate(near),
                             special])
    values = np.concatenate([values, np.zeros(-len(values) % 1000)])

    real, fallback = training._byte_table, []

    def spy(texts, width=1):
        if width == 11:                         # the formatter's fallback
            fallback.extend(texts)
        return real(texts, width)

    monkeypatch.setattr(training, "_byte_table", spy)
    report = _score_report(values.reshape(-1, 1000))
    rank_path, _, hist_path = training.write_reports(
        report, [], [], str(tmp_path))
    with open(rank_path, "rb") as fh:
        rank_rows = fh.read().decode().splitlines()[1:]
    with open(hist_path, "rb") as fh:
        hist_rows = fh.read().decode().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rank_rows] == \
        [f"{v:.8f}" for v in values.tolist()]
    assert [r.rsplit(",", 1)[1] for r in hist_rows] == \
        [f"{1.0 - v:.8f}" for v in values.tolist()]
    assert {"12.50000000", "-37.00000000", "nan", f"{1 / 512:.8f}"} <= \
        set(fallback)


def test_reports_refuse_nul_in_ids(tmp_path):
    report = _score_report([[0.5]])
    report.gallery_ids = ["g\0"]
    with pytest.raises(ValueError, match="NUL"):
        training.write_reports(report, [], [], str(tmp_path))


@pytest.mark.parametrize("side", ["query", "gallery"])
def test_evaluate_rejects_duplicate_ids(rng, side):
    gallery = random_records(rng, 6, 4)
    queries = random_records(rng, 4, 4, prefix="q")
    records = queries if side == "query" else gallery
    records[3].id = records[1].id
    with pytest.raises(ValueError, match=f"duplicate {side} id '{records[1].id}'"):
        retrieval.evaluate(queries, gallery, [1])


@pytest.mark.parametrize("k_values, bad", [([0], 0), ([1, -1], -1),
                                           ([5, 0, 1], 0)])
def test_evaluate_rejects_k_below_one(rng, k_values, bad):
    gallery = random_records(rng, 6, 4)
    queries = random_records(rng, 4, 4, prefix="q")
    with pytest.raises(ValueError, match=f"K={bad} is below 1"):
        retrieval.evaluate(queries, gallery, k_values)


# ---------------------------------------------------------------------------
# embedding store
# ---------------------------------------------------------------------------

def test_store_roundtrip_bit_exact(rng, tmp_path):
    records = random_records(rng, 100, 12)
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(records, path)
    loaded = retrieval.load_embeddings(path)
    assert len(loaded) == 100
    for a, b in zip(records, loaded):
        assert a.id == b.id and a.view == b.view and a.class_id == b.class_id
        assert np.array_equal(a.vector.astype("<f4"), b.vector)


def test_store_empty_list(tmp_path):
    path = str(tmp_path / "empty.bin")
    retrieval.save_embeddings([], path)
    assert retrieval.load_embeddings(path) == []


def test_store_corrupted_magic(rng, tmp_path):
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(random_records(rng, 3, 4), path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(retrieval.StoreMagicError):
        retrieval.load_embeddings(path)


def test_store_truncated_payload(rng, tmp_path):
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(random_records(rng, 3, 4), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-5])
    with pytest.raises(retrieval.StoreTruncatedError):
        retrieval.load_embeddings(path)


@pytest.mark.parametrize("fault", ["count-lowered", "byte-appended"])
def test_store_rejects_trailing_bytes(rng, tmp_path, fault):
    """A store whose record count was lowered, or that has bytes after its
    last record, does not load with records silently dropped."""
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(random_records(rng, 3, 4), path)
    blob = bytearray(open(path, "rb").read())
    if fault == "count-lowered":
        blob[8:12] = (2).to_bytes(4, "little")
    else:
        blob += b"\0"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(retrieval.StoreError, match="trailing bytes"):
        retrieval.load_embeddings(path)


def test_store_version_mismatch(rng, tmp_path):
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(random_records(rng, 3, 4), path)
    blob = bytearray(open(path, "rb").read())
    blob[4] = 99
    open(path, "wb").write(bytes(blob))
    with pytest.raises(retrieval.StoreVersionError):
        retrieval.load_embeddings(path)


def test_store_rejects_non_unit_vectors(tmp_path):
    path = str(tmp_path / "store.bin")
    rec = EmbeddingRecord("a", "drone", 0, np.array([3.0, 4.0], dtype=np.float32))
    retrieval.save_embeddings([rec], path)
    with pytest.raises(retrieval.StoreVectorError):
        retrieval.load_embeddings(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_store_rejects_non_finite_vectors_on_save(tmp_path, bad):
    rec = EmbeddingRecord("q7", "drone", 0, np.array([bad, 0.0], np.float32))
    path = str(tmp_path / "store.bin")
    with pytest.raises(retrieval.StoreNonFiniteError, match="'q7'"):
        retrieval.save_embeddings([unit_record("q6"), rec], path)
    assert not os.path.exists(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_store_rejects_non_finite_vectors_on_load(tmp_path, bad):
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings([unit_record("a"), unit_record("b")], path)
    blob = bytearray(open(path, "rb").read())
    blob[-4:] = np.array(bad, dtype="<f4").tobytes()
    open(path, "wb").write(bytes(blob))
    with pytest.raises(retrieval.StoreNonFiniteError, match="'b'"):
        retrieval.load_embeddings(path)


@pytest.mark.parametrize("field, value", [
    ("class_id", -1), ("class_id", 2 ** 32), ("id", "\u00e9" * 32768),
    ("view", "aerial"), ("id", "a\0b")])
def test_store_rejects_fields_out_of_range(tmp_path, field, value):
    rec = EmbeddingRecord("a", "drone", 0, unit([1, 0]))
    setattr(rec, field, value)
    path = str(tmp_path / "store.bin")
    with pytest.raises(retrieval.StoreError):
        retrieval.save_embeddings([rec], path)
    assert not os.path.exists(path)


def test_store_load_refuses_nul_in_id(tmp_path):
    blob = (retrieval.MAGIC + struct.pack("<IIIH", retrieval.VERSION, 1, 2, 3)
            + b"a\0b" + struct.pack("<BI", 0, 0)
            + unit([1, 0]).astype("<f4").tobytes())
    path = tmp_path / "store.bin"
    path.write_bytes(blob)
    with pytest.raises(retrieval.StoreError, match=r"record 'a\\x00b'"):
        retrieval.load_embeddings(str(path))


def test_store_keeps_fields_at_their_bounds(tmp_path):
    records = [EmbeddingRecord("\u00e9" * 32767 + "x", "drone", 2 ** 32 - 1,
                               unit([1, 0])),
               EmbeddingRecord("b", "satellite", 0, unit([0, 1]))]
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(records, path)
    loaded = retrieval.load_embeddings(path)
    assert [(r.id, r.view, r.class_id) for r in loaded] == \
        [(r.id, r.view, r.class_id) for r in records]


def test_store_error_codes_are_distinct():
    codes = {cls.code for cls in (retrieval.StoreMagicError,
                                  retrieval.StoreVersionError,
                                  retrieval.StoreTruncatedError,
                                  retrieval.StoreVectorError)}
    assert len(codes) == 4
