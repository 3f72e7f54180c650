"""Descriptor assembly, ranking, metric oracles, and the embedding store."""

import concurrent.futures
import csv
import dataclasses
import errno
import os
import struct
import threading
import time

import numpy as np
import pytest

from sfde import retrieval, train as training
from sfde.binio import Reader
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
    g = rng.normal(size=(2, 16))
    l = rng.uniform(0.1, 1.0, size=(2, 8, 4, 4))
    p = rng.uniform(0.1, 1.0, size=(2, 8, 4, 4))
    vec = retrieval.assemble_embedding(g, l, p)
    assert vec.shape == (2, 16 + 8 + 8)
    assert vec.dtype == np.float32
    assert np.all(abs(np.linalg.norm(vec, axis=1) - 1.0) < 1e-5)


def test_assemble_drops_disabled_branches(rng):
    g = rng.normal(size=(1, 16))
    p = rng.uniform(0.1, 1.0, size=(1, 8, 4, 4))
    vec = retrieval.assemble_embedding(g, None, p)
    assert vec.shape == (1, 24)
    with pytest.raises(ValueError):
        retrieval.assemble_embedding(None, None, None)


def test_assemble_names_nan_branch(rng):
    g = rng.normal(size=(2, 16))
    bad = rng.uniform(0.1, 1.0, size=(2, 8, 2, 2))
    bad[1, 3, 1, 0] = np.nan  # in the second record only
    with pytest.raises(FloatingPointError, match="frequency"):
        retrieval.assemble_embedding(g, None, bad)


def test_assemble_deterministic(rng):
    """Repeatable, and each row is the batch of that record alone."""
    g = rng.normal(size=(3, 16))
    l = rng.uniform(0.1, 1.0, size=(3, 8, 4, 4))
    vecs = retrieval.assemble_embedding(g, l, None)
    assert np.array_equal(vecs, retrieval.assemble_embedding(g, l, None))
    for i in range(3):
        assert np.array_equal(
            vecs[i], retrieval.assemble_embedding(g[i:i + 1], l[i:i + 1],
                                                  None)[0])


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def topk_one(query, gallery, k):
    """`cosine_topk` for one query vector, as a (1, D) block: the ranked
    gallery ids and their scores."""
    order, scores = retrieval.cosine_topk(np.asarray(query)[None], gallery)
    order, scores = order[:, :k], scores[:, :k]
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
        order, scores = retrieval.cosine_topk(block, gallery)
        order, scores = order[:, :k], scores[:, :k]
        assert order.shape == scores.shape == (8, k)
        for q, row, row_scores in zip(queries, order, scores):
            single_ids, single_scores = topk_one(q.vector, gallery, k)
            assert [gallery[j].id for j in row] == single_ids
            assert row_scores.tolist() == single_scores


def test_rank_block_matches_stable_argsort():
    """The default argsort plus the tie repair gives the stable sort's order
    and score bits, on runs of equal values, signed zeros, NaNs of either
    sign, infinities and all-equal rows, for k below and at G."""
    rng = np.random.default_rng(7)
    values = np.array([0.5, -0.5, 0.25, 0.0, -0.0, np.nan, -np.nan, np.inf,
                       -np.inf, 1.0])
    rows = [values[rng.integers(len(values), size=23)] for _ in range(300)]
    rows += [np.full(23, v) for v in values]
    rows += [rng.permutation(23) / 8, (rng.integers(2, size=23) - 1) * 0.0]
    scores = np.stack(rows)
    ref = np.argsort(-scores, axis=1, kind="stable")
    for k in (1, 2, 7, 22, 23):
        order, top = retrieval._rank_block(scores)
        order, top = order[:, :k], top[:, :k]
        assert np.array_equal(order, ref[:, :k])
        assert np.array_equal(
            top.view(np.int64),
            np.take_along_axis(scores, ref[:, :k], axis=1).view(np.int64))


@pytest.mark.parametrize("k", [1, 7, 30])
def test_topk_in_blocks_matches_sort_oracle(rng, monkeypatch, k):
    """Ranked three query rows at a time, so 8 queries take 3 blocks: every
    row is the (-score, id) sort of the exact scores."""
    gallery = tied_records(rng, 30, 5, "g")
    queries = tied_records(rng, 8, 5, "q")
    monkeypatch.setattr(retrieval, "_RANK_BLOCK_SCORES", 3 * len(gallery))
    order, scores = retrieval.cosine_topk(
        np.stack([q.vector for q in queries]), gallery)
    order, scores = order[:, :k], scores[:, :k]
    assert order.shape == scores.shape == (8, k)
    ties = 0
    for q, row, row_scores in zip(queries, order, scores):
        q64 = q.vector.astype(np.float64)
        exact = {g.id: float(q64 @ g.vector.astype(np.float64))
                 for g in gallery}
        ties += len(exact) - len(set(exact.values()))
        ref = sorted(gallery, key=lambda r: (-exact[r.id], r.id))[:k]
        assert [gallery[j].id for j in row] == [r.id for r in ref]
        assert row_scores.tolist() == [exact[r.id] for r in ref]
    assert ties > 0


def test_topk_validation():
    with pytest.raises(ValueError):
        retrieval.cosine_topk(np.ones((1, 2)), [])


def test_topk_ranks_whole_rows(rng):
    """`cosine_topk` returns (Q, G) `order` and `scores`: every row of
    `order` is a permutation of the gallery."""
    gallery = random_records(rng, 11, 5)
    queries = random_records(rng, 4, 5, prefix="q")
    order, scores = retrieval.cosine_topk(
        np.stack([q.vector for q in queries]), gallery)
    assert order.shape == scores.shape == (4, 11)
    assert (np.sort(order, axis=1) == np.arange(11)).all()


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


def test_ap_by_relevant_count_matches_ap_at_bit_for_bit(rng):
    """`evaluate` averages the rows with k relevant items together. numpy's
    pairwise summation changes shape at 8 and at 128 terms, so the counts
    straddle both; a row without a relevant item gets 0.0."""
    counts = rng.permutation([0, 1, 7, 8, 9, 127, 128, 129, 300] * 3)
    relevant = np.zeros((len(counts), 600), dtype=bool)
    for row, k in zip(relevant, counts):
        row[rng.choice(600, size=k, replace=False)] = True
    expected = [retrieval._ap_at(np.flatnonzero(row)) for row in relevant]
    assert retrieval._ap_rows(relevant).tobytes() == \
        np.array(expected).tobytes()


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


def sorted_reference_lines(queries, gallery):
    """The rankings and distances CSV lines built from Python's sort of the
    exact scores by (-score, id), and the number of tied scores."""
    ties = 0
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
    return rank_lines, hist_lines, ties


def test_rankings_csv_matches_sorted_reference_with_ties(rng, tmp_path):
    ties = 0
    for trial in range(20):
        dim = int(rng.integers(3, 7))
        gallery = tied_records(rng, int(rng.integers(6, 25)), dim, "g")
        queries = tied_records(rng, int(rng.integers(1, 7)), dim, "q", classes=5)
        report = retrieval.evaluate(queries, gallery, [1])
        rank_path, _, hist_path = training.write_reports(
            report, str(tmp_path / f"t{trial}"))
        rank_lines, hist_lines, trial_ties = sorted_reference_lines(
            queries, gallery)
        ties += trial_ties
        assert open(rank_path).read().splitlines() == rank_lines
        assert open(hist_path).read().splitlines() == hist_lines
    assert ties > 0


def test_reports_in_blocks_match_sorted_reference_with_ties(rng, tmp_path,
                                                            monkeypatch):
    """Two queries per ranking block and per report block, so each CSV is
    written in 3 to 5 blocks by its own thread."""
    ties = 0
    for trial in range(8):
        dim = int(rng.integers(3, 7))
        gallery = tied_records(rng, int(rng.integers(6, 25)), dim, "g")
        queries = tied_records(rng, int(rng.integers(5, 10)), dim, "q",
                               classes=5)
        monkeypatch.setattr(retrieval, "_RANK_BLOCK_SCORES", 2 * len(gallery))
        monkeypatch.setattr(training, "_REPORT_BLOCK_ROWS", 2 * len(gallery))
        report = retrieval.evaluate(queries, gallery, [1])
        rank_path, _, hist_path = training.write_reports(
            report, str(tmp_path / f"t{trial}"))
        rank_lines, hist_lines, trial_ties = sorted_reference_lines(
            queries, gallery)
        ties += trial_ties
        assert open(rank_path).read().splitlines() == rank_lines
        assert open(hist_path).read().splitlines() == hist_lines
    assert ties > 0


def test_evaluate_empty_queries_gives_zero_metrics_and_header_only_csvs(
        rng, tmp_path):
    gallery = random_records(rng, 5, 4)
    report = retrieval.evaluate([], gallery, [1, 5])
    assert report.recall_at == {1: 0.0, 5: 0.0}
    assert report.mean_ap == 0.0 and report.skipped_queries == 0
    paths = training.write_reports(report, str(tmp_path))
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
    rank_path, _, hist_path = training.write_reports(report, str(tmp_path))
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
    rank_path, _, hist_path = training.write_reports(report, str(tmp_path))
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
    scores of row i, in that order, every pair relevant."""
    scores = np.asarray(scores, dtype=np.float64)
    nq, ng = scores.shape
    return retrieval.RetrievalReport(
        query_ids=[f"q{i:04d}" for i in range(nq)],
        gallery_ids=[f"g{j:04d}" for j in range(ng)],
        order=np.tile(np.arange(ng), (nq, 1)), scores=scores,
        relevant=np.ones((nq, ng), dtype=bool),
        recall_at={1: 0.0}, mean_ap=0.0)


def test_distances_pair_column_follows_relevant(rng, tmp_path):
    """The pair labels are read from `report.relevant` in rank order, even
    in a pattern that no classes could produce."""
    report = _score_report(rng.uniform(-1, 1, size=(7, 9)))
    report.order = np.stack([rng.permutation(9) for _ in range(7)])
    i, j = np.indices((7, 9))
    report.relevant = (i + j) % 3 == 0
    _, _, hist_path = training.write_reports(report, str(tmp_path))
    with open(hist_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == [f"q{a:04d}" for a in i.ravel()]
    assert [row[1] for row in rows] == \
        [f"g{b:04d}" for b in report.order.ravel()]
    assert [row[2] for row in rows] == \
        ["positive" if r else "negative" for r in report.relevant.ravel()]


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
    rank_path, _, hist_path = training.write_reports(report, str(tmp_path))
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


# values for `_fixed8` by the path each takes: with and without a sign bit,
# with a value formatted by Python wider than a field of the fast path, and
# at .5 boundaries of the eighth decimal (formatted by Python, same width)
FIXED8_BLOCKS = {
    "non-negative": [0.0, 1e-10, 0.5, 0.12345678, 1.0, 2.0, 9.49999999],
    "half boundary": [0.5e-8, 1.5e-8, 0.123456785, 1 / 512, 0.25],
    "signed zero": [0.25, -0.0, 0.0],
    "negative": [0.5, -0.5, -1.0, -9.4],
    "at least 9.5": [9.5, 12.5, 123.456, 0.3],
    "negative at least 9.5": [-37.0, 0.5, 9.75],
    "non-finite": [np.nan, np.inf, 0.1],
    "negative non-finite": [-np.inf, 0.1],
}


@pytest.mark.parametrize("block", FIXED8_BLOCKS)
def test_fixed8_matches_python_formatting(block):
    """Each field is `f"{v:.8f}"` padded with NUL; it is ten bytes wide, with
    no NUL in a value below 9.5, when no value of the block has its sign
    bit set, and at least eleven otherwise."""
    values = np.array(FIXED8_BLOCKS[block])
    out = training._fixed8(values)
    texts = [f"{v:.8f}" for v in values.tolist()]
    assert [f.replace(b"\0", b"").decode() for f in out.tolist()] == texts
    head = 3 if np.signbit(values).any() else 2
    assert out.itemsize == max([head + 8] + [len(t) for t in texts])


@pytest.mark.parametrize("ids", [["q1", "q2", "q3"],
                                 ["q1", "q22", "\u00e9\u6771333"],
                                 ["a,b", 'say "hi"', "c"]])
@pytest.mark.parametrize("block", FIXED8_BLOCKS)
def test_csv_rows_match_f_string_rows(rng, ids, block):
    """Rankings and distances rows built as `write_reports` builds them equal
    rows built with f-strings. A block whose columns each have one width
    (ids of one length, no sign bit, no value of 9.5 or more) has no
    padding to drop; every other block has some."""
    values = np.array(FIXED8_BLOCKS[block])
    gids = [f"g{j}" for j in range(len(values))]
    order = np.array([rng.permutation(len(values)) for _ in ids])
    relevant = rng.random(order.shape) < 0.5
    qfields, gfields = training._id_fields(ids), training._id_fields(gids)
    ranks = training._byte_table([f"{r}," for r in range(1, len(gids) + 1)])
    fixed8 = training._fixed8(values[order])
    rank_rows = training._csv_rows(qfields[:, None], ranks, gfields[order],
                                   fixed8)
    dist_rows = training._csv_rows(
        qfields[:, None], gfields[order],
        training._PAIRS[relevant.astype(np.intp)], fixed8)
    fields = [training._csv_field(q) for q in ids]
    rank_lines = dist_lines = ""
    for q, row, rel in zip(fields, order, relevant):
        for rank, (g, r) in enumerate(zip(row, rel), start=1):
            text = f"{values[g]:.8f}"
            rank_lines += f"{q},{rank},{gids[g]},{text}\n"
            pair = "positive" if r else "negative"
            dist_lines += f"{q},{gids[g]},{pair},{text}\n"
    assert bytes(rank_rows) == rank_lines.encode()
    assert bytes(dist_rows) == dist_lines.encode()
    unpadded = (len({len(f.encode()) for f in fields}) == 1
                and block in ("non-negative", "half boundary"))
    width = (qfields.itemsize + gfields.itemsize + training._PAIRS.itemsize
             + fixed8.itemsize + 1)
    assert (len(dist_rows) == order.size * width) == unpadded


def test_reports_refuse_nul_in_ids(tmp_path):
    report = _score_report([[0.5]])
    report.gallery_ids = ["g\0"]
    with pytest.raises(ValueError, match="NUL"):
        training.write_reports(report, str(tmp_path))


def test_nul_id_is_refused_before_a_thread_starts(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    report = _score_report([[0.5, 0.25]])
    report.query_ids = ["q\0"]
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NUL"):
        training.write_reports(report, str(tmp_path))
    assert not pools and threading.active_count() == threads
    assert os.listdir(tmp_path) == []


def _fail_second_block(monkeypatch, failing):
    """Make `_fixed8` raise `OSError("<side> writer failed")` on the second
    block of each side in `failing`: "main", the rankings CSV written on
    the calling thread, and "helper", the distances CSV. Each helper block
    takes 0.05 s longer. Returns the calls counted per side."""
    real, calls = training._fixed8, {"main": 0, "helper": 0}

    def fixed8(values):
        side = ("main" if threading.current_thread() is threading.main_thread()
                else "helper")
        calls[side] += 1
        if side == "helper":
            time.sleep(0.05)
        if side in failing and calls[side] == 2:
            raise OSError(f"{side} writer failed")
        return real(values)

    monkeypatch.setattr(training, "_fixed8", fixed8)
    return calls


REPORT_NAMES = ["retrieval_rankings.csv", "retrieval_summary.csv",
                "retrieval_distances.csv"]


def _read_all(paths):
    return [open(path, "rb").read() for path in paths]


@pytest.mark.parametrize("failing", [("helper",), ("main",),
                                     ("main", "helper")])
def test_report_writer_error_joins_the_helper(rng, tmp_path, monkeypatch,
                                              failing):
    """An error while either CSV is written propagates only after the helper
    thread has been joined; when both writers fail, the error of the
    rankings CSV, written on the calling thread, is the one raised, and
    that error stops the helper before its last block. Each helper block
    takes 0.05 s, so a helper left running is still alive when the call
    returns."""
    gallery = tied_records(rng, 12, 4, "g")
    queries = tied_records(rng, 9, 4, "q")
    report = retrieval.evaluate(queries, gallery, [1])
    monkeypatch.setattr(training, "_REPORT_BLOCK_ROWS", 2 * len(gallery))
    calls = _fail_second_block(monkeypatch, failing)
    threads = threading.active_count()
    with pytest.raises(OSError, match=f"^{failing[0]} writer failed$"):
        training.write_reports(report, str(tmp_path))
    assert threading.active_count() == threads
    if failing == ("main",):
        assert calls["helper"] < 5              # 9 queries, 2 per block


@pytest.mark.parametrize("old", ["longer", "shorter", "absent"])
def test_reports_written_over_old_files_equal_a_fresh_write(rng, tmp_path,
                                                           old):
    """Report files already in the directory, longer or shorter than the new
    reports, end up holding the bytes of a write into an empty directory;
    a report file that is created gets the mode `open(path, "wb")` gives.
    The ids differ in length (g0 ... g13)."""
    gallery = tied_records(rng, 14, 4, "g")
    queries = tied_records(rng, 11, 4, "q")
    report = retrieval.evaluate(queries, gallery, [1, 5])
    fresh = _read_all(training.write_reports(report, str(tmp_path / "fresh")))
    out = tmp_path / "out"
    out.mkdir()
    if old != "absent":
        for name, blob in zip(REPORT_NAMES, fresh):
            size = 2 * len(blob) if old == "longer" else len(blob) // 2
            (out / name).write_bytes(b"#" * size)
    paths = training.write_reports(report, str(out))
    assert sorted(os.listdir(out)) == sorted(REPORT_NAMES)
    assert _read_all(paths) == fresh
    if old == "absent":
        with open(tmp_path / "probe", "wb"):
            pass
        mode = os.stat(tmp_path / "probe").st_mode
        assert [os.stat(path).st_mode for path in paths] == [mode] * 3


@pytest.mark.parametrize("failing", [("helper",), ("main",),
                                     ("main", "helper")])
def test_failed_report_rewrite_leaves_no_summary(rng, tmp_path, monkeypatch,
                                                 failing):
    """A second `write_reports` into a filled report directory fails part
    way: the first run's summary is gone, and each CSV ends where its new
    rows stop, a prefix of whole rows of a write into an empty directory.
    The first run's ids are longer, so its CSVs are longer than the new
    ones and any old byte left behind would show."""
    gallery = tied_records(rng, 12, 4, "g")
    queries = tied_records(rng, 9, 4, "q")
    report = retrieval.evaluate(queries, gallery, [1])
    monkeypatch.setattr(training, "_REPORT_BLOCK_ROWS", 2 * len(gallery))
    rankings, _, distances = _read_all(
        training.write_reports(report, str(tmp_path / "fresh")))
    old = dataclasses.replace(
        report, query_ids=[f"{i}-old" for i in report.query_ids],
        gallery_ids=[f"{i}-old" for i in report.gallery_ids])
    out = str(tmp_path / "out")
    training.write_reports(old, out)
    _fail_second_block(monkeypatch, failing)
    with pytest.raises(OSError, match=f"^{failing[0]} writer failed$"):
        training.write_reports(report, out)
    assert sorted(os.listdir(out)) == sorted(
        [REPORT_NAMES[0], REPORT_NAMES[2]])
    for side, name, whole in (("main", REPORT_NAMES[0], rankings),
                              ("helper", REPORT_NAMES[2], distances)):
        blob = open(os.path.join(out, name), "rb").read()
        assert whole.startswith(blob) and blob.endswith(b"\n")
        if side in failing:
            assert len(blob) < len(whole)


@pytest.mark.parametrize("limit", [10, 6000])
def test_report_rewrite_failing_in_the_file_write_leaves_no_old_byte(
        rng, tmp_path, limit):
    """The file writes themselves fail: with a file size limit of `limit`
    bytes the write that crosses it stops there and the next one fails
    (EFBIG), inside the header or among the rows. Each CSV the first run
    left, longer than the new one, then holds the first `limit` bytes of
    a write into an empty directory and nothing of the old file."""
    resource = pytest.importorskip("resource")
    gallery = tied_records(rng, 40, 4, "g")
    queries = tied_records(rng, 30, 4, "q")
    report = retrieval.evaluate(queries, gallery, [1])
    rankings, _, distances = _read_all(
        training.write_reports(report, str(tmp_path / "fresh")))
    old = dataclasses.replace(
        report, query_ids=[f"{i}-old" for i in report.query_ids],
        gallery_ids=[f"{i}-old" for i in report.gallery_ids])
    out = str(tmp_path / "out")
    training.write_reports(old, out)
    assert limit < min(len(rankings), len(distances))
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        with pytest.raises(OSError) as failure:
            training.write_reports(report, out)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert failure.value.errno == errno.EFBIG
    assert sorted(os.listdir(out)) == sorted(
        [REPORT_NAMES[0], REPORT_NAMES[2]])
    assert _read_all([os.path.join(out, REPORT_NAMES[0]),
                      os.path.join(out, REPORT_NAMES[2])]) == [
        rankings[:limit], distances[:limit]]


@pytest.mark.parametrize("side", ["query", "gallery"])
def test_evaluate_rejects_duplicate_ids(rng, side):
    gallery = random_records(rng, 6, 4)
    queries = random_records(rng, 4, 4, prefix="q")
    records = queries if side == "query" else gallery
    records[3].id = records[1].id
    with pytest.raises(ValueError, match=f"duplicate {side} id '{records[1].id}'"):
        retrieval.evaluate(queries, gallery, [1])


def test_evaluate_rejects_dimension_mismatch(rng):
    gallery = random_records(rng, 6, 4)
    queries = random_records(rng, 3, 3, prefix="q")
    with pytest.raises(ValueError,
                       match="^dimension mismatch: query 3 vs gallery 4$"):
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
    ("view", "aerial"), ("id", "a\0b"), ("class_id", 1.5),
    ("class_id", "3")])
def test_store_rejects_fields_out_of_range(tmp_path, field, value):
    rec = EmbeddingRecord("a", "drone", 0, unit([1, 0]))
    setattr(rec, field, value)
    path = str(tmp_path / "store.bin")
    with pytest.raises(retrieval.StoreError):
        retrieval.save_embeddings([rec], path)
    assert not os.path.exists(path)


def test_store_keeps_a_numpy_integer_class_id(tmp_path):
    path = str(tmp_path / "store.bin")
    retrieval.save_embeddings(
        [EmbeddingRecord("a", "drone", np.uint32(2 ** 32 - 1), unit([1, 0]))],
        path)
    assert retrieval.load_embeddings(path)[0].class_id == 2 ** 32 - 1


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


# The record-by-record store writer and reader that the one-pass
# `save_embeddings` and `_parse_store` replaced, kept as their oracles.

def oracle_store_bytes(records):
    dim = len(records[0].vector) if records else 0
    blob = bytearray(retrieval.MAGIC)
    blob += struct.pack("<III", retrieval.VERSION, len(records), dim)
    for i, r in enumerate(records):
        vec = np.asarray(r.vector, dtype="<f4")
        if dim and vec.shape != (dim,):
            raise retrieval.StoreError(
                f"record {r.id!r} has dim {vec.shape}, expected {dim}")
        if not np.isfinite(vec).all():
            raise retrieval.StoreNonFiniteError(
                f"record {r.id!r} vector is not finite")
        if problem := retrieval._record_problem(r.id, r.view, r.class_id):
            raise retrieval.StoreError(f"record {i}: {problem}")
        rid = r.id.encode()
        blob += struct.pack("<H", len(rid)) + rid
        blob += struct.pack("<BI", retrieval.VIEW_CODES[r.view], r.class_id)
        blob += vec.tobytes()
    return bytes(blob)


def oracle_parse_store(blob):
    r = Reader(blob, retrieval.StoreError, retrieval.StoreTruncatedError)
    if r.take(4, "magic") != retrieval.MAGIC:
        raise retrieval.StoreMagicError("bad store magic")
    version, count, dim = r.unpack("<III", "header")
    if version != retrieval.VERSION:
        raise retrieval.StoreVersionError(
            f"unsupported store version {version}")
    records = []
    for i in range(count):
        (nlen,) = r.unpack("<H", f"record {i} id length")
        rid = r.text(nlen, f"record {i} id")
        if "\0" in rid:
            raise retrieval.StoreError(
                f"record {rid!r} id holds a NUL character")
        view_code, class_id = r.unpack("<BI", f"record {i} tags")
        if view_code not in retrieval.CODE_VIEWS:
            raise retrieval.StoreError(
                f"record {rid!r} has unknown view code {view_code}")
        vec = np.frombuffer(r.take(4 * dim, f"record {i} vector"),
                            dtype="<f4")
        if not np.isfinite(vec).all():
            raise retrieval.StoreNonFiniteError(
                f"record {rid!r} vector is not finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-4:
            raise retrieval.StoreVectorError(
                f"record {rid!r} vector norm {norm:.6f} is not unit")
        records.append(EmbeddingRecord(rid, retrieval.CODE_VIEWS[view_code],
                                       class_id, np.array(vec)))
    r.end()
    return records


def outcome(fn, *args):
    """("ok", fields of each record) or (error type, message) of fn(*args)."""
    try:
        out = fn(*args)
    except (retrieval.StoreError, retrieval.StoreNonFiniteError) as e:
        return type(e), str(e)
    if isinstance(out, bytes):
        return "ok", out
    return "ok", [(r.id, r.view, r.class_id, r.vector.dtype.str,
                   r.vector.shape, r.vector.tobytes()) for r in out]


def store_records(rng, n, dim):
    """Unit records with ids of varied length (UTF-8, quotes, commas, empty)
    and class ids over the whole u32 range."""
    alphabet = list('ab,"_9\u00e9\u6771')
    return [EmbeddingRecord(
        "".join(rng.choice(alphabet, size=int(rng.integers(0, 9)))),
        ("drone", "satellite")[int(rng.integers(2))],
        int(rng.integers(0, 2 ** 32)), unit(rng.normal(size=dim)))
        for _ in range(n)]


def save_outcome(records, path):
    try:
        retrieval.save_embeddings(records, path)
    except (retrieval.StoreError, retrieval.StoreNonFiniteError) as e:
        assert not os.path.exists(path)
        return type(e), str(e)
    with open(path, "rb") as fh:
        return "ok", fh.read()


def test_store_save_and_load_match_the_record_by_record_oracles(rng,
                                                                 tmp_path):
    for trial in range(40):
        dim = int(rng.choice([1, 2, 3, 7, 96, 1000]))
        records = store_records(rng, int(rng.integers(0, 30)), dim)
        path = str(tmp_path / f"t{trial}.bin")
        assert save_outcome(records, path) == \
            outcome(oracle_store_bytes, records)
        blob = open(path, "rb").read()
        assert outcome(retrieval._parse_store, blob) == \
            outcome(oracle_parse_store, blob)
    loaded = retrieval._parse_store(blob)
    assert all(r.vector.flags.writeable for r in loaded)


SAVE_FAULTS = {
    "width": lambda r: setattr(r, "vector", np.append(r.vector, 0.0)),
    "nan": lambda r: r.vector.__setitem__(0, np.nan),
    "inf": lambda r: r.vector.__setitem__(-1, -np.inf),
    "view": lambda r: setattr(r, "view", "aerial"),
    "class": lambda r: setattr(r, "class_id", -1),
    "nul": lambda r: setattr(r, "id", "a\0b"),
}


@pytest.mark.parametrize("first", SAVE_FAULTS)
@pytest.mark.parametrize("second", SAVE_FAULTS)
def test_store_save_raises_for_the_first_bad_record(rng, tmp_path, first,
                                                    second):
    """The first bad record raises with the first check it fails, also when a
    later record is bad in another way, or in two ways at once."""
    for i, j in ((1, 2), (2, 5), (4, 4)):
        records = store_records(rng, 6, 5)
        SAVE_FAULTS[first](records[i])
        SAVE_FAULTS[second](records[j])
        path = str(tmp_path / f"{i}{j}.bin")
        got = save_outcome(records, path)
        assert got[0] != "ok" and got == outcome(oracle_store_bytes, records)


def test_store_save_refuses_a_vector_wider_than_an_empty_first_one(tmp_path):
    """The width of the first vector binds every record, even when it is 0
    (a record-by-record writer skipped the check then and wrote a store
    whose count and dimension misread the bytes that follow)."""
    path = str(tmp_path / "store.bin")
    records = [EmbeddingRecord("a", "drone", 0, np.zeros(0, np.float32)),
               unit_record("b")]
    with pytest.raises(retrieval.StoreError,
                       match=r"record 'b' has dim \(2,\), expected 0"):
        retrieval.save_embeddings(records, path)
    assert not os.path.exists(path)


def raw_store(rows, dim):
    """Store bytes from (id bytes, view code, class id, vector) rows, and the
    offset where each record starts."""
    blob = retrieval.MAGIC + struct.pack("<III", retrieval.VERSION, len(rows),
                                         dim)
    starts = []
    for rid, code, class_id, vec in rows:
        starts.append(len(blob))
        blob += (struct.pack("<H", len(rid)) + rid
                 + struct.pack("<BI", code, class_id)
                 + np.asarray(vec, dtype="<f4").tobytes())
    return blob, starts


def plant(row, fault):
    rid, code, class_id, vec = row
    vec = np.array(vec, dtype=np.float32)
    if fault == "utf8":
        rid = b"\xffx"
    elif fault == "nul":
        rid = b"a\0b"
    elif fault == "view":
        code = 9
    elif fault == "nan":
        vec[1] = np.nan
    elif fault == "inf":
        vec[0] = np.inf
    elif fault == "norm":
        vec *= 1.01
    elif fault == "zero":
        vec[:] = 0.0
    return rid, code, class_id, vec


@pytest.mark.parametrize("first", ["utf8", "nul", "view", "nan", "inf",
                                   "norm", "zero"])
@pytest.mark.parametrize("second", ["utf8", "nul", "view", "nan", "norm",
                                    "truncated", "trailing"])
def test_store_load_raises_for_the_first_bad_record(rng, first, second):
    """A record-by-record reader's error for the first bad record, as type
    and message, whatever a later record holds: a fault in the walk over
    the ids and tags of a later record (or a truncation or trailing bytes)
    is raised only after the vectors before it have passed."""
    dim = 5
    for i, j in ((0, 1), (1, 4), (3, 5)):
        rows = [(r.id.encode(), retrieval.VIEW_CODES[r.view], r.class_id,
                 r.vector) for r in store_records(rng, 6, dim)]
        rows[i] = plant(rows[i], first)
        if second not in ("truncated", "trailing"):
            rows[j] = plant(rows[j], second)
        blob, starts = raw_store(rows, dim)
        if second == "truncated":
            end = starts[j + 1] if j + 1 < len(starts) else len(blob)
            blob = blob[:int(rng.integers(starts[j], end))]
        elif second == "trailing":
            blob += b"\0"
        expected = outcome(oracle_parse_store, blob)
        assert expected[0] != "ok"
        assert outcome(retrieval._parse_store, blob) == expected


@pytest.mark.parametrize("dim", [1, 5, 96])
def test_store_load_decides_norms_at_the_bound_as_the_oracle(rng, dim):
    """Vectors whose float32 norm steps one ulp at a time across 1 - 1e-4
    and 1 + 1e-4 are accepted and refused as a record-by-record reader
    accepts and refuses them."""
    base = unit(rng.normal(size=dim)).astype(np.float64)
    decided = set()
    for edge in (1 - 1e-4, 1 + 1e-4):
        scale = np.float32(edge)
        for _ in range(6):
            scale = np.nextafter(scale, np.float32(0))
        for _ in range(12):
            vec = (base * float(scale)).astype(np.float32)
            blob, _ = raw_store([(b"q", 0, 0, vec), (b"r", 1, 1, unit(base))],
                                dim)
            expected = outcome(oracle_parse_store, blob)
            assert outcome(retrieval._parse_store, blob) == expected
            decided.add(expected[0])
            scale = np.nextafter(scale, np.float32(2))
    assert decided == {"ok", retrieval.StoreVectorError}
