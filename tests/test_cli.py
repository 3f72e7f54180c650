"""End-to-end command-line pipeline and exit-code contracts."""

import csv
import dataclasses
import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import sfde
from sfde import cli, data, retrieval, selftest, spectral
from sfde.autodiff import Tensor
from sfde.model import (ModelConfig, SFDEModel, load_checkpoint,
                        save_checkpoint)
from sfde.train import EMBED_BATCH


CFG = """
[model]
stage_channels = 4,4,8,8
blocks_per_stage = 1
input_size = 128
embed_dim = 8
heads = 2

[train]
steps = 8
batch_pairs = 4
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> train -> embed (both views) once for the module."""
    base = tmp_path_factory.mktemp("cli")
    root = str(base / "data")
    manifest = str(base / "manifest.csv")
    cfg = str(base / "run.cfg")
    ckpt = str(base / "model.ckpt")
    q = str(base / "drone.bin")
    g = str(base / "sat.bin")
    open(cfg, "w").write(CFG)
    assert cli.main(["synth", "--root", root, "--classes", "4",
                     "--size", "32", "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["ingest", "--root", root, "--out", manifest]) == cli.EXIT_OK
    assert cli.main(["train", "--config", cfg, "--manifest", manifest,
                     "--out", ckpt]) == cli.EXIT_OK
    assert cli.main(["embed", "--ckpt", ckpt, "--manifest", manifest,
                     "--split", "train", "--view", "drone",
                     "--out", q]) == cli.EXIT_OK
    assert cli.main(["embed", "--ckpt", ckpt, "--manifest", manifest,
                     "--split", "train", "--view", "satellite",
                     "--out", g]) == cli.EXIT_OK
    return dict(base=base, root=root, manifest=manifest, cfg=cfg,
                ckpt=ckpt, query=q, gallery=g)


def _edited_manifest(src, dst, edit):
    """The manifest CSV `src` written again at `dst`, each data row (a list
    of its fields) passed through `edit` first. The rows go through `csv`
    only, so a field that no `ManifestEntry` may hold is written as it is."""
    with open(src, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + [edit(r) for r in rows])
    return dst


def test_selftest_passes_and_prints_table(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == len(selftest.PROPERTIES)
    assert "FAIL" not in out


def test_selftest_reports_injected_fault(monkeypatch, capsys):
    """An inverse FFT off by 1% while the round-trip property runs fails
    that property and no other."""
    irfft2 = spectral.irfft2

    def broken_irfft2(s):
        return Tensor(irfft2(s).data * 1.01)

    def with_broken_inverse(check):
        def run_check(rng):
            with monkeypatch.context() as m:
                m.setattr(spectral, "irfft2", broken_irfft2)
                return check(rng)
        return run_check

    monkeypatch.setattr(selftest, "PROPERTIES", [
        (name, with_broken_inverse(check) if name == "fft-round-trip"
         else check) for name, check in selftest.PROPERTIES])
    failures = selftest.run()
    assert failures == ["fft-round-trip"]
    assert any(line.startswith("FAIL") and "fft-round-trip" in line
               for line in capsys.readouterr().out.splitlines())


def test_selftest_repeatable(capsys):
    cli.main(["selftest"])
    first = capsys.readouterr().out
    cli.main(["selftest"])
    second = capsys.readouterr().out
    assert first == second


def test_embed_store_counts(pipeline):
    queries = retrieval.load_embeddings(pipeline["query"])
    gallery = retrieval.load_embeddings(pipeline["gallery"])
    assert len(queries) == 8   # 4 classes x 2 drone
    assert len(gallery) == 4
    assert all(r.view == "drone" for r in queries)
    assert len(queries[0].vector) == 8 + 8 + 8


def test_eval_writes_reports(pipeline, capsys):
    out_dir = str(pipeline["base"] / "report")
    code = cli.main(["eval", "--query", pipeline["query"],
                     "--gallery", pipeline["gallery"],
                     "--k", "1,2", "--out", out_dir])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "R@1" in printed and "AP" in printed
    rankings = open(f"{out_dir}/retrieval_rankings.csv").read().splitlines()
    assert rankings[0] == "query_id,rank,gallery_id,score"
    assert len(rankings) == 1 + 8 * 4
    summary = open(f"{out_dir}/retrieval_summary.csv").read()
    assert "recall,1," in summary and "mean_ap,," in summary
    distances = open(f"{out_dir}/retrieval_distances.csv").read()
    assert "positive" in distances and "negative" in distances


@pytest.mark.parametrize("blocked", [
    ["retrieval_distances.csv"],
    ["retrieval_rankings.csv"],
    ["retrieval_rankings.csv", "retrieval_distances.csv"]])
def test_eval_report_path_taken_by_a_directory_is_io_error(pipeline, tmp_path,
                                                           capsys, blocked):
    """A CSV path that is a directory: exit 3 naming it, no traceback, and no
    thread outlives the command. The distances CSV is written on a helper
    thread; when both CSVs fail, the rankings path is the one named."""
    out_dir = tmp_path / "report"
    for name in blocked:
        (out_dir / name).mkdir(parents=True)
    threads = threading.active_count()
    code = cli.main(["eval", "--query", pipeline["query"], "--gallery",
                     pipeline["gallery"], "--k", "1", "--out", str(out_dir)])
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert str(out_dir / blocked[0]) in err
    assert all(str(out_dir / name) not in err for name in blocked[1:])
    assert "Traceback" not in err


def test_eval_k_exceeding_gallery_is_validation_error(pipeline):
    code = cli.main(["eval", "--query", pipeline["query"],
                     "--gallery", pipeline["gallery"],
                     "--k", "50", "--out", str(pipeline["base"] / "r2")])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("k, bad", [("0", "0"), ("1,-1", "-1")])
def test_eval_k_below_one_is_validation_error(pipeline, tmp_path, capsys,
                                              k, bad):
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", pipeline["query"],
                     "--gallery", pipeline["gallery"],
                     "--k", k, "--out", str(out_dir)])
    assert code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"K={bad} is below 1" in captured.err
    assert "R@" not in captured.out
    assert not out_dir.exists()


def test_eval_dimension_mismatch_is_validation_error(pipeline, tmp_path,
                                                    capsys):
    vec = np.zeros(4, dtype=np.float32)
    vec[0] = 1.0
    small = str(tmp_path / "small.bin")
    retrieval.save_embeddings(
        [retrieval.EmbeddingRecord("x", "drone", 0, vec)], small)
    code = cli.main(["eval", "--query", small,
                     "--gallery", pipeline["gallery"],
                     "--k", "1", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_VALIDATION
    dim = len(retrieval.load_embeddings(pipeline["gallery"])[0].vector)
    err = capsys.readouterr().err
    assert f"dimension mismatch: query 4 vs gallery {dim}" in err
    assert "Traceback" not in err


def test_eval_duplicate_query_id_is_validation_error(pipeline, tmp_path,
                                                    capsys):
    queries = retrieval.load_embeddings(pipeline["query"])
    queries[1].id = queries[0].id
    dup = str(tmp_path / "dup.bin")
    retrieval.save_embeddings(queries, dup)
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", dup, "--gallery", pipeline["gallery"],
                     "--k", "1", "--out", str(out_dir)])
    assert code == cli.EXIT_VALIDATION
    assert f"duplicate query id {queries[0].id!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def _blas_env(threads):
    """The environment for an `sfde` subprocess with `threads` BLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfde.__file__)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(
                    [src] + [p for p in os.environ.get("PYTHONPATH", "")
                             .split(os.pathsep) if p]))


def test_eval_reports_do_not_depend_on_blas_threads(tmp_path):
    """The score matrix is large enough for a threaded BLAS to split it."""
    rng = np.random.default_rng(5)
    stores = {}
    for name, n, view in (("query", 200, "drone"), ("gallery", 300, "satellite")):
        vecs = rng.normal(size=(n, 64))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        stores[name] = str(tmp_path / f"{name}.bin")
        retrieval.save_embeddings(
            [retrieval.EmbeddingRecord(f"{name[0]}{i}", view,
                                       int(rng.integers(40)),
                                       v.astype(np.float32))
             for i, v in enumerate(vecs)], stores[name])
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "sfde.cli", "eval", "--query",
             stores["query"], "--gallery", stores["gallery"],
             "--k", "1,5", "--out", str(out_dir)],
            env=_blas_env(threads), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        reports.append({n: (out_dir / f"retrieval_{n}.csv").read_bytes()
                        for n in ("rankings", "summary", "distances")})
    assert reports[0] == reports[1]


def test_train_does_not_depend_on_blas_threads(pipeline, tmp_path):
    """16 channels at 32x32 make the 1x1 convs' matmuls large enough for a
    threaded BLAS to split them."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(CFG.replace("4,4,8,8", "16,16,16,32"))
    outputs = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "sfde.cli", "train", "--config", str(cfg),
             "--manifest", pipeline["manifest"], "--out", str(ckpt)],
            env=_blas_env(threads), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        outputs.append((ckpt.read_bytes(),
                        (tmp_path / f"threads{threads}.ckpt.log.csv")
                        .read_bytes()))
    assert outputs[0] == outputs[1]


def test_embed_does_not_depend_on_blas_threads(pipeline, tmp_path):
    """16 channels at 32x32 and a whole chunk of images per forward pass
    make the 1x1 convs' matmuls large enough for a threaded BLAS to split
    them."""
    model = SFDEModel(ModelConfig(stage_channels=(16, 16, 16, 32),
                                  blocks_per_stage=1, input_size=128,
                                  embed_dim=8, heads=2, num_classes=4),
                      np.random.default_rng(7))
    ckpt = str(tmp_path / "wide.ckpt")
    save_checkpoint(ckpt, model, {"norm_mean": [0.45, 0.5, 0.4],
                                  "norm_std": [0.2, 0.25, 0.3]})
    stores = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "sfde.cli", "embed", "--ckpt", ckpt,
             "--manifest", pipeline["manifest"], "--split", "train",
             "--view", "both", "--out", str(out)],
            env=_blas_env(threads), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        stores.append(out.read_bytes())
    assert stores[0] == stores[1]


def test_eval_non_finite_store_is_numeric_error(pipeline, tmp_path, capsys):
    bad = str(tmp_path / "nan.bin")
    blob = bytearray(open(pipeline["query"], "rb").read())
    blob[-4:] = np.array(np.nan, dtype="<f4").tobytes()
    open(bad, "wb").write(bytes(blob))
    last_id = retrieval.load_embeddings(pipeline["query"])[-1].id
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", bad, "--gallery", pipeline["gallery"],
                     "--k", "1", "--out", str(out_dir)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"record {last_id!r}" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value, message", [
    ("mystery_knob", 1, "malformed model_config"),
    ("stage_channels", None, "malformed model_config"),
    ("stage_channels", 5, "malformed model_config"),
    (None, None, "malformed model_config"),
    ("dtype", "float16",
     "malformed model_config in checkpoint (dtype must be float32 or float64"),
    ("norm_mean", None, "checkpoint header needs a 3-element norm_mean"),
    ("norm_std", [1.0, 1.0], "checkpoint header needs a 3-element norm_std"),
    ("embed_dim", "32", "malformed model_config in checkpoint (embed_dim "
     "must be of type int, got '32')"),
    ("heads", 2.0, "malformed model_config in checkpoint (heads must be of "
     "type int, got 2.0)"),
    ("embed_dim", 0, "malformed model_config in checkpoint (embed_dim must "
     "be at least 1, got 0)"),
    ("use_fsab", "no", "malformed model_config in checkpoint (use_fsab must "
     "be true or false, got 'no')"),
    ("blocks_per_stage", -1, "malformed model_config in checkpoint "
     "(blocks_per_stage must be at least 1, got -1)"),
    ("heads", 3, "malformed model_config in checkpoint (feature channels 8 "
     "not divisible by 3 heads)"),
    ("input_size", 2880, "malformed model_config in checkpoint (input size "
     "2880 above 2816, the largest whose frequency branch keeps within the "
     "attention budget of 4096 spectral tokens)")],
    ids=["mystery_knob-1", "stage_channels-None", "stage_channels-5",
         "None-None", "dtype-float16", "norm_mean-None", "norm_std-short",
         "embed_dim-str", "heads-float", "embed_dim-zero", "use_fsab-str",
         "blocks_per_stage-negative", "heads-cross-field",
         "input_size-token-budget"])
def test_malformed_checkpoint_config_is_validation_error(pipeline, tmp_path,
                                                         capsys, key, value,
                                                         message):
    """An unknown key, a missing or non-list `stage_channels`, a missing
    `model_config`, a value that breaks a config file's rules (type, bound
    or choices), a value that breaks a rule spanning fields, and a missing
    or short `norm_mean`/`norm_std` are each a CheckpointError, not a
    traceback."""
    blob = open(pipeline["ckpt"], "rb").read()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen].decode())
    section = (header if key in ("norm_mean", "norm_std")
               else header.get("model_config"))
    if key is None:
        del header["model_config"]
    elif value is None:
        del section[key]
    else:
        section[key] = value
    text = json.dumps(header).encode()
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(blob[:8] + struct.pack("<I", len(text)) + text
                          + blob[12 + hlen:])
    code = cli.main(["embed", "--ckpt", bad, "--manifest", pipeline["manifest"],
                     "--split", "train", "--view", "drone",
                     "--out", str(tmp_path / "e.bin")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "e.bin").exists()


def test_train_without_train_entries_is_validation_error(pipeline, tmp_path,
                                                         capsys):
    manifest = data.load_manifest(pipeline["manifest"])
    bad = str(tmp_path / "no_train.csv")
    data.save_manifest(data.DatasetManifest(
        [dataclasses.replace(e, split="test") for e in manifest.entries]), bad)
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", pipeline["cfg"], "--manifest", bad,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no train entries" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_store_with_nul_in_id_is_validation_error(pipeline, tmp_path,
                                                      capsys):
    first = retrieval.load_embeddings(pipeline["query"])[0].id
    blob = bytearray(open(pipeline["query"], "rb").read())
    blob[19] = 0                                # the first id's second byte
    bad = tmp_path / "nul.bin"
    bad.write_bytes(bytes(blob))
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", str(bad), "--gallery",
                     pipeline["gallery"], "--k", "1", "--out", str(out_dir)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert repr(first[0] + "\0" + first[2:]) in err and "Traceback" not in err
    assert not out_dir.exists()


def test_eval_store_with_non_utf8_id_is_validation_error(pipeline, tmp_path,
                                                        capsys):
    """A hand-built one-record store whose id is the byte 0xff."""
    vec = np.zeros(8, dtype="<f4")
    vec[0] = 1.0
    blob = (retrieval.MAGIC + struct.pack("<III", retrieval.VERSION, 1, 8)
            + struct.pack("<H", 1) + b"\xff" + struct.pack("<BI", 0, 0)
            + vec.tobytes())
    bad = tmp_path / "ff.bin"
    bad.write_bytes(blob)
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", str(bad), "--gallery",
                     pipeline["gallery"], "--k", "1", "--out", str(out_dir)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "record 0 id is not valid UTF-8 (byte 0xff at byte 18)" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("fault", ["non-utf8-id", "truncated"])
def test_eval_bad_gallery_store_names_its_path(pipeline, tmp_path, capsys,
                                               fault):
    """The pipeline gallery store with its first id byte made 0xff, or with
    its last 3 bytes cut off: the error names the gallery path."""
    blob = bytearray(open(pipeline["gallery"], "rb").read())
    if fault == "non-utf8-id":
        blob[18] = 0xFF
    else:
        del blob[-3:]
    bad = tmp_path / "gallery.bin"
    bad.write_bytes(bytes(blob))
    out_dir = tmp_path / "r"
    code = cli.main(["eval", "--query", pipeline["query"], "--gallery",
                     str(bad), "--k", "1", "--out", str(out_dir)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"store {bad}: " in err and pipeline["query"] not in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def _embed_with(pipeline, tmp_path, blob):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", str(bad), "--manifest",
                     pipeline["manifest"], "--split", "train", "--view",
                     "drone", "--out", str(out)])
    assert not out.exists()
    return code


def test_checkpoint_with_non_utf8_array_name_is_validation_error(
        pipeline, tmp_path, capsys):
    """The pipeline checkpoint with the first byte of its first array name
    replaced by 0xff."""
    blob = bytearray(open(pipeline["ckpt"], "rb").read())
    (hlen,) = struct.unpack("<I", blob[8:12])
    name_at = 12 + hlen + 4 + 2              # header, array count, name length
    blob[name_at] = 0xFF
    code = _embed_with(pipeline, tmp_path, bytes(blob))
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert (f"array 0 name is not valid UTF-8 (byte 0xff at byte {name_at})"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("header, message", [
    (b"{not json", "malformed checkpoint header (Expecting property name"),
    (b"[1, 2]", "malformed checkpoint header (not a JSON object)"),
    (b"\xff", "header is not valid UTF-8")],
    ids=["not-json", "json-list", "not-utf8"])
def test_malformed_checkpoint_header_is_validation_error(pipeline, tmp_path,
                                                         capsys, header,
                                                         message):
    """The pipeline checkpoint with its JSON header replaced."""
    blob = open(pipeline["ckpt"], "rb").read()
    (hlen,) = struct.unpack("<I", blob[8:12])
    code = _embed_with(pipeline, tmp_path,
                       blob[:8] + struct.pack("<I", len(header)) + header
                       + blob[12 + hlen:])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_corrupt_store_is_validation_error(pipeline, tmp_path):
    bad = str(tmp_path / "bad.bin")
    blob = bytearray(open(pipeline["query"], "rb").read())
    blob[:4] = b"XXXX"
    open(bad, "wb").write(bytes(blob))
    code = cli.main(["eval", "--query", bad, "--gallery", pipeline["gallery"],
                     "--k", "1", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_VALIDATION


def test_missing_file_is_io_error(tmp_path):
    code = cli.main(["eval", "--query", str(tmp_path / "none.bin"),
                     "--gallery", str(tmp_path / "none.bin"),
                     "--k", "1", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_IO


def test_ingest_unpaired_is_validation_error(tmp_path):
    vdir = tmp_path / "train" / "0" / "satellite"
    vdir.mkdir(parents=True)
    data.write_pnm(str(vdir / "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
    code = cli.main(["ingest", "--root", str(tmp_path),
                     "--out", str(tmp_path / "m.csv")])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("cls", ["-1", "4294967296"])
def test_ingest_class_outside_store_range_is_validation_error(tmp_path,
                                                             capsys, cls):
    root = tmp_path / "data"
    for view in data.VIEWS:
        vdir = root / "train" / cls / view
        vdir.mkdir(parents=True)
        data.write_pnm(str(vdir / "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
    out = tmp_path / "m.csv"
    code = cli.main(["ingest", "--root", str(root), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(root / "train" / cls) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("class_id", -1), ("class_id", 2 ** 32), ("id", "a\0b"),
    ("id", "x" * 65536)],
    ids=["negative-class", "class-2^32", "nul-id", "long-id"])
def test_train_on_a_row_the_store_cannot_hold_is_validation_error(
        pipeline, tmp_path, capsys, field, value):
    """Refused when the manifest is read, before any image is decoded; a
    class id is changed on every entry of its class, so the manifest stays
    paired."""
    first = data.load_manifest(pipeline["manifest"]).entries[0]
    column = data.MANIFEST_COLUMNS.index(field)

    def edit(row):
        if (row[3] == str(first.class_id) if field == "class_id"
                else row[0] == first.id):
            row[column] = str(value)
        return row

    bad = _edited_manifest(pipeline["manifest"], str(tmp_path / "bad.csv"),
                           edit)
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", pipeline["cfg"], "--manifest", bad,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}, line 2: " in err and "Traceback" not in err
    assert not out.exists()


def _train_on_missing_images(pipeline, tmp_path, capsys, cfg_text):
    """`sfde train` with config `cfg_text` on a manifest none of whose image
    paths exists, so a decode would exit 3: its exit code and stderr. It
    must write no checkpoint."""
    column = data.MANIFEST_COLUMNS.index("path")

    def edit(row):
        row[column] = str(tmp_path / "missing" / os.path.basename(row[column]))
        return row

    bad = _edited_manifest(pipeline["manifest"], str(tmp_path / "gone.csv"),
                           edit)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", str(cfg), "--manifest", bad,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    return code, err


def test_train_over_the_token_budget_is_refused_before_any_decode(
        pipeline, tmp_path, capsys):
    """The input size cap set by the attention token budget is a model
    rule, refused when the model config is built."""
    code, err = _train_on_missing_images(
        pipeline, tmp_path, capsys,
        CFG.replace("input_size = 128", "input_size = 2880"))
    assert code == cli.EXIT_VALIDATION
    assert ("input size 2880 above 2816, the largest whose frequency branch "
            "keeps within the attention budget of 4096 spectral tokens") in err


def test_train_over_the_size_cap_without_frequency_branch_is_refused(
        pipeline, tmp_path, capsys):
    """The cap holds whatever the branches: without the frequency branch a
    32000 px model is refused before any image is decoded, too."""
    code, err = _train_on_missing_images(
        pipeline, tmp_path, capsys,
        CFG.replace("input_size = 128", "input_size = 32000\nuse_fsab = false"))
    assert code == cli.EXIT_VALIDATION
    assert "input size 32000 above 2816" in err


def test_bad_config_is_validation_error(pipeline, tmp_path):
    cfg = str(tmp_path / "bad.cfg")
    open(cfg, "w").write("mystery_knob = 1\n")
    code = cli.main(["train", "--config", cfg,
                     "--manifest", pipeline["manifest"],
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["eval", "--query", "q.bin", "--out", "r"],
    ["embed", "--ckpt", "m.ckpt", "--manifest", "m.csv", "--split", "train",
     "--view", "top", "--out", "e.bin"],
    ["synth", "--root", "data", "--size", "ten"]],
    ids=["missing-gallery", "unknown-view", "size-not-int"])
def test_usage_error_is_validation_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert "usage: sfde" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, least", [
    ("--classes", "0", 1), ("--drone", "0", 1), ("--satellite", "0", 1),
    ("--size", "1", 2)])
def test_synth_count_that_makes_no_dataset_is_validation_error(
        tmp_path, capsys, flag, value, least):
    root = tmp_path / "data"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["synth", "--root", str(root), flag, value])
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert f"argument {flag}: must be at least {least}" in capsys.readouterr().err
    assert not root.exists()


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--help"])
    assert exit_.value.code == cli.EXIT_OK
    assert "--manifest" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [
    ("batch_pairs = 4", "batch_pairs = 1\n[model]\nuse_gscb = false"),
    ("heads = 2", "heads = 2\nuse_gscb = false\nuse_lgsb = false\n"
                  "use_fsab = false")],
    ids=["one-pair-no-classifier", "no-branch"])
def test_train_without_a_loss_term_is_validation_error(pipeline, tmp_path,
                                                        capsys, old, new):
    """Refused at the first step: nothing is trained and no checkpoint is
    written."""
    cfg = tmp_path / "noloss.cfg"
    cfg.write_text(CFG.replace(old, new))
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", str(cfg),
                     "--manifest", pipeline["manifest"], "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no loss term" in err and "use_gscb" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[train]\nsteps = 0\n", "line 2: steps must be at least 1, got '0'"),
    ("[train]\nbatch_pairs = 0\n",
     "line 2: batch_pairs must be at least 1, got '0'"),
    ("[train]\nsteps = ten\n", "line 2: steps must be of type int, got 'ten'"),
    ("[train]\nsteps = 3\n\nsteps = 4\n",
     "line 4: key 'steps' is already set on line 2"),
    ("[model]\nheads = 0\n", "line 2: heads must be at least 1, got '0'"),
    ("[loss]\nlambda_ce = -1\n",
     "line 2: lambda_ce must be at least 0, got '-1'"),
    ("[loss]\nlambda_ce = nan\n",
     "line 2: lambda_ce must be a finite number, got 'nan'"),
    ("[train]\nlearning_rate = inf\n",
     "line 2: learning_rate must be a finite number, got 'inf'"),
    ("[train]\nlr_floor = nan\n",
     "line 2: lr_floor must be a finite number, got 'nan'"),
    ("[train]\nwarmup_fraction = 5\n",
     "line 2: warmup_fraction must be at most 1, got '5'"),
    ("[train]\nflip_probability = -2\n",
     "line 2: flip_probability must be at least 0, got '-2'"),
    ("[train]\nweight_decay = -1\n",
     "line 2: weight_decay must be at least 0, got '-1'"),
    ("[model]\nembed_dim = 0\n",
     "line 2: embed_dim must be at least 1, got '0'"),
    ("[model]\nstage_channels = 8,0,16,32\n",
     "line 2: stage_channels must be at least 1, got '8,0,16,32'"),
    ("[model]\nstage_channels = 8,-16,16,32\n",
     "line 2: stage_channels must be at least 1, got '8,-16,16,32'"),
    ("[train]\nseed = -1\n", "line 2: seed must be at least 0, got '-1'"),
    ("[model]\nblocks_per_stage = -1\n",
     "line 2: blocks_per_stage must be at least 1, got '-1'"),
    ("[model]\ninput_size = 0\n",
     "line 2: input_size must be at least 32, got '0'")],
    ids=["steps-zero", "batch-pairs-zero", "steps-not-int", "repeated-key",
         "heads-zero", "lambda-ce-negative", "lambda-ce-nan",
         "learning-rate-inf", "lr-floor-nan", "warmup-fraction-above-one",
         "flip-probability-negative", "weight-decay-negative",
         "embed-dim-zero", "stage-channel-zero", "stage-channel-negative",
         "seed-negative", "blocks-per-stage-negative", "input-size-zero"])
def test_bad_config_value_names_line_and_key(pipeline, tmp_path, capsys,
                                             monkeypatch, text, message):
    """Rejected while parsing: no image is read and no checkpoint written."""
    def no_images(*args):
        raise AssertionError("an image was read")

    monkeypatch.setattr(sfde.train, "load_image", no_images)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", str(cfg),
                     "--manifest", pipeline["manifest"], "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_non_utf8_config_names_its_path(pipeline, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[train]\nsteps = 2\n# caf\xe9\n")
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", str(cfg),
                     "--manifest", pipeline["manifest"], "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{cfg} is not valid UTF-8 (byte 0xe9 at byte 23)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_utf8_manifest_names_its_path(pipeline, tmp_path, capsys):
    blob = open(pipeline["manifest"], "rb").read()
    cut = blob.index(b"\n") + 1
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(blob[:cut] + b"\xff" + blob[cut:])
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"],
                     "--manifest", str(bad), "--split", "train",
                     "--view", "both", "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad} is not valid UTF-8 (byte 0xff at byte {cut})" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_embed_empty_subset_is_validation_error(pipeline, tmp_path):
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"],
                     "--manifest", pipeline["manifest"],
                     "--split", "nope", "--view", "both",
                     "--out", str(tmp_path / "e.bin")])
    assert code == cli.EXIT_VALIDATION


def test_short_manifest_row_is_validation_error(pipeline, tmp_path, capsys):
    lines = open(pipeline["manifest"]).read().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])
    bad = str(tmp_path / "short.csv")
    open(bad, "w").write("\n".join(lines) + "\n")
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", "train", "--view", "both",
                     "--out", str(tmp_path / "e.bin")])
    assert code == cli.EXIT_VALIDATION
    assert f"{bad}, line 3: 3 fields" in capsys.readouterr().err


def test_embed_negative_class_id_is_validation_error(pipeline, tmp_path):
    first = data.load_manifest(pipeline["manifest"]).entries[0]
    bad = _edited_manifest(
        pipeline["manifest"], str(tmp_path / "negative.csv"),
        lambda row: row[:3] + ["-1"] + row[4:] if row[0] == first.id else row)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", first.split, "--view", first.view,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("header", [b"P6 0 0 255\n", b"P6 -4 4 255\n"])
def test_embed_empty_image_is_validation_error(pipeline, tmp_path, capsys,
                                               header):
    manifest = data.load_manifest(pipeline["manifest"])
    entry = dataclasses.replace(manifest.entries[0],
                                path=str(tmp_path / "empty.ppm"))
    open(entry.path, "wb").write(header + bytes(48))
    bad = str(tmp_path / "empty.csv")
    data.save_manifest(data.DatasetManifest(
        [entry] + manifest.entries[1:]), bad)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", entry.split, "--view", entry.view,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{entry.path}: bad dimensions" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("missing_first", [True, False])
def test_embed_decode_errors_stay_in_manifest_order(pipeline, tmp_path, capsys,
                                                    missing_first):
    """A missing image in the third chunk and a truncated one in the fourth,
    or the other way round: the helper thread decodes a chunk ahead, yet
    the fault first in manifest order decides the exit code, and no thread
    outlives the command."""
    train_entries = data.load_manifest(pipeline["manifest"]).subset("train")
    entries = [data.ManifestEntry(f"e{i:03d}", e.path, e.view, e.class_id,
                                  "train")
               for i, e in enumerate(train_entries * (
                   4 * EMBED_BATCH // len(train_entries) + 1))]
    missing = str(tmp_path / "missing.ppm")
    truncated = str(tmp_path / "truncated.ppm")
    open(truncated, "wb").write(b"P6 4 4 255\n" + bytes(47))
    faults = [missing, truncated] if missing_first else [truncated, missing]
    for k, fault in zip((2 * EMBED_BATCH + 5, 3 * EMBED_BATCH + 5), faults):
        entries[k] = dataclasses.replace(entries[k], path=fault)
    bad = str(tmp_path / "faults.csv")
    data.save_manifest(data.DatasetManifest(entries), bad)
    out = tmp_path / "e.bin"
    threads = threading.active_count()
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", "train", "--view", "both", "--out", str(out)])
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    if missing_first:
        assert code == cli.EXIT_IO
        assert missing in err
    else:
        assert code == cli.EXIT_VALIDATION
        assert f"{truncated}: truncated pixel payload" in err
    assert faults[1] not in err
    assert "Traceback" not in err
    assert not out.exists()


def test_embed_unknown_view_is_validation_error(pipeline, tmp_path, capsys):
    lines = open(pipeline["manifest"]).read().splitlines()
    lines[2] = lines[2].replace(",drone,", ",both,")
    bad = str(tmp_path / "view.csv")
    open(bad, "w").write("\n".join(lines) + "\n")
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", "train", "--view", "both",
                     "--out", str(tmp_path / "e.bin")])
    assert code == cli.EXIT_VALIDATION
    assert f"{bad}, line 3: view 'both'" in capsys.readouterr().err


def _repeated_id_manifest(pipeline, tmp_path):
    """The pipeline manifest with its first row written again at the end:
    its path and the repeated id."""
    lines = open(pipeline["manifest"]).read().splitlines()
    bad = str(tmp_path / "repeated.csv")
    open(bad, "w").write("\n".join(lines + [lines[1]]) + "\n")
    return bad, lines[1].split(",")[0]


def test_embed_on_a_repeated_id_decodes_nothing(pipeline, tmp_path, capsys,
                                                monkeypatch):
    """Refused when the manifest is read: no image is decoded and no store
    is written."""
    bad, rid = _repeated_id_manifest(pipeline, tmp_path)
    decoded = []

    def counting_load(path, size):
        decoded.append(path)
        return data.load_image(path, size)

    monkeypatch.setattr(sfde.train, "load_image", counting_load)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", "train", "--view", "both", "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}: duplicate entry id {rid!r}" in err
    assert "Traceback" not in err
    assert decoded == [] and not out.exists()


def test_train_on_a_repeated_id_names_the_file_and_the_id(pipeline, tmp_path,
                                                          capsys):
    bad, rid = _repeated_id_manifest(pipeline, tmp_path)
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--config", pipeline["cfg"], "--manifest", bad,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}: duplicate entry id {rid!r}" in err
    assert "Traceback" not in err and not out.exists()


def test_checkpoint_naming_an_array_twice_is_validation_error(
        pipeline, tmp_path, capsys):
    """The pipeline checkpoint with a zero copy of `backbone.stem.weight`
    appended and its array count raised by 1."""
    blob = open(pipeline["ckpt"], "rb").read()
    (hlen,) = struct.unpack("<I", blob[8:12])
    at = 12 + hlen                                  # the array count
    (count,) = struct.unpack("<I", blob[at:at + 4])
    model, _ = load_checkpoint(pipeline["ckpt"])
    weight = dict(model.named_parameters())["backbone.stem.weight"].data
    assert weight.dtype == np.float32
    name = b"backbone.stem.weight"
    copy = (struct.pack("<H", len(name)) + name
            + struct.pack(f"<BB{weight.ndim}I", 0, weight.ndim, *weight.shape)
            + np.zeros(weight.shape, "<f4").tobytes())
    code = _embed_with(pipeline, tmp_path, blob[:at]
                       + struct.pack("<I", count + 1) + blob[at + 4:] + copy)
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "array 'backbone.stem.weight' appears twice in checkpoint" in err
    assert "Traceback" not in err


def package_exception_classes():
    """Every exception class defined by a module of the package."""
    found = []
    for info in pkgutil.iter_modules(sfde.__path__):
        module = importlib.import_module(f"sfde.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return found


# the exit code of each base class; `autodiff.TapeError` is a programming
# error, not an input fault, and has none
EXIT_CODES = [(ValueError, cli.EXIT_VALIDATION),
              (FloatingPointError, cli.EXIT_NUMERIC),
              (sfde.train.NumericError, cli.EXIT_NUMERIC),
              (OSError, cli.EXIT_IO)]


def test_exception_walk_finds_the_package_errors():
    names = {cls.__name__ for cls in package_exception_classes()}
    assert {"TapeError", "DataError", "PnmError", "StoreNonFiniteError",
            "NumericError", "CheckpointError", "ConfigError"} <= names


@pytest.mark.parametrize(
    "error", [cls for cls in package_exception_classes()
              if cls.__name__ != "TapeError"],
    ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_base_class_code(
        tmp_path, capsys, monkeypatch, error):
    """Raised from inside a verb, each error gives the exit code of its
    base class and its message, with no traceback."""
    codes = [code for base, code in EXIT_CODES if issubclass(error, base)]
    assert codes, f"{error.__name__} has no exit code"

    def fail(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(data, "generate_synthetic_dataset", fail)
    code = cli.main(["synth", "--root", str(tmp_path / "data")])
    assert code == codes[0]
    err = capsys.readouterr().err
    assert "injected fault" in err and "Traceback" not in err
