"""End-to-end command-line pipeline and exit-code contracts."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import sfde
from sfde import cli, data, retrieval, selftest
from sfde.model import ModelConfig, SFDEModel, save_checkpoint


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


def test_selftest_passes_and_prints_table(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == len(selftest.PROPERTIES)
    assert "FAIL" not in out


def test_selftest_reports_injected_fault():
    lines = []
    failures = selftest.run(corrupt_fft_normalization=True, out=lines.append)
    assert failures == ["fft-round-trip"]
    assert any(line.startswith("FAIL") and "fft-round-trip" in line
               for line in lines)


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


def test_eval_dimension_mismatch_is_validation_error(pipeline, tmp_path):
    vec = np.zeros(4, dtype=np.float32)
    vec[0] = 1.0
    small = str(tmp_path / "small.bin")
    retrieval.save_embeddings(
        [retrieval.EmbeddingRecord("x", "drone", 0, vec)], small)
    code = cli.main(["eval", "--query", small,
                     "--gallery", pipeline["gallery"],
                     "--k", "1", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_VALIDATION


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
     "(blocks_per_stage must be at least 1, got -1)")],
    ids=["mystery_knob-1", "stage_channels-None", "stage_channels-5",
         "None-None", "dtype-float16", "norm_mean-None", "norm_std-short",
         "embed_dim-str", "heads-float", "embed_dim-zero", "use_fsab-str",
         "blocks_per_stage-negative"])
def test_malformed_checkpoint_config_is_validation_error(pipeline, tmp_path,
                                                         capsys, key, value,
                                                         message):
    """An unknown key, a missing or non-list `stage_channels`, a missing
    `model_config`, a value that breaks a config file's rules (type, bound
    or choices) and a missing or short `norm_mean`/`norm_std` are each a
    CheckpointError, not a traceback."""
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
    for e in manifest.entries:
        e.split = "test"
    bad = str(tmp_path / "no_train.csv")
    data.save_manifest(manifest, bad)
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


def test_bad_config_is_validation_error(pipeline, tmp_path):
    cfg = str(tmp_path / "bad.cfg")
    open(cfg, "w").write("mystery_knob = 1\n")
    code = cli.main(["train", "--config", cfg,
                     "--manifest", pipeline["manifest"],
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_VALIDATION


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
    manifest = data.load_manifest(pipeline["manifest"])
    manifest.entries[0].class_id = -1
    bad = str(tmp_path / "negative.csv")
    data.save_manifest(manifest, bad)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", manifest.entries[0].split,
                     "--view", manifest.entries[0].view, "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("header", [b"P6 0 0 255\n", b"P6 -4 4 255\n"])
def test_embed_empty_image_is_validation_error(pipeline, tmp_path, capsys,
                                               header):
    manifest = data.load_manifest(pipeline["manifest"])
    entry = manifest.entries[0]
    entry.path = str(tmp_path / "empty.ppm")
    open(entry.path, "wb").write(header + bytes(48))
    bad = str(tmp_path / "empty.csv")
    data.save_manifest(manifest, bad)
    out = tmp_path / "e.bin"
    code = cli.main(["embed", "--ckpt", pipeline["ckpt"], "--manifest", bad,
                     "--split", entry.split, "--view", entry.view,
                     "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{entry.path}: bad dimensions" in err
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
