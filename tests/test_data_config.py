"""Image decoding, manifest ingestion, config parsing, schedule shape."""

import os
from dataclasses import fields

import numpy as np
import pytest

from sfde import data
from sfde.config import ConfigError, RunConfig, parse_config, serialize_config
from sfde.model import ModelConfig
from sfde.train import cosine_warmup_lr


# ---------------------------------------------------------------------------
# PGM/PPM
# ---------------------------------------------------------------------------

def test_pnm_roundtrip_gray_and_color(rng, tmp_path):
    gray = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
    color = rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8)
    for name, arr in [("g.pgm", gray), ("c.ppm", color)]:
        path = str(tmp_path / name)
        data.write_pnm(path, arr)
        assert np.array_equal(data.read_pnm(path), arr)


def test_pnm_truncation_names_file(tmp_path):
    path = str(tmp_path / "t.ppm")
    data.write_pnm(path, np.zeros((4, 4, 3), dtype=np.uint8))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-10])
    with pytest.raises(data.PnmError, match="t.ppm.*truncated"):
        data.read_pnm(path)


def test_pnm_rejects_other_formats(tmp_path):
    path = str(tmp_path / "a.pgm")
    open(path, "wb").write(b"P2 2 2 255\n0 0 0 0\n")
    with pytest.raises(data.PnmError, match="magic"):
        data.read_pnm(path)
    open(path, "wb").write(b"P5 2 2 65535\n" + bytes(8))
    with pytest.raises(data.PnmError, match="maxval"):
        data.read_pnm(path)


@pytest.mark.parametrize("header", [b"P6 0 0 255\n", b"P5 4 0 255\n",
                                    b"P6 -2 3 255\n"])
def test_pnm_rejects_empty_or_negative_dimensions(tmp_path, header):
    path = str(tmp_path / "e.ppm")
    open(path, "wb").write(header + bytes(48))
    width, height = header.split()[1:3]
    with pytest.raises(data.PnmError, match=f"e.ppm: bad dimensions "
                       f"{int(width)}x{int(height)}"):
        data.read_pnm(path)


def test_pnm_header_comments_and_whitespace(tmp_path):
    path = str(tmp_path / "c.pgm")
    open(path, "wb").write(b"P5\n# a comment\n 2\n2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(data.read_pnm(path), [[1, 2], [3, 4]])


def test_load_image_shape_and_gray_replication(tmp_path):
    path = str(tmp_path / "g.pgm")
    data.write_pnm(path, np.full((6, 6), 128, dtype=np.uint8))
    img = data.load_image(path, 8)
    assert img.shape == (3, 8, 8)
    assert np.array_equal(img[0], img[1]) and np.array_equal(img[1], img[2])
    assert np.abs(img - 128 / 255).max() < 1e-6


def test_resize_preserves_constants():
    img = np.full((5, 5, 3), 0.6)
    out = data.resize_bilinear(img, 9, 3)
    assert out.shape == (9, 3, 3)
    assert np.abs(out - 0.6).max() < 1e-12


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_ingest_counts(synth_dataset):
    _, manifest = synth_dataset
    n, m, p = manifest.counts("train")
    assert (n, m, p) == (16, 8, 8)
    assert manifest.validate_pairing("train") == []


def test_ingest_empty_root_rejected(tmp_path):
    with pytest.raises(data.DataError):
        data.ingest(str(tmp_path))
    with pytest.raises(data.DataError):
        data.ingest(str(tmp_path / "missing"))


def test_ingest_reports_missing_view(tmp_path):
    vdir = tmp_path / "train" / "0" / "drone"
    vdir.mkdir(parents=True)
    data.write_pnm(str(vdir / "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
    manifest = data.ingest(str(tmp_path))
    problems = manifest.validate_pairing("train")
    assert len(problems) == 1 and "satellite" in problems[0]


def test_manifest_csv_roundtrip(synth_dataset, tmp_path):
    _, manifest = synth_dataset
    path = str(tmp_path / "m.csv")
    data.save_manifest(manifest, path)
    back = data.load_manifest(path)
    assert back.entries == manifest.entries


def test_manifest_bad_header_rejected(tmp_path):
    path = str(tmp_path / "m.csv")
    open(path, "w").write("id,path\n")
    with pytest.raises(data.DataError):
        data.load_manifest(path)


@pytest.mark.parametrize("row, problem", [
    ("a,a.pgm,drone", "3 fields, expected 5"),
    ("a,a.pgm,drone,x,train", "class_id 'x' is not an integer"),
    ("a,a.pgm,both,0,train", "view 'both' is not one of drone, satellite"),
])
def test_manifest_bad_row_names_file_and_line(tmp_path, row, problem):
    path = str(tmp_path / "m.csv")
    open(path, "w").write("id,path,view,class_id,split\n"
                          "b,b.pgm,drone,0,train\n" + row + "\n")
    with pytest.raises(data.DataError, match=f"line 3: {problem}") as err:
        data.load_manifest(path)
    assert path in str(err.value)


def test_synthetic_generator_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for root in (a, b):
        data.generate_synthetic_dataset(str(root), num_classes=2,
                                        drone_per_class=1,
                                        satellite_per_class=1, size=16, seed=5)
    fa = sorted(str(p.relative_to(a)) for p in a.rglob("*.ppm"))
    fb = sorted(str(p.relative_to(b)) for p in b.rglob("*.ppm"))
    assert fa == fb
    for rel in fa:
        assert open(a / rel, "rb").read() == open(b / rel, "rb").read()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_roundtrip_idempotent():
    cfg = RunConfig(stage_channels=(4, 8, 8, 16), steps=17,
                    learning_rate=0.0025, use_fsab=False)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


# `serialize_config(RunConfig())` before the schema was derived from the
# section dataclasses; the text must not change.
DEFAULT_CONFIG_TEXT = """\
[model]
stage_channels = 16,32,64,128
blocks_per_stage = 2
input_size = 128
embed_dim = 256
heads = 4
use_gscb = true
use_lgsb = true
use_fsab = true
dtype = float32

[train]
seed = 0
steps = 200
batch_pairs = 8
learning_rate = 0.001
lr_floor = 0.0
weight_decay = 0.05
warmup_fraction = 0.1
flip_probability = 0.5

[loss]
lambda_ce = 0.1
lambda_infonce = 1.0
lambda_dsa = 1.3
"""


def test_default_config_text_is_pinned():
    assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT


def test_config_model_keys_are_model_config_fields():
    text = serialize_config(RunConfig())
    model_section = text.split("[model]\n")[1].split("\n\n")[0]
    keys = [line.split(" = ")[0] for line in model_section.splitlines()]
    expected = [f for f in fields(ModelConfig) if f.name != "num_classes"]
    assert keys == [f.name for f in expected]
    defaults = RunConfig()
    for f in expected:
        assert getattr(defaults, f.name) == f.default, f.name
    assert defaults.model_config(num_classes=5) == ModelConfig(num_classes=5)


def test_config_parses_sections_and_types():
    cfg = parse_config("""
[model]
stage_channels = 2,4,6,8
use_lgsb = false
dtype = float64

[train]
steps = 5
learning_rate = 0.01

[loss]
lambda_dsa = 0.0
""")
    assert cfg.stage_channels == (2, 4, 6, 8)
    assert cfg.use_lgsb is False
    assert cfg.dtype == "float64"
    assert cfg.steps == 5
    assert cfg.lambda_dsa == 0.0


def test_config_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rat = 0.1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[optimizer]\n")
    with pytest.raises(ConfigError, match="does not belong"):
        parse_config("[loss]\nsteps = 3\n")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("[model]\nuse_fsab = yes\n")


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_warmup_schedule_pointwise():
    total, peak, floor = 100, 0.01, 0.001
    assert cosine_warmup_lr(0, total, peak, floor) == 0.0
    assert cosine_warmup_lr(10, total, peak, floor) == pytest.approx(peak)
    assert cosine_warmup_lr(5, total, peak, floor) == pytest.approx(peak / 2)
    for step in range(10, 101):
        progress = (step - 10) / 90
        expect = floor + (peak - floor) * 0.5 * (1 + np.cos(np.pi * progress))
        assert cosine_warmup_lr(step, total, peak, floor) == pytest.approx(expect)
    assert cosine_warmup_lr(100, total, peak, floor) == pytest.approx(floor)
    # a numpy scalar would widen float32 parameters in AdamW (NEP 50)
    for step in (0, 5, 10, 50, 100):
        assert type(cosine_warmup_lr(step, total, peak, floor)) is float


def test_warmup_monotone_then_decaying():
    vals = [cosine_warmup_lr(s, 50, 1.0) for s in range(51)]
    head, tail = vals[:6], vals[5:]
    assert all(a < b for a, b in zip(head, head[1:]))
    assert all(a >= b for a, b in zip(tail, tail[1:]))
