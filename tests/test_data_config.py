"""Image decoding, manifest ingestion, config parsing, schedule shape."""

import dataclasses
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from sfde import data
from sfde.config import (ConfigError, LossWeights, RunConfig, TrainConfig,
                         parse_config)
from sfde.model import ModelConfig
from sfde.train import ImageCache, compute_norm_stats, cosine_warmup_lr


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


def resize_bilinear_path(pixels, size):
    """`load_image`'s general path, written out: every source size through
    `resize_bilinear`, grayscale replicated first."""
    raw = pixels.astype(np.float32) / 255.0
    if raw.ndim == 2:
        raw = np.stack([raw] * 3, axis=-1)
    if raw.shape[:2] != (size, size):
        raw = data.resize_bilinear(raw, size, size)
    return np.transpose(raw, (2, 0, 1)).astype(np.float32)


DECODE_SIZE = 16
# (height, width) of the sources: integer shrinks by 2, 3 and 4, a 2 x 3 and
# a 5 x 1 one, a non-integer shrink and no resize at all
DECODE_SOURCES = [(32, 32), (48, 48), (64, 64), (32, 48), (80, 16), (24, 24),
                  (16, 16)]


@pytest.fixture(scope="module")
def decode_cases(tmp_path_factory):
    """One manifest entry and its pixels per source size, channel count and
    fill (random, all 0, all 255)."""
    root = tmp_path_factory.mktemp("decode")
    rng = np.random.default_rng(5)
    cases = []
    for h, w in DECODE_SOURCES:
        for channels in (3, 1):
            shape = (h, w, 3) if channels == 3 else (h, w)
            for fill in ("random", "0", "255"):
                pixels = (rng.integers(0, 256, size=shape, dtype=np.uint8)
                          if fill == "random" else
                          np.full(shape, int(fill), dtype=np.uint8))
                name = f"{h}x{w}-{channels}-{fill}"
                path = str(root / (name + (".ppm" if channels == 3
                                           else ".pgm")))
                data.write_pnm(path, pixels)
                cases.append((data.ManifestEntry(name, path, "drone", 0,
                                                 "train"), pixels))
    return cases


def test_load_image_equals_the_resize_bilinear_path(decode_cases):
    """Bit for bit and stride for stride: `compute_norm_stats` sums in
    memory order, so the layout is part of the result."""
    for entry, pixels in decode_cases:
        img = data.load_image(entry.path, DECODE_SIZE)
        ref = resize_bilinear_path(pixels, DECODE_SIZE)
        assert img.dtype == ref.dtype and img.shape == ref.shape, entry.id
        assert img.tobytes() == ref.tobytes(), entry.id
        assert img.strides == ref.strides, entry.id


class _Images:
    """An `ImageCache` stand-in that serves given images by entry id."""

    def __init__(self, images):
        self.images = images

    def get(self, entry):
        return self.images[entry.id]


def test_norm_stats_equal_the_resize_bilinear_path_and_see_layout(
        decode_cases):
    """The norm stats of `load_image`'s images are those of the general
    path's. Detector: the same values laid out C-contiguously change the
    last bits, so the stride check above is needed."""
    manifest = data.DatasetManifest([e for e, _ in decode_cases])
    ref = {e.id: resize_bilinear_path(p, DECODE_SIZE)
           for e, p in decode_cases}
    stats = compute_norm_stats(manifest, ImageCache(DECODE_SIZE))
    want = compute_norm_stats(manifest, _Images(ref))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stats, want))
    contiguous = compute_norm_stats(manifest, _Images(
        {k: np.ascontiguousarray(v) for k, v in ref.items()}))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(contiguous, want))


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
    ("a,a.pgm,drone,-1,train", "class_id -1 is outside 0..4294967295"),
    ("a,a.pgm,drone,4294967296,train",
     "class_id 4294967296 is outside 0..4294967295"),
    ("a\0b,a.pgm,drone,0,train", "id 'a\\\\x00b' holds a NUL character"),
    pytest.param("\u00e9" * 32768 + ",a.pgm,drone,0,train",
                 "id is longer than 65535 UTF-8 bytes", id="long-id"),
])
def test_manifest_bad_row_names_file_and_line(tmp_path, row, problem):
    path = str(tmp_path / "m.csv")
    open(path, "w", encoding="utf-8").write(
        "id,path,view,class_id,split\nb,b.pgm,drone,0,train\n" + row + "\n")
    with pytest.raises(data.DataError, match=f"line 3: {problem}") as err:
        data.load_manifest(path)
    assert path in str(err.value)


def test_manifest_holds_the_store_bounds_themselves(tmp_path):
    """A class id of 2^32 - 1 and an id of 65535 UTF-8 bytes are kept."""
    rid = "\u00e9" * 32767 + "x"
    path = str(tmp_path / "m.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"id,path,view,class_id,split\n{rid},a.pgm,drone,"
                 "4294967295,train\n")
    (entry,) = data.load_manifest(path).entries
    assert entry.id == rid and entry.class_id == 4294967295


@pytest.mark.parametrize("field, value, problem", [
    ("class_id", -1, "class_id -1 is outside 0..4294967295"),
    ("class_id", 2 ** 32, "class_id 4294967296 is outside 0..4294967295"),
    ("id", "a\0b", "id 'a\\x00b' holds a NUL character"),
    ("id", "x" * 65536, "id is longer than 65535 UTF-8 bytes"),
    ("view", "aerial", "view 'aerial' is not one of drone, satellite"),
    ("class_id", 1.5, "class_id 1.5 is not an integer"),
    ("class_id", "3", "class_id '3' is not an integer")],
    ids=["negative-class", "class-2^32", "nul-id", "long-id", "aerial",
         "float-class", "str-class"])
def test_manifest_entry_refuses_what_the_store_cannot_hold(field, value,
                                                           problem):
    """Built in code, not read from a file: the entry itself refuses, and a
    built entry cannot be changed to hold the value."""
    kw = dict(id="a", path="a.pgm", view="drone", class_id=0, split="train")
    entry = data.ManifestEntry(**kw)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(entry, field, value)
    kw[field] = value
    with pytest.raises(data.DataError, match=re.escape(problem)):
        data.ManifestEntry(**kw)


def test_manifest_entry_keeps_a_numpy_integer_class_id():
    for cid in (np.int64(3), np.uint32(2 ** 32 - 1)):
        entry = data.ManifestEntry("a", "a.pgm", "drone", cid, "train")
        assert entry.class_id == cid


def test_manifest_refuses_a_repeated_id():
    kw = dict(path="a.pgm", view="drone", class_id=0, split="train")
    entries = [data.ManifestEntry(i, **kw) for i in ("a", "b", "c", "b")]
    with pytest.raises(data.DataError, match="duplicate entry id 'b'"):
        data.DatasetManifest(entries)


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

def serialize_config(cfg):
    """`cfg` as the text of a config file: each section's keys in field
    order, as `parse_config` reads them."""
    lines = []
    for section, schema in (("model", ModelConfig), ("train", TrainConfig),
                            ("loss", LossWeights)):
        lines.append(f"[{section}]")
        for f in fields(schema):
            if f.name == "num_classes":  # set by training, not a key
                continue
            val = getattr(cfg, f.name)
            if type(f.default) is tuple:
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{f.name} = {val}")
        lines.append("")
    return "\n".join(lines)


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
