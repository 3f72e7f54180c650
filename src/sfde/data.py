"""Dataset handling: binary PGM/PPM decoding, bilinear resize, manifest
ingestion/validation, and a procedural paired-view dataset generator for
desk-scale experiments.

Expected layout: root/<split>/<class_id>/{drone,satellite}/*.pgm|*.ppm.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .ops import _interp_weights


class DataError(ValueError):
    pass


class PnmError(DataError):
    pass


# ---------------------------------------------------------------------------
# PGM (P5) / PPM (P6) binary images
# ---------------------------------------------------------------------------

def read_pnm(path):
    """Decode a binary P5/P6 file to uint8 (H, W) or (H, W, 3)."""
    with open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PnmError(f"{path}: unexpected end of header at byte {start}")
        return blob[start:pos]

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"{path}: unsupported magic {magic!r} at byte 0 "
                       "(only binary P5/P6)")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as e:
        raise PnmError(f"{path}: malformed header near byte {pos}: {e}") from None
    if width < 1 or height < 1:
        raise PnmError(f"{path}: bad dimensions {width}x{height} "
                       "(width and height must be at least 1)")
    if maxval != 255:
        raise PnmError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise PnmError(f"{path}: truncated pixel payload at byte {pos + len(payload)} "
                       f"(need {need} bytes, have {len(payload)})")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


def write_pnm(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 3 and arr.shape[2] == 3:
        header = b"P6 %d %d 255\n" % (arr.shape[1], arr.shape[0])
    elif arr.ndim == 2:
        header = b"P5 %d %d 255\n" % (arr.shape[1], arr.shape[0])
    else:
        raise PnmError(f"cannot encode array of shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


def resize_bilinear(img, out_h, out_w):
    """Bilinear resample (align-corners-false) for (H, W) or (H, W, C) floats."""
    h, w = img.shape[:2]
    i0, i1, wh = _interp_weights(h, out_h, np.float64)
    j0, j1, ww = _interp_weights(w, out_w, np.float64)
    wh = wh.reshape(-1, *([1] * (img.ndim - 1)))
    rows = img[i0] * (1 - wh) + img[i1] * wh
    ww = ww.reshape(1, -1, *([1] * (img.ndim - 2)))
    return rows[:, j0] * (1 - ww) + rows[:, j1] * ww


def load_image(path, size):
    """Decode + resize + scale to [0,1]; returns (3, size, size) float32.
    Grayscale images are replicated across the three channels."""
    raw = read_pnm(path).astype(np.float32) / 255.0
    if raw.ndim == 2:
        raw = np.stack([raw] * 3, axis=-1)
    if raw.shape[0] != size or raw.shape[1] != size:
        raw = resize_bilinear(raw, size, size)
    return np.transpose(raw, (2, 0, 1)).astype(np.float32)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

MANIFEST_COLUMNS = ["id", "path", "view", "class_id", "split"]
VIEWS = ("drone", "satellite")


@dataclass
class ManifestEntry:
    id: str
    path: str
    view: str
    class_id: int
    split: str


@dataclass
class DatasetManifest:
    entries: list = field(default_factory=list)

    def subset(self, split=None, view=None):
        out = [e for e in self.entries
               if (split is None or e.split == split)
               and (view is None or e.view == view)]
        return out

    @property
    def classes(self):
        return sorted({e.class_id for e in self.entries})

    def counts(self, split=None):
        ents = self.subset(split)
        n = sum(1 for e in ents if e.view == "drone")
        m = sum(1 for e in ents if e.view == "satellite")
        p = len({e.class_id for e in ents})
        return n, m, p

    def validate_pairing(self, split="train"):
        """Every training class needs at least one image of each view."""
        by_class = {}
        for e in self.subset(split):
            by_class.setdefault(e.class_id, set()).add(e.view)
        problems = [f"class {cid}: missing {sorted(set(VIEWS) - views)}"
                    for cid, views in sorted(by_class.items())
                    if views != set(VIEWS)]
        ids = [e.id for e in self.entries]
        if len(ids) != len(set(ids)):
            problems.append("duplicate entry ids")
        return problems


def ingest(root):
    """Scan root/<split>/<class_id>/{drone,satellite}/ for .pgm/.ppm files."""
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root!r} is not a directory")
    entries = []
    for split in sorted(os.listdir(root)):
        split_dir = os.path.join(root, split)
        if not os.path.isdir(split_dir):
            continue
        for cls in sorted(os.listdir(split_dir)):
            cls_dir = os.path.join(split_dir, cls)
            if not os.path.isdir(cls_dir):
                continue
            try:
                class_id = int(cls)
            except ValueError:
                raise DataError(f"class directory {cls_dir!r} is not an integer id")
            for view in VIEWS:
                vdir = os.path.join(cls_dir, view)
                if not os.path.isdir(vdir):
                    continue
                for fname in sorted(os.listdir(vdir)):
                    if not fname.endswith((".pgm", ".ppm")):
                        continue
                    entries.append(ManifestEntry(
                        id=f"{split}/{class_id}/{view}/{fname}",
                        path=os.path.join(vdir, fname),
                        view=view, class_id=class_id, split=split))
    if not entries:
        raise DataError(f"no images found under {root!r}")
    return DatasetManifest(entries)


def save_manifest(manifest, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            writer.writerow([e.id, e.path, e.view, e.class_id, e.split])


def load_manifest(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_COLUMNS:
            raise DataError(f"{path}: bad manifest header {header}")
        entries = []
        for r in reader:
            if len(r) != len(MANIFEST_COLUMNS):
                raise DataError(f"{path}, line {reader.line_num}: {len(r)} "
                                f"fields, expected {len(MANIFEST_COLUMNS)} "
                                f"({','.join(MANIFEST_COLUMNS)})")
            try:
                class_id = int(r[3])
            except ValueError:
                raise DataError(f"{path}, line {reader.line_num}: class_id "
                                f"{r[3]!r} is not an integer") from None
            if r[2] not in VIEWS:
                raise DataError(f"{path}, line {reader.line_num}: view "
                                f"{r[2]!r} is not one of {', '.join(VIEWS)}")
            entries.append(ManifestEntry(r[0], r[1], r[2], class_id, r[4]))
    return DatasetManifest(entries)


# ---------------------------------------------------------------------------
# procedural paired-view dataset (overfit smoke experiments)
# ---------------------------------------------------------------------------

def _class_pattern(rng, size):
    """Structured pattern: a few random sinusoidal gratings plus random
    rectangles, distinct per class."""
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    img = np.zeros((size, size, 3))
    for _ in range(3):
        fx, fy = rng.uniform(1, 6, size=2)
        ph = rng.uniform(0, 2 * np.pi)
        color = rng.uniform(0.2, 1.0, size=3)
        img += 0.5 * (1 + np.sin(2 * np.pi * (fx * xx + fy * yy) + ph))[..., None] * color
    for _ in range(4):
        y0, x0 = rng.integers(0, size // 2, size=2)
        hh, ww = rng.integers(size // 8, size // 2, size=2)
        img[y0:y0 + hh, x0:x0 + ww] += rng.uniform(-0.8, 0.8, size=3)
    img -= img.min()
    img /= max(img.max(), 1e-9)
    return img


def _perturb(img, rng, max_shift, brightness=0.15):
    """Per-view geometric/photometric perturbation: integer roll + small
    brightness/contrast jitter + noise."""
    dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
    out = np.roll(img, (dy, dx), axis=(0, 1))
    out = out * rng.uniform(1 - brightness, 1 + brightness)
    out = out + rng.uniform(-brightness / 2, brightness / 2)
    out = out + rng.normal(0, 0.02, size=out.shape)
    return np.clip(out, 0, 1)


def generate_synthetic_dataset(root, num_classes=8, drone_per_class=2,
                               satellite_per_class=1, size=128, seed=0):
    """Write a paired-view PPM dataset under `root`/train and return its
    manifest."""
    rng = np.random.default_rng(seed)
    for cid in range(num_classes):
        base = _class_pattern(rng, size)
        for view, count in (("drone", drone_per_class),
                            ("satellite", satellite_per_class)):
            vdir = os.path.join(root, "train", str(cid), view)
            os.makedirs(vdir, exist_ok=True)
            shift = size // 10 if view == "drone" else size // 20
            for k in range(count):
                img = _perturb(base, rng, max_shift=shift)
                write_pnm(os.path.join(vdir, f"{view}_{k}.ppm"),
                          np.round(img * 255).astype(np.uint8))
    return ingest(root)
