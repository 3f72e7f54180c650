"""The full three-branch network, plus checkpoint serialization of the
complete parameter/buffer state. Its `ModelConfig` is in `sfde.config`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Parameter, Tensor
from .backbone import Backbone
from .binio import Reader, write_atomic
from .config import ConfigError, ModelConfig
from .fsab import FrequencyStabilityBranch
from .gscb import GlobalSemanticBranch
from .layers import Module
from .lgsb import LocalGeometricBranch
from .ops import ShapeError

OPTIMIZER_NOTE = (
    "update rule: m=b1*m+(1-b1)*g; v=b2*v+(1-b2)*g^2; "
    "mh=m/(1-b1^t); vh=v/(1-b2^t); "
    "p -= lr*mh/(sqrt(vh)+eps) + lr*wd*p (decoupled weight decay); "
    "b1=0.9 b2=0.999 eps=1e-8")


@dataclass
class ModelOutputs:
    features: Tensor
    global_desc: object = None   # GlobalDescriptor or None
    local_map: Tensor = None
    freq_map: Tensor = None


class SFDEModel(Module):
    """Weight-shared backbone + up to three branches. Both views pass
    through this single module; sharing is structural."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.backbone = Backbone(cfg, rng)
        self.cfg = cfg
        dt = cfg.np_dtype
        c = cfg.feature_channels
        self.gscb = (GlobalSemanticBranch(c, cfg.embed_dim, cfg.num_classes,
                                          rng, dtype=dt)
                     if cfg.use_gscb else None)
        self.lgsb = LocalGeometricBranch(c, rng, dtype=dt) if cfg.use_lgsb else None
        self.fsab = (FrequencyStabilityBranch(c, rng, heads=cfg.heads, dtype=dt)
                     if cfg.use_fsab else None)
        # GeM exponents for descriptor/contrastive pooling of branch maps
        self.pool_p_local = Parameter(np.asarray(3.0, dtype=dt))
        self.pool_p_freq = Parameter(np.asarray(3.0, dtype=dt))
        for p in (self.pool_p_local, self.pool_p_freq):
            p.clamp_range = (1.0, 128.0)
            p.weight_decay = False
        # shared learnable contrastive log-temperature, exp(.) = 0.07 at init
        self.log_temperature = Parameter(np.asarray(np.log(0.07), dtype=dt))
        self.log_temperature.weight_decay = False

    def __call__(self, images, training=False, rng=None) -> ModelOutputs:
        f = self.backbone(images, training)
        out = ModelOutputs(features=f)
        if self.gscb is not None:
            out.global_desc = self.gscb(f, training, rng)
        if self.lgsb is not None:
            out.local_map = self.lgsb(f, training)
        if self.fsab is not None:
            out.freq_map = self.fsab(f, training, rng)
        return out


# ---------------------------------------------------------------------------
# checkpoint format: magic + version + JSON header + named float arrays
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"SFDK"
CKPT_VERSION = 1
CKPT_DTYPES = {0: "<f4", 1: "<f8"}  # dtype code -> array dtype


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, model: SFDEModel, meta: dict):
    """Binary, little-endian: magic, u32 version, u32 header length + JSON
    header, u32 array count, then per array {u16 name length, name, u8 dtype
    (0=f32, 1=f64), u8 ndim, u32 dims..., raw data}. Atomic via rename."""
    header = dict(meta)
    header["model_config"] = asdict(model.cfg)
    header["optimizer"] = OPTIMIZER_NOTE
    hdr = json.dumps(header, sort_keys=True).encode()
    arrays = list(model.named_parameters()) + [
        (name, Tensor(buf)) for name, buf in model.named_buffers()]

    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    blob += struct.pack("<I", len(hdr)) + hdr
    blob += struct.pack("<I", len(arrays))
    for name, t in arrays:
        nb = name.encode()
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(t.data, order="C")
        code = 1 if arr.dtype == np.float64 else 0
        arr = arr.astype(CKPT_DTYPES[code])
        blob += struct.pack("<H", len(nb)) + nb
        blob += struct.pack("<BB", code, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    write_atomic(path, blob)


def load_checkpoint(path):
    """Rebuild a model (initialised from `default_rng(0)`, then overwritten)
    plus the header."""
    with open(path, "rb") as fh:
        r = Reader(fh.read(), CheckpointError)
    if r.take(4, "magic") != CKPT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    (version,) = r.unpack("<I", "version")
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = r.unpack("<I", "header length")
    try:
        header = json.loads(r.text(hlen, "header"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"malformed checkpoint header ({e})") from e
    if not isinstance(header, dict):
        raise CheckpointError("malformed checkpoint header (not a JSON "
                              "object)")
    try:
        cfg_d = dict(header["model_config"])
        cfg_d["stage_channels"] = tuple(cfg_d["stage_channels"])
        cfg = ModelConfig(**cfg_d)
    except (ConfigError, ShapeError) as e:
        raise CheckpointError(f"malformed model_config in checkpoint "
                              f"({e})") from e
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed model_config in checkpoint "
                              f"({type(e).__name__}: {e})") from e
    model = SFDEModel(cfg, np.random.default_rng(0))

    (count,) = r.unpack("<I", "array count")
    arrays = {}
    for i in range(count):
        (nlen,) = r.unpack("<H", f"array {i} name length")
        name = r.text(nlen, f"array {i} name")
        if name in arrays:
            raise CheckpointError(f"array {name!r} appears twice in checkpoint")
        code, ndim = r.unpack("<BB", f"array {name!r} dtype")
        if code not in CKPT_DTYPES:
            raise CheckpointError(f"array {name!r} has unknown dtype code "
                                  f"{code}")
        dims = r.unpack(f"<{ndim}I", f"array {name!r} shape")
        dt = np.dtype(CKPT_DTYPES[code])
        data = r.take(int(np.prod(dims)) * dt.itemsize, f"array {name!r}")
        arrays[name] = np.frombuffer(data, dtype=dt).reshape(dims)
    r.end()

    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    for name, arr in arrays.items():
        target = params.get(name, buffers.get(name))
        if target is None:
            raise CheckpointError(f"unknown array {name!r} in checkpoint")
        if target.shape != arr.shape:
            raise CheckpointError(
                f"checkpoint/model mismatch for {name}: "
                f"{arr.shape} vs {target.shape}")
        if name in params:
            target.data = arr.astype(target.dtype)
        else:
            target[...] = arr
    missing = (set(params) | set(buffers)) - set(arrays)
    if missing:
        raise CheckpointError(f"checkpoint missing arrays: {sorted(missing)}")
    return model, header
