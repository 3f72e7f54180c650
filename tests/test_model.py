"""Full-model composition, checkpoint format, and the training loop."""

import itertools
import re
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sfde import autodiff, data, losses, ops, retrieval
from sfde import train as train_module
from sfde.autodiff import Constant, Parameter, Tape, Tensor
from sfde.config import ATTENTION_TOKEN_BUDGET, ConfigError, RunConfig
from sfde.layers import Module
from sfde.model import (OPTIMIZER_NOTE, CheckpointError, ModelConfig,
                        SFDEModel, load_checkpoint, save_checkpoint)
from sfde.train import (EMBED_BATCH, AdamW, compute_batch_losses,
                        cosine_warmup_lr, extract_embeddings, standardize,
                        train)


TOY = dict(stage_channels=(4, 4, 8, 8), blocks_per_stage=1, input_size=128,
           embed_dim=8, heads=2)


def toy_model(num_classes=4, dtype="float32", seed=0, **over):
    kw = dict(TOY, num_classes=num_classes, dtype=dtype)
    kw.update(over)
    return SFDEModel(ModelConfig(**kw), np.random.default_rng(seed))


def test_model_output_shapes(rng):
    model = toy_model()
    out = model(Tensor(rng.normal(size=(2, 3, 128, 128)).astype(np.float32)))
    assert out.features.shape == (2, 8, 4, 4)
    assert out.global_desc.embedding.shape == (2, 8)
    assert out.global_desc.logits.shape == (2, 4)
    assert out.local_map.shape == (2, 8, 4, 4)
    assert out.freq_map.shape == (2, 8, 4, 4)


def test_model_config_validation():
    with pytest.raises(ops.ShapeError):
        ModelConfig(stage_channels=(4, 4, 8, 6), heads=2).validate()  # C % 4
    with pytest.raises(ops.ShapeError):
        ModelConfig(**dict(TOY, input_size=64)).validate()  # 2x2 pyramid
    with pytest.raises(ops.ShapeError):
        ModelConfig(**dict(TOY, heads=3)).validate()  # C % heads
    with pytest.raises(ConfigError, match="heads must be at least 1"):
        ModelConfig(**dict(TOY, heads=0))
    cfg = ModelConfig(**dict(TOY, input_size=64), use_lgsb=False)
    cfg.validate()  # 2x2 maps are fine without the pyramid


def test_model_config_enforces_the_attention_token_budget():
    """S = input_size / 32 gives the frequency branch S * (S/2 + 1) tokens:
    4140 at 2880 px, 3960 at 2816. So 2816 is the largest input size, with
    the frequency branch or without it. Nothing is decoded or run here; one
    2880 px image alone is about 100 MB."""
    assert ATTENTION_TOKEN_BUDGET == 4096
    assert 88 * 45 <= ATTENTION_TOKEN_BUDGET < 90 * 46
    for size, fsab in ((2880, True), (2880, False), (32000, False)):
        with pytest.raises(ops.ShapeError, match=(
                f"input size {size} above 2816, the largest whose frequency "
                "branch keeps within the attention budget of 4096 spectral "
                "tokens")):
            ModelConfig(**dict(TOY, input_size=size), use_fsab=fsab)
    ModelConfig(**dict(TOY, input_size=2816))
    ModelConfig(**dict(TOY, input_size=2816), use_fsab=False)


def test_model_config_accepts_exactly_the_models_that_run(monkeypatch):
    """Over a grid of small configs, each with every branch on and off:
    every config `ModelConfig` accepts builds a model that runs one eval
    forward pass, and every one it refuses would fail in the model's own
    constructors or kernels, so the forward pass need not restate a rule.
    The grid's maps are at most 4x4, far inside the token budget, which
    has its own test."""
    grid = itertools.product((32, 64, 96, 128), range(4, 13), range(1, 5),
                             itertools.product((False, True), repeat=3))
    accepted, refused = [], []
    for size, c, heads, (gscb, lgsb, fsab) in grid:
        kw = dict(stage_channels=(4, 4, 4, c), blocks_per_stage=1,
                  input_size=size, embed_dim=4, heads=heads, use_gscb=gscb,
                  use_lgsb=lgsb, use_fsab=fsab)
        try:
            accepted.append(ModelConfig(**kw))
        except ops.ShapeError:
            refused.append(kw)

    def run_once(cfg):
        s = cfg.input_size
        SFDEModel(cfg, np.random.default_rng(0))(
            Tensor(np.zeros((2, 3, s, s), np.float32)), training=False)

    for cfg in accepted:
        run_once(cfg)
    monkeypatch.setattr(ModelConfig, "validate", lambda self: None)
    for kw in refused:
        with pytest.raises(ops.ShapeError):
            run_once(ModelConfig(**kw))
    assert (len(accepted), len(refused)) == (412, 740)


def test_every_parameter_receives_gradient(rng):
    model = toy_model(dtype="float64")
    drone = rng.normal(size=(2, 3, 128, 128))
    sat = rng.normal(size=(2, 3, 128, 128))
    model.zero_grads()
    with Tape() as tape:
        total, ce, nce, dsa, _ = compute_batch_losses(
            model, drone, sat, np.array([0, 1]), losses.LossWeights(),
            training=True, rng=rng)
    tape.backward(total)
    for name, p in model.named_parameters():
        assert np.linalg.norm(p.grad) > 0, f"no gradient reached {name}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_computes_in_its_configured_dtype(rng, dtype):
    model = toy_model(dtype=dtype)
    drone = rng.normal(size=(2, 3, 128, 128)).astype(dtype)
    sat = rng.normal(size=(2, 3, 128, 128)).astype(dtype)

    def maps(out):
        return {"features": out.features, "local_map": out.local_map,
                "freq_map": out.freq_map,
                "embedding": out.global_desc.embedding}

    model.zero_grads()
    with Tape() as tape:
        total, _, _, _, out = compute_batch_losses(
            model, drone, sat, np.array([0, 1]), losses.LossWeights(),
            training=True, rng=rng)
    tape.backward(total)
    for name, t in maps(out).items():
        assert t.dtype == dtype, f"train-mode {name} is {t.dtype}"
        assert tape.grad(t).dtype == dtype, f"gradient of {name}"
    for name, p in model.named_parameters():
        assert p.grad.dtype == dtype, f"gradient of {name}"

    for name, t in maps(model(Tensor(drone), training=False)).items():
        assert t.dtype == dtype, f"eval-mode {name} is {t.dtype}"

    lr = cosine_warmup_lr(50, 100, 0.003)  # past the 10-step warm-up
    AdamW(model.parameters()).step(lr)
    for name, p in model.named_parameters():
        assert p.dtype == dtype, f"{name} is {p.dtype} after AdamW.step"


def _read_only(g):
    view = np.asarray(g).view()  # numpy scalars have no settable flags
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_no_backward_rule_writes_into_its_incoming_gradient(rng, dtype):
    """The tape stores a gradient as the rule returned it, without a copy;
    that is safe only while every rule treats its incoming gradients as
    read-only. Each rule gets read-only views here, so a write raises."""
    model = toy_model(dtype=dtype)
    drone = rng.normal(size=(2, 3, 128, 128)).astype(dtype)
    sat = rng.normal(size=(2, 3, 128, 128)).astype(dtype)
    with Tape() as tape:
        total, *_ = compute_batch_losses(
            model, drone, sat, np.array([0, 1]), losses.LossWeights(),
            training=True, rng=rng)

    def guarded(backward_fn):
        return lambda *grads: backward_fn(*map(_read_only, grads))

    tape._records = [(out, ins, guarded(fn))
                     for out, ins, fn in tape._records]
    tape.backward(total)
    for name, p in model.named_parameters():
        assert np.isfinite(p.grad).all(), name


def test_backward_peak_memory_is_the_forward_pass(rng):
    """Replaying the tape frees each record's activations as it goes, so the
    backward pass allocates about as much as it frees: its peak stays near
    what the forward pass left live."""
    model = toy_model()
    drone = rng.normal(size=(2, 3, 128, 128)).astype(np.float32)
    sat = rng.normal(size=(2, 3, 128, 128)).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            total, *_ = compute_batch_losses(
                model, drone, sat, np.array([0, 1]), losses.LossWeights(),
                training=True, rng=rng)
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tape.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * live, (
        f"backward peak {peak / 2**20:.1f} MiB vs {live / 2**20:.1f} MiB "
        f"live after the forward pass")


def _checkpoint_array_codes(path):
    """{name: dtype code} of every array in an SFDK checkpoint."""
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<I", blob, 8)  # after magic and version
    off = 12 + hlen
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    codes = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + nlen].decode()
        off += 2 + nlen
        code, ndim = struct.unpack_from("<BB", blob, off)
        dims = struct.unpack_from(f"<{ndim}I", blob, off + 2)
        off += 2 + 4 * ndim + int(np.prod(dims)) * (8 if code else 4)
        codes[name] = code
    assert off == len(blob)
    return codes


def test_float32_training_writes_a_float32_checkpoint(synth_dataset,
                                                      tmp_path):
    _, manifest = synth_dataset
    # 6 steps: the warm-up is step 0, so five steps use the cosine branch
    cfg = RunConfig(**TOY, steps=6, batch_pairs=4, seed=3)
    ckpt = str(tmp_path / "m.ckpt")
    model, _, _ = train(cfg, manifest, ckpt)
    codes = _checkpoint_array_codes(ckpt)
    for name, _ in model.named_parameters():
        assert codes[name] == 0, f"{name} saved as float64"
    for name, buf in model.named_buffers():  # BN running stats are float64
        assert codes[name] == (1 if buf.dtype == np.float64 else 0)

    loaded, _ = load_checkpoint(ckpt)
    saved = dict(loaded.named_parameters())
    for name, p in model.named_parameters():
        assert saved[name].dtype == p.dtype
        assert saved[name].data.tobytes() == p.data.tobytes(), name


def test_checkpoint_roundtrip(tmp_path, rng):
    model = toy_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, {"note": "x"})
    loaded, header = load_checkpoint(path)
    assert header["note"] == "x"
    assert "update rule" in header["optimizer"]
    for (na, pa), (nb, pb) in zip(sorted(model.named_parameters()),
                                  sorted(loaded.named_parameters())):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    img = Tensor(rng.normal(size=(1, 3, 128, 128)).astype(np.float32))
    assert np.array_equal(model(img).features.data,
                          loaded(img).features.data)


def test_checkpoint_corruption_detected(tmp_path):
    model = toy_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, {})
    blob = bytearray(open(path, "rb").read())

    bad = bytes(b"JUNK") + bytes(blob[4:])
    open(path, "wb").write(bad)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)

    wrong_version = bytearray(blob)
    wrong_version[4] = 9
    open(path, "wb").write(bytes(wrong_version))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)

    open(path, "wb").write(bytes(blob[:-20]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("fault, message", [
    ("buffer-shape", r"mismatch for gscb\.norm\.running_mean: \(1,\) vs \(8,\)"),
    ("dtype-code", "unknown dtype code 7"),
    ("trailing-bytes", "3 trailing bytes")],
    ids=["buffer-shape", "dtype-code", "trailing-bytes"])
def test_checkpoint_rejects_malformed_arrays(tmp_path, fault, message):
    """A buffer of the wrong shape is not broadcast, an unknown dtype code is
    not read as float64, and bytes after the last array are not ignored."""
    model = toy_model()
    if fault == "buffer-shape":
        model.gscb.norm.register_buffer("running_mean", np.full(1, 5.0))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, {})
    blob = bytearray(open(path, "rb").read())
    if fault == "dtype-code":
        (hlen,) = struct.unpack("<I", blob[8:12])
        at = 12 + hlen + 4  # the first array's u16 name length
        (nlen,) = struct.unpack("<H", blob[at:at + 2])
        blob[at + 2 + nlen] = 7
    elif fault == "trailing-bytes":
        blob += b"\0\0\0"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def _walk_state(obj, path=""):
    """(path, Parameter) for every parameter reachable from `obj` through
    module attributes and lists or tuples nested to any depth, and (path,
    array) for every buffer registered on the way, in attribute order."""
    if isinstance(obj, Parameter):
        yield path, obj
    elif isinstance(obj, Module):
        for key, val in vars(obj).items():
            name = f"{path}.{key}" if path else key
            if key in obj._buffers:
                yield name, val
            elif key != "_buffers":
                yield from _walk_state(val, name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _walk_state(item, f"{path}.{i}")


def _reachable_parameters(obj, found):
    """Add to `found` every Parameter reachable from `obj` through module
    attributes and lists or tuples nested to any depth, keyed by id."""
    for _, p in _walk_state(obj):
        if isinstance(p, Parameter):
            found[id(p)] = p


@pytest.mark.xfail(strict=True, reason=(
    "named_parameters walks one level of lists and Backbone.stages is a "
    "list of lists (ROADMAP, first open item)"))
def test_named_parameters_reaches_every_parameter():
    """The acceptance SMOKE model holds 125 parameters; today
    `named_parameters` yields 93 of them."""
    model = SFDEModel(ModelConfig(stage_channels=(8, 16, 16, 32),
                                  blocks_per_stage=1, input_size=128,
                                  embed_dim=32, heads=2, num_classes=8),
                      np.random.default_rng(0))
    found = {}
    _reachable_parameters(model, found)
    assert len(found) == 125
    assert {id(p) for _, p in model.named_parameters()} == set(found)


SMOKE_MODEL = dict(stage_channels=(8, 16, 16, 32), blocks_per_stage=1,
                   input_size=128, embed_dim=32, heads=2, num_classes=8)


def float32_and_float64_twins(seed):
    """The SMOKE-width model built in float32 and in float64 with the same
    weights and buffers: the float32 values, widened exactly."""
    twins = [SFDEModel(ModelConfig(**SMOKE_MODEL, dtype=dtype),
                       np.random.default_rng(seed))
             for dtype in ("float32", "float64")]
    copy_state(*twins)
    return twins


def copy_state(src, dst):
    """Copy every parameter and buffer of `src` into `dst`, through the
    full walk (`named_parameters` misses the backbone blocks)."""
    pairs = list(zip(_walk_state(src), _walk_state(dst)))
    assert all(a == b for (a, _), (b, _) in pairs) and pairs
    for (_, s), (_, d) in pairs:
        d = d.data if isinstance(d, Parameter) else d
        d[...] = s.data if isinstance(s, Parameter) else s


# |g32 - g64| of any parameter entry, relative to the global float64 gradient
# norm. Over 32 seeds (SMOKE width, 4 pairs, train mode) it read at most
# 9.4e-6 (6.6e-6 with the float32 erf computed in float64), mostly on
# backbone.downsamples.2.bias: the bound leaves a 2.1x margin. A float32
# backward rule off by 1e-3 reads 1.4e-3 (the detector test below).
GRAD_F32_BOUND = 2e-5
# |o32 - o64| of any eval-mode output map entry, relative to that map's
# largest |o64|: at most 3.3e-7 over the same 32 seeds, a 3x margin
EVAL_F32_BOUND = 1e-6


def float32_gradient_error(seed):
    """max |g32 - g64| over every parameter entry, over the global float64
    gradient norm, for one `compute_batch_losses` step of the twins."""
    rng = np.random.default_rng(100 + seed)
    drone, sat = rng.normal(size=(2, 4, 3, 128, 128)).astype(np.float32)
    grads = []
    for model in float32_and_float64_twins(seed):
        dtype = model.cfg.np_dtype
        with Tape() as tape:
            total, *_ = compute_batch_losses(
                model, drone.astype(dtype), sat.astype(dtype), np.arange(4),
                losses.LossWeights(), training=True, rng=None)
        tape.backward(total)
        grads.append({name: p.grad for name, p in _walk_state(model)
                      if isinstance(p, Parameter)})
    g32, g64 = grads
    norm = np.sqrt(sum(np.sum(g * g) for g in g64.values()))
    return max(np.abs(g32[name] - g).max() for name, g in g64.items()) / norm


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_float32_gradients_match_float64(seed):
    assert float32_gradient_error(seed) <= GRAD_F32_BOUND


def test_float32_gradient_oracle_catches_a_float32_backward_fault(
        monkeypatch):
    """GELU's backward rule returns its gradient 1e-3 too large, in float32
    only: the oracle must fail."""
    gelu = ops.gelu

    def gelu_with_float32_fault(a):
        out = gelu(a)
        tape = autodiff.active_tape()
        if a.dtype == np.float32 and tape is not None:
            o, ins, bwd = tape._records[-1]
            tape._records[-1] = (
                o, ins, lambda g: tuple(d * np.float32(1.001) for d in bwd(g)))
        return out

    monkeypatch.setattr(ops, "gelu", gelu_with_float32_fault)
    assert float32_gradient_error(0) > 10 * GRAD_F32_BOUND


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_float32_eval_outputs_match_float64(seed):
    """Eval mode, with batch-norm running statistics moved off their init
    by three float32 train-mode passes and then copied to the twin."""
    m32, m64 = float32_and_float64_twins(seed)
    rng = np.random.default_rng(200 + seed)
    for _ in range(3):
        m32(Tensor(rng.normal(0.3, 2.0, size=(2, 3, 128, 128))
                   .astype(np.float32)), training=True)
    copy_state(m32, m64)
    x = rng.normal(size=(4, 3, 128, 128)).astype(np.float32)
    o32 = m32(Tensor(x), training=False)
    o64 = m64(Tensor(x.astype(np.float64)), training=False)
    for name, a, b in (
            ("embedding", o32.global_desc.embedding, o64.global_desc.embedding),
            ("local_map", o32.local_map, o64.local_map),
            ("freq_map", o32.freq_map, o64.freq_map)):
        assert a.dtype == np.float32 and b.dtype == np.float64
        err = np.abs(a.data - b.data).max() / np.abs(b.data).max()
        assert err <= EVAL_F32_BOUND, name


def test_optimizer_note_states_adamw_constants():
    """The checkpoint header's optimizer note cannot drift from AdamW."""
    stated = dict(re.findall(r"\b(b1|b2|eps)=(\S+)", OPTIMIZER_NOTE))
    assert {k: float(v) for k, v in stated.items()} == {
        "b1": AdamW.b1, "b2": AdamW.b2, "eps": AdamW.eps}


def test_adamw_respects_parameter_flags(rng):
    decayed = Parameter(np.full(3, 10.0))
    frozen = Parameter(np.full(3, 10.0))
    frozen.weight_decay = False
    clamped = Parameter(np.asarray(10.0))
    clamped.weight_decay = False
    clamped.clamp_range = (1.0, 9.5)
    for p in (decayed, frozen, clamped):
        p.grad = np.zeros_like(p.data)
    opt = AdamW([decayed, frozen, clamped], weight_decay=0.1)
    opt.step(lr=0.01)
    assert np.all(decayed.data < 10.0)       # decayed despite zero gradient
    assert np.all(frozen.data == 10.0)
    assert clamped.data == pytest.approx(9.5)


def test_train_loop_decreases_loss_and_logs(synth_dataset, tmp_path):
    _, manifest = synth_dataset
    cfg = RunConfig(**TOY, steps=40, batch_pairs=4, learning_rate=0.003)
    ckpt = str(tmp_path / "m.ckpt")
    log = str(tmp_path / "log.csv")
    model, stats, logs = train(cfg, manifest, ckpt, log_path=log)
    assert len(logs) == 40
    head = np.mean([l.total for l in logs[:10]])
    tail = np.mean([l.total for l in logs[-10:]])
    assert tail < head
    lines = open(log).read().strip().splitlines()
    assert lines[0] == "step,lr,loss_ce,loss_infonce,loss_dsa,loss_total"
    assert len(lines) == 41
    loaded, header = load_checkpoint(ckpt)
    assert len(header["norm_mean"]) == 3
    assert header["classes"] == list(range(8))


def test_train_standardizes_each_image_once(synth_dataset, tmp_path,
                                            monkeypatch):
    """Once per cached training image, before the first step; not once per
    sampled image per step."""
    _, manifest = synth_dataset
    calls = []
    real = train_module.standardize

    def counting(images, *args, **kwargs):
        calls.append(images.shape)
        return real(images, *args, **kwargs)

    monkeypatch.setattr(train_module, "standardize", counting)
    train(RunConfig(**TOY, steps=5, batch_pairs=4), manifest,
          str(tmp_path / "m.ckpt"))
    assert calls == [(3, 128, 128)] * len(manifest.subset("train"))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_image_batch_gets_no_gradient(rng, monkeypatch, dtype):
    """`compute_batch_losses` builds its batch as a `Constant`: the tape
    keeps no gradient for it, and every parameter's gradient is bit-identical
    to a pass whose batch is a plain `Tensor`."""
    drone = rng.normal(size=(2, 3, 128, 128)).astype(dtype)
    sat = rng.normal(size=(2, 3, 128, 128)).astype(dtype)
    batches = []
    forward = SFDEModel.__call__

    def spy(self, x, *args, **kwargs):
        batches.append(x)
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(SFDEModel, "__call__", spy)

    def step():
        model = toy_model(dtype=dtype)
        with Tape() as tape:
            total, *_ = compute_batch_losses(
                model, drone, sat, np.array([0, 1]), losses.LossWeights(),
                training=True)
        tape.backward(total)
        found = {}
        _reachable_parameters(model, found)
        return tape.grad(batches[-1]), [p.grad.tobytes()
                                        for p in found.values()]

    batch_grad, marked = step()
    assert type(batches[-1]) is Constant and batch_grad is None
    monkeypatch.setattr(train_module, "Constant", Tensor)
    batch_grad, plain = step()
    assert type(batches[-1]) is Tensor and batch_grad is not None
    assert marked == plain


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_image_lists_and_arrays_give_bit_identical_steps(rng, dtype):
    """`train` passes each view as a list of images, flipped ones as
    reversed views; the other callers pass (n, 3, S, S) arrays. Both give
    bit-identical losses and parameter gradients."""
    drone = [rng.normal(size=(3, 128, 128)).astype(dtype) for _ in range(2)]
    sat = [rng.normal(size=(3, 128, 128)).astype(dtype)[:, :, ::-1]
           for _ in range(2)]

    def step(drone_imgs, sat_imgs):
        model = toy_model(dtype=dtype)
        with Tape() as tape:
            terms = compute_batch_losses(
                model, drone_imgs, sat_imgs, np.array([0, 1]),
                losses.LossWeights(), training=True)[:4]
        tape.backward(terms[0])
        found = {}
        _reachable_parameters(model, found)
        return ([t.data.tobytes() for t in terms],
                [p.grad.tobytes() for p in found.values()])

    assert step(drone, sat) == step(np.stack(drone), np.stack(sat))


def test_train_rejects_unpaired_manifest(tmp_path):
    vdir = tmp_path / "train" / "0" / "drone"
    vdir.mkdir(parents=True)
    data.write_pnm(str(vdir / "a.pgm"), np.zeros((8, 8), dtype=np.uint8))
    manifest = data.ingest(str(tmp_path))
    cfg = RunConfig(**TOY, steps=1)
    with pytest.raises(ValueError, match="missing"):
        train(cfg, manifest, str(tmp_path / "m.ckpt"))


def test_train_fixed_seed_is_bit_deterministic(synth_dataset, tmp_path):
    _, manifest = synth_dataset
    curves = []
    for run in range(2):
        cfg = RunConfig(**TOY, steps=6, batch_pairs=4, seed=3)
        _, _, logs = train(cfg, manifest, str(tmp_path / f"m{run}.ckpt"))
        curves.append([(l.ce, l.infonce, l.dsa, l.total) for l in logs])
    assert curves[0] == curves[1]
    a = open(tmp_path / "m0.ckpt", "rb").read()
    b = open(tmp_path / "m1.ckpt", "rb").read()
    assert a == b


NORM = (np.array([0.45, 0.5, 0.4], dtype=np.float32),
        np.array([0.2, 0.25, 0.3], dtype=np.float32))


def eval_ready_model(dtype):
    """A toy model whose every BN's running stats are moved off their init."""
    model = toy_model(dtype=dtype, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(3):
        model(Tensor(rng.normal(0.3, 2.0, size=(2, 3, 128, 128))
                     .astype(dtype)), training=True)
    return model


def assert_records_are_one_image_at_a_time(model, entries, dtype):
    mean, std = NORM
    reference = []
    for e in entries:
        img = standardize(data.load_image(e.path, 128), mean, std)
        out = model(Tensor(img.astype(dtype)[None]), training=False)
        reference.append(retrieval.assemble_embedding(
            out.global_desc.embedding.data, out.local_map.data,
            out.freq_map.data, p_local=float(model.pool_p_local.data),
            p_freq=float(model.pool_p_freq.data))[0])

    records = extract_embeddings(model, NORM, entries)
    assert [(r.id, r.view, r.class_id) for r in records] == \
        [(e.id, e.view, e.class_id) for e in entries]
    for r, ref in zip(records, reference):
        assert r.vector.dtype == np.float32
        assert np.array_equal(r.vector, ref), r.id


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batched_extraction_equals_one_image_at_a_time(synth_dataset, dtype):
    _, manifest = synth_dataset
    entries = manifest.subset(view=None)
    # one full chunk, one partial chunk, both views
    assert EMBED_BATCH < len(entries) < 2 * EMBED_BATCH
    assert {e.view for e in entries[:EMBED_BATCH]} == {"drone", "satellite"}
    model = eval_ready_model(dtype)
    assert_records_are_one_image_at_a_time(model, entries, dtype)
    assert extract_embeddings(model, NORM, []) == []


@pytest.fixture(scope="module")
def three_chunk_entries(tmp_path_factory):
    """2 full chunks and a partial one, both views in every chunk."""
    root = str(tmp_path_factory.mktemp("chunks") / "data")
    manifest = data.generate_synthetic_dataset(
        root, num_classes=12, drone_per_class=2, satellite_per_class=1,
        size=64, seed=1)
    entries = manifest.subset(view=None)[:2 * EMBED_BATCH + 3]
    assert len(entries) == 2 * EMBED_BATCH + 3
    for start in range(0, len(entries), EMBED_BATCH):
        chunk = entries[start:start + EMBED_BATCH]
        assert {e.view for e in chunk} == {"drone", "satellite"}
    return entries


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_decode_ahead_over_three_chunks_equals_one_image_at_a_time(
        three_chunk_entries, dtype):
    """The second and third chunks each decode while a forward pass runs,
    and the last chunk is partial."""
    assert_records_are_one_image_at_a_time(
        eval_ready_model(dtype), three_chunk_entries, dtype)


def test_extraction_error_joins_the_decode_thread(three_chunk_entries,
                                                  monkeypatch):
    """A failure on the calling thread after the first forward pass: the
    helper decodes no more than the one chunk ahead, the error propagates
    and no thread outlives the call."""
    decoded = []

    def counting_load(path, size):
        decoded.append(path)
        return data.load_image(path, size)

    def failing_assemble(*args, **kwargs):
        time.sleep(0.3)  # time for the helper to run further ahead, if it can
        raise FloatingPointError(f"injected after {len(decoded)} decodes")

    monkeypatch.setattr(train_module, "load_image", counting_load)
    monkeypatch.setattr(retrieval, "assemble_embedding", failing_assemble)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError,
                       match=f"injected after {2 * EMBED_BATCH} decodes"):
        extract_embeddings(eval_ready_model("float32"), NORM,
                           three_chunk_entries)
    assert threading.active_count() == threads
    assert len(decoded) == 2 * EMBED_BATCH
