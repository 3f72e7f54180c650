"""Span tracing for the traced benchmark run.

`patched(tracer)` wraps the public functions and methods of every sfde layer
module from outside the package, records one span per call and restores every
binding on exit. Spans are kept in memory as (name, start, end, parent, op)
rows; `Tracer.self_times` and `Tracer.counts` give per-op self times and counts.

Three bindings would silently read zero if only the defining module were
patched, so they get explicit handling:

- `ops` and `spectral` bind `autodiff.record` by name. The replacement wraps
  each `backward_fn`, so backward time is attributed to the op that recorded
  it instead of to `Tape.backward`.
- `train` binds `load_image`, `load_checkpoint` and `save_checkpoint` by name:
  every module global that holds a wrapped function is rebound.
- Calls inside `ops` (for example `mean_` calling `sum_`) resolve through the
  module globals, which are exactly the names that get patched, so they nest
  as child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import Counter

# Modules whose public functions are layers. `cli`, `config` and `selftest`
# only dispatch; their time stays in the op's root span (bench.unattributed).
LAYER_MODULES = ("data", "ops", "spectral", "autodiff", "backbone", "gscb",
                 "lgsb", "fsab", "layers", "losses", "train", "model",
                 "retrieval")
ALL_MODULES = LAYER_MODULES + ("cli", "config", "selftest")

# autodiff is traced only at the replay boundary (plus `record`, below):
# wrapping Tensor/Parameter accessors would add a span per attribute read.
ONLY = {"autodiff": {"Tape.backward"}}
# `train.compute_batch_losses` calls this private function across modules.
EXTRA_PRIVATE = {"losses": {"_symmetric_nce"}}
# The benchmark drives the training loop itself; its body between spans is
# loop bookkeeping and belongs to the step's root span. `standardize` is a
# one-line helper whose time belongs to its caller (batch assembly or
# embedding extraction).
SKIP = {"train": {"train", "standardize"}}

SPAN_KEYS = {
    "ops.gelu": "ops.gelu.fwd",
    "ops.batch_norm": "ops.batch_norm.fwd",
    "data.load_image": "data.load_image",
    "data.read_pnm": "data.load_image",
    "data.resize_bilinear": "data.load_image",
    "autodiff.Tape.backward": "autodiff.backward",
    "train.AdamW.step": "train.adamw",
    "train.ImageCache.get": "train.batch",
    "train.extract_embeddings": "train.extract_embeddings",
    "train.write_reports": "train.write_reports",
    "model.SFDEModel.__call__": "model.forward",
    "model.load_checkpoint": "model.load_checkpoint",
    "retrieval.evaluate": "retrieval.evaluate",
    "retrieval.cosine_topk": "retrieval.evaluate",
    "retrieval.recall_at_k": "retrieval.evaluate",
    "retrieval.average_precision": "retrieval.evaluate",
    "retrieval.assemble_embedding": "retrieval.assemble_embedding",
    "retrieval.save_embeddings": "retrieval.save_embeddings",
    "retrieval.load_embeddings": "retrieval.load_embeddings",
}
MODULE_KEYS = {
    "ops": "ops.other.fwd", "spectral": "spectral.fwd",
    "backbone": "backbone.fwd", "gscb": "gscb.fwd", "lgsb": "lgsb.fwd",
    "fsab": "fsab.fwd", "losses": "losses.fwd", "layers": "layers.self",
    "train": "train.other", "model": "model.other", "data": "data.other",
    "retrieval": "retrieval.other",
}
ROOT = "bench.unattributed"

# conv2d kinds by kernel size in this network: 7x7 depthwise, 1x1 pointwise,
# the 4x4/s4 stem, the 2x2/s2 downsamples, and the 3x3 convs (the dilated
# local-branch trio plus the frequency branch's two 3x3s).
CONV_KINDS = {7: "dw7", 1: "pw1", 4: "stem4", 2: "down2", 3: "dil3"}
MB = 1e6


class Tracer:
    """In-memory spans plus per-op counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, bwd_counts]
        self.counts = Counter()  # counted only while an op is open
        self._stack = []
        self.op = -1
        self.ops = 0

    def begin(self, name, bwd_counts=None):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           bwd_counts])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def top(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def count(self, name, value=1):
        if self.op >= 0:
            self.counts[name] += value

    def begin_op(self):
        self.op = self.ops
        self.ops += 1
        self.begin(ROOT)

    def end_op(self):
        while self._stack:
            self.end()
        self.op = -1

    def self_times(self):
        """Total self time per span name over spans inside ops."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals = Counter()
        for s, t in zip(self.spans, own):
            if s[4] >= 0:
                totals[s[0]] += t
        return totals

    def op_wall(self):
        return sum(s[2] - s[1] for s in self.spans if s[0] == ROOT)

    def rows(self):
        return [s[:5] for s in self.spans]


def _conv_key(args, kwargs):
    """Span key and computed counts for one conv2d call, from shapes."""
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    dilation = kwargs.get("dilation", args[5] if len(args) > 5 else 1)
    o, cg, kh, kw = w.shape
    n = x.shape[0] if x.ndim == 4 else 1
    c, h, wd = x.shape[-3:]
    ho = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    base = f"ops.conv2d.{CONV_KINDS.get(kh, 'other')}"
    macs = n * o * ho * wo * cg * kh * kw
    patch = n * c * ho * kh * wo * kw * x.data.itemsize / MB
    # forward gathers the patches once; backward gathers them again and
    # spends one forward's worth of MACs on dW and one on dX.
    fwd = {f"{base}.calls": 1, f"{base}.macs": macs, f"{base}.patch_mb": patch}
    bwd = {f"{base}.macs": 2 * macs, f"{base}.patch_mb": patch}
    return f"{base}.fwd", fwd, bwd


def _after(qual):
    """Counts taken from a call's result or from its receiver."""
    if qual == "data.load_image":
        def after(t, args, out):
            t.count("data.load_image.calls")
            parent = t.top()
            if parent is not None and parent[0] == "train.batch":
                t.count("train.image_cache.misses")
        return after
    if qual == "retrieval.cosine_topk":
        return lambda t, args, out: t.count("retrieval.cosine_topk.calls")
    if qual == "train.write_reports":
        return lambda t, args, out: t.count(
            "train.write_reports_mb", sum(os.path.getsize(p) for p in out) / MB)
    if qual == "layers.MultiHeadSelfAttention.__call__":
        return lambda t, args, out: t.count(
            "layers.attention_copy_mb", args[0].last_attention.nbytes / MB)
    if qual == "train.ImageCache.get":
        return lambda t, args, out: t.count("train.image_cache.gets")
    return None


def _wrap(tracer, fn, qual):
    if qual == "ops.conv2d":
        def key_of(args, kwargs):
            return _conv_key(args, kwargs)
    elif qual == "layers.Module.zero_grads":
        # First call of a training step after batch assembly: close the
        # step's `train.batch` span opened by the probe.
        def key_of(args, kwargs):
            top = tracer.top()
            if top is not None and top[0] == "train.batch":
                tracer.end()
            return "layers.self", None, None
    else:
        key = SPAN_KEYS.get(qual) or MODULE_KEYS[qual.split(".", 1)[0]]

        def key_of(args, kwargs):
            return key, None, None
    after = _after(qual)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, fwd_counts, bwd_counts = key_of(args, kwargs)
        if fwd_counts:
            for k, v in fwd_counts.items():
                tracer.count(k, v)
        tracer.begin(name, bwd_counts)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer, args, out)
        return out

    return wrapper


def _traced_record(tracer, record, active_tape):
    """Replacement for autodiff.record: counts taped records and times each
    backward_fn under the recording op's name (`<op>.bwd`)."""

    @functools.wraps(record)
    def traced(outputs, inputs, backward_fn):
        top = tracer.top()
        name, bwd_counts = "ops.other.bwd", None
        if top is not None and top[0].endswith(".fwd") and \
                top[0].startswith(("ops.", "spectral.")):
            name, bwd_counts = top[0][:-4] + ".bwd", top[5]
        if active_tape() is not None:
            tracer.count("autodiff.records_made")

        def bwd(*grads):
            tracer.begin(name)
            try:
                return backward_fn(*grads)
            finally:
                tracer.end()
                tracer.count("autodiff.records_replayed")
                if bwd_counts:
                    for k, v in bwd_counts.items():
                        tracer.count(k, v)

        return record(outputs, inputs, bwd)

    return traced


def _targets(mod, short):
    """(owner, attribute, function, qualified name) for every traced name."""
    only = ONLY.get(short)
    extra = EXTRA_PRIVATE.get(short, set())
    skip = SKIP.get(short, set())

    def wanted(name, qual, fn):
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            return False
        if only is not None:
            return qual in only
        if name in extra:
            return True
        return (name == "__call__" or not name.startswith("_")) \
            and name not in skip

    out = []
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if wanted(name, name, obj):
                out.append((mod, name, obj, f"{short}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, fn in vars(obj).items():
                qual = f"{obj.__name__}.{attr}"
                if wanted(attr, qual, fn):
                    out.append((obj, attr, fn, f"{short}.{qual}"))
    return out


def modules():
    return {m: importlib.import_module(f"sfde.{m}") for m in ALL_MODULES}


def snapshot():
    """Every module global and class attribute of the package, by identity."""
    snap = {}
    for short, mod in modules().items():
        for name, obj in vars(mod).items():
            snap[(short, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    snap[(short, name, attr)] = val
    return snap


def changed_bindings(before):
    """Names whose binding differs from `before` (empty when restored)."""
    after = snapshot()
    keys = set(before) | set(after)
    return sorted(str(k) for k in keys
                  if before.get(k, KeyError) is not after.get(k, KeyError))


@contextlib.contextmanager
def patched(tracer):
    """Install the wrappers; restore every original binding on exit."""
    mods = modules()
    undo = []
    try:
        for short in LAYER_MODULES:
            for owner, attr, fn, qual in _targets(mods[short], short):
                wrapper = _wrap(tracer, fn, qual)
                if inspect.isclass(owner):
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                else:
                    _rebind_everywhere(mods, fn, wrapper, undo)
        record = mods["autodiff"].record
        _rebind_everywhere(mods, record, _traced_record(
            tracer, record, mods["autodiff"].active_tape), undo)
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def _rebind_everywhere(mods, fn, wrapper, undo):
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                undo.append((mod, name, fn))
                setattr(mod, name, wrapper)
