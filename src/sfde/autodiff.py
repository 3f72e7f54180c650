"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tape` records every differentiable kernel invocation that happens while it
is active (entered as a context manager). Calling `Tape.backward(loss)` replays
the records once in strict reverse execution order and accumulates gradients
into every `Parameter` that participated. Each record is dropped as it is
replayed, so a training step's peak memory is its forward pass's saved
activations, not those plus every gradient.

Kernels themselves live in `sfde.ops`; this module only provides the value
containers and the replay machinery.
"""

from __future__ import annotations

import weakref

import numpy as np


class TapeError(RuntimeError):
    """Raised on tape misuse (double replay, backward on a non-scalar...)."""


class Tensor:
    """A dense real array. Floating data keeps its dtype (float32 in the
    model, float64 for gradient checks); any other data becomes float32."""

    __slots__ = ("data", "__weakref__")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return (f"{type(self).__name__}(shape={self.data.shape}, "
                f"dtype={self.data.dtype})")


class Parameter(Tensor):
    """A learnable tensor with a gradient slot of identical shape."""

    __slots__ = ("grad", "clamp_range", "weight_decay")

    def __init__(self, data, dtype=None):
        super().__init__(data, dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self.clamp_range = None   # optional (lo, hi) applied after each step
        self.weight_decay = True  # AdamW decoupled decay applies to this param

    def zero_grad(self):
        self.grad[...] = 0


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable operations.

    Single-owner: one forward pass, one backward replay. The replay consumes
    the records (the tape is empty afterwards), and a second backward on the
    same tape raises `TapeError`.
    """

    def __init__(self):
        self._records = []  # (outputs tuple, inputs tuple, backward_fn)
        self._consumed = False
        self._grads = None

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _TAPES and _TAPES[-1] is self
        _TAPES.pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor):
        """Add the gradient of `loss` into `grad` of every Parameter that
        influenced it. The gradient of the loss w.r.t. itself is 1.

        Records are popped as they are replayed, so the activations each
        record's closure holds are freed as soon as its gradient is taken.
        Gradients are kept per tensor only while the tensor itself lives:
        afterwards `grad` answers for the tensors the caller still holds."""
        if self._consumed:
            raise TapeError("tape already replayed; re-run the forward pass")
        if np.size(loss.data) != 1:
            raise TapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        self._consumed = True

        # No backward rule writes into its incoming gradient and accumulation
        # is out of place, so a gradient is stored as returned, without a copy.
        grads = weakref.WeakKeyDictionary({loss: np.ones_like(loss.data)})
        records = self._records
        while records:
            outputs, inputs, backward_fn = records.pop()
            gouts = [grads.get(o) for o in outputs]
            if all(g is None for g in gouts):
                continue
            gouts = [np.zeros_like(o.data) if g is None else g
                     for o, g in zip(outputs, gouts)]
            gins = backward_fn(*gouts)
            for t, g in zip(inputs, gins):
                if g is None:
                    continue
                prev = grads.get(t)
                grads[t] = g if prev is None else prev + g
                if isinstance(t, Parameter):
                    t.grad += g.astype(t.grad.dtype, copy=False)
        self._grads = grads

    def grad(self, t: Tensor):
        """Gradient of the replayed loss w.r.t. a tensor seen on the tape
        (None if it did not influence the loss). Only tensors that are still
        alive keep a gradient: hold a tensor to query it after `backward`."""
        if self._grads is None:
            raise TapeError("call backward before querying gradients")
        return self._grads.get(t)


def active_tape():
    return _TAPES[-1] if _TAPES else None


def record(outputs, inputs, backward_fn):
    """Register one executed op with the active tape (no-op when untaped)."""
    tape = active_tape()
    if tape is not None:
        tape._records.append((tuple(outputs), tuple(inputs), backward_fn))
