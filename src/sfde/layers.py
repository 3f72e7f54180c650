"""Light module system: parameter containers built on the autodiff kernels.

No framework semantics beyond what the network needs: parameter traversal
for the optimizer/checkpoints, a couple of initializers, and thin wrappers
around the kernels in `sfde.ops`.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Parameter


INIT_STD = 0.02  # of every truncated-normal weight


def trunc_normal(rng, shape, dtype=np.float32):
    """Normal(0, INIT_STD) redrawn until within +-2 INIT_STD."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2 * INIT_STD
    while np.any(bad):
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * INIT_STD
    return out.astype(dtype)


def kaiming_normal(rng, shape, fan_in, dtype=np.float32):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


class Module:
    """Base container. Child modules/parameters are discovered through
    attribute traversal; buffers (non-learnable state such as batch-norm
    running statistics) are registered explicitly."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def register_buffer(self, name, array):
        self._buffers[name] = array
        setattr(self, name, array)

    def named_parameters(self, prefix=""):
        for key, val in vars(self).items():
            if key == "_buffers":
                continue
            path = f"{prefix}{key}"
            if isinstance(val, Parameter):
                yield path, val
            elif isinstance(val, Module):
                yield from val.named_parameters(prefix=path + ".")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{path}.{i}", item

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        for key in self._buffers:
            yield f"{prefix}{key}", self._buffers[key]
        for key, val in vars(self).items():
            if key == "_buffers":
                continue
            path = f"{prefix}{key}"
            if isinstance(val, Module):
                yield from val.named_buffers(prefix=path + ".")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{path}.{i}.")

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()



class Conv2d(Module):
    def __init__(self, cin, cout, k, rng, stride=1, padding=0, dilation=1,
                 groups=1, dtype=np.float32):
        super().__init__()
        self.weight = Parameter(
            trunc_normal(rng, (cout, cin // groups, k, k), dtype))
        self.bias = Parameter(np.zeros(cout, dtype=dtype))
        self.stride, self.padding, self.dilation, self.groups = stride, padding, dilation, groups

    def __call__(self, x):
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride,
                          padding=self.padding, dilation=self.dilation,
                          groups=self.groups)


class Linear(Module):
    def __init__(self, cin, cout, rng, init="trunc", dtype=np.float32):
        super().__init__()
        if init == "kaiming":
            w = kaiming_normal(rng, (cin, cout), cin, dtype)
        else:
            w = trunc_normal(rng, (cin, cout), dtype)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(cout, dtype=dtype))

    def __call__(self, x):
        return ops.add(ops.matmul(x, self.weight), self.bias)


class BatchNorm(Module):
    """Batch normalization for (N,C) or (N,C,H,W) with `ops.batch_norm`'s
    epsilon `BN_EPS` (1e-5) and momentum `BN_MOMENTUM` (0.1)."""

    def __init__(self, c, dtype=np.float32):
        super().__init__()
        self.gamma = Parameter(np.ones(c, dtype=dtype))
        self.gamma.weight_decay = False
        self.beta = Parameter(np.zeros(c, dtype=dtype))
        self.beta.weight_decay = False
        self.register_buffer("running_mean", np.zeros(c, dtype=np.float64))
        self.register_buffer("running_var", np.ones(c, dtype=np.float64))

    def __call__(self, x, training):
        return ops.batch_norm(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, training)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with learned Q/K/V/output
    projections. Tokens: (N, L, C); C must divide evenly into heads."""

    def __init__(self, c, heads, rng, dtype=np.float32):
        super().__init__()
        if c % heads != 0:
            raise ops.ShapeError(f"token dim {c} not divisible by {heads} heads")
        self.c, self.heads = c, heads
        self.q = Linear(c, c, rng, dtype=dtype)
        self.k = Linear(c, c, rng, dtype=dtype)
        self.v = Linear(c, c, rng, dtype=dtype)
        self.out = Linear(c, c, rng, dtype=dtype)
        self.last_attention = None  # (N, heads, L, L), eval/introspection only

    def __call__(self, x):
        n, l, c = x.shape
        h, dh = self.heads, self.c // self.heads

        def split(t):
            return ops.transpose(ops.reshape(t, (n, l, h, dh)), (0, 2, 1, 3))

        q, k, v = split(self.q(x)), split(self.k(x)), split(self.v(x))
        scores = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))),
                           1.0 / np.sqrt(dh))
        attn = ops.softmax(scores, axis=-1)
        self.last_attention = attn.data.view()
        self.last_attention.flags.writeable = False
        ctx = ops.matmul(attn, v)
        ctx = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)), (n, l, c))
        return self.out(ctx)
