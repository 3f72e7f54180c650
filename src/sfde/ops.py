"""Differentiable dense kernels: exactly the operation set the network needs.

Every function takes and returns `Tensor`s, computes with numpy, and registers
its backward rule with the active `Tape` (if any). Kernels are pure functions
of their inputs and safe to call concurrently; only batch-norm running
statistics are mutated, and only in train mode. Outputs keep the dtype of
the input arrays: scalar constants are Python floats, which do not widen a
float32 array under NumPy 2 (NEP 50), where numpy float64 scalars would.

The one special function, GELU's `erf`, is computed here in numpy (`_erf`):
two fitted polynomials evaluated in float64, within 2 ulp of `math.erf` on a
dense grid over [-7, 7], and rounded once to the input's dtype.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, record


class ShapeError(ValueError):
    """Shape/precondition violation with a diagnostic message."""


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    out = Tensor(a.data + b.data)
    record([out], [a, b],
           lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def mul(a, b):
    out = Tensor(a.data * b.data)
    record([out], [a, b],
           lambda g: (_unbroadcast(g * b.data, a.shape),
                      _unbroadcast(g * a.data, b.shape)))
    return out


def neg(a):
    out = Tensor(-a.data)
    record([out], [a], lambda g: (-g,))
    return out


def scale(a, c: float):
    c = float(c)
    out = Tensor(a.data * c)
    record([out], [a], lambda g: (g * c,))
    return out


def add_const(a, c: float):
    c = float(c)
    out = Tensor(a.data + c)
    record([out], [a], lambda g: (g,))
    return out


def exp(a):
    out = Tensor(np.exp(a.data))
    record([out], [a], lambda g: (g * out.data,))
    return out


def pow_const(a, c: float):
    out = Tensor(a.data ** c)
    record([out], [a], lambda g: (g * c * a.data ** (c - 1.0),))
    return out


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a):
    mask = a.data > 0
    out = Tensor(a.data * mask)
    record([out], [a], lambda g: (g * mask,))
    return out


def sigmoid(a):
    e = np.exp(-np.abs(a.data))
    out = Tensor(np.where(a.data >= 0, 1.0, e) / (1.0 + e))
    record([out], [a], lambda g: (g * out.data * (1.0 - out.data),))
    return out


_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_6 = math.sqrt(6.0)

# erf in the manner of Cody (Math. Comp. 1969): erf(z) = z * P(z^2) on
# |z| <= 1, and erf(z) = sign(z) * (1 - exp(-a^2) * Q(v)) on |z| > 1, with
# a = min(|z|, 6) and v = (a - sqrt 6) / (a + sqrt 6) in [-0.42, 0.42]. erf
# rounds to exactly 1 from |z| = 5.92, and the clamp at 6 keeps it there.
# P and Q have degree 11; coefficients are listed highest power first. They
# are weighted least-squares fits in numpy.polynomial's Chebyshev basis on
# 20001 Chebyshev-spaced points, with stdlib `math.erf`/`math.erfc` as the
# data: P to erf(z)/z in relative error, Q to erfc(a) * exp(a^2) weighted by
# exp(-a^2), so that the error in erf itself is what is fitted. Each was
# solved in float64 with its residual refined in long double, then converted
# exactly to powers. Against `math.erf` on 3.5 M points over [0, 7]: at most
# 2 ulp on |z| <= 1 and 1 ulp beyond.
_ERF_CORE = (-7.793251339675729e-10, 1.3719275573153716e-08,
             -1.6208475177643207e-07, 1.644745093498532e-06,
             -1.4924741735286845e-05, 0.00012055295329620815,
             -0.0008548325996843413, 0.005223977607755541,
             -0.02686617064334541, 0.11283791670945909,
             -0.37612638903183565, 1.1283791670955126)
_ERF_TAIL = (-6.296483080552555e-06, -6.410079630130511e-05,
             -0.00011162216325485288, 0.00029275190905081813,
             0.0006852843607574986, -0.0028574422557862064,
             -0.00226891721673069, 0.03630813243660542,
             -0.12145140284032047, 0.25166683741715656,
             -0.3768742538658615, 0.21462633906982076)
# elements per pass, so the float64 temporaries stay in cache
_ERF_CHUNK = 1 << 14


def _horner(coefs, x):
    p = coefs[0] * x
    for c in coefs[1:-1]:
        p += c
        p *= x
    p += coefs[-1]
    return p


def _erf(z):
    """erf of a float array, computed in float64 and returned in z's dtype:
    a float32 input gets the float64 result rounded once. Odd, so -0 stays
    -0; |z| >= 6 and +-inf give exactly +-1; NaN stays NaN."""
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _ERF_CHUNK):
        x = flat[lo:lo + _ERF_CHUNK].astype(np.float64, copy=False)
        t = np.abs(x)
        tail = np.flatnonzero(t > 1.0)
        # the core runs on every element; clipping z^2 at 1 keeps it finite
        # on the tail elements, which are overwritten below
        np.minimum(t, 1.0, out=t)
        t *= t
        y = _horner(_ERF_CORE, t)
        y *= x
        if tail.size:
            xt = x[tail]
            a = np.minimum(np.abs(xt), 6.0)
            q = _horner(_ERF_TAIL, (a - _SQRT_6) / (a + _SQRT_6))
            y[tail] = np.copysign(1.0 - np.exp(-a * a) * q, xt)
        out[lo:lo + _ERF_CHUNK] = y
    return out.reshape(z.shape)


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x), Phi(x) = (1 + erf(x/sqrt 2))/2.
    erf is `_erf`: computed in float64 to within 2 ulp, then rounded once to
    x's dtype, so a float32 model sees the correctly rounded erf except in
    the rare case of a value within 2 ulp (float64) of a float32 tie."""
    x = a.data
    phi = 0.5 * (1.0 + _erf(x / _SQRT_2))
    out = Tensor(x * phi)
    # the density is computed only when a backward pass needs it
    record([out], [a], lambda g: (
        g * (phi + x * (np.exp(-0.5 * x * x) / _SQRT_2PI)),))
    return out


def softplus(a):
    x = a.data
    y = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(x)))
    out = Tensor(y)
    sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
    record([out], [a], lambda g: (g * sig,))
    return out


def softmax(a, axis=-1):
    """Max-subtracted stable softmax along `axis`; rows sum to 1."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    record([out], [a], bwd)
    return out


def log_softmax(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    out = Tensor(y)

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    record([out], [a], bwd)
    return out


# ---------------------------------------------------------------------------
# reductions / structure
# ---------------------------------------------------------------------------

def sum_(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)

    record([out], [a], bwd)
    return out


def mean_(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    record([out], [a], lambda g: (g.reshape(a.shape),))
    return out


def transpose(a, axes):
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)
    record([out], [a], lambda g: (np.transpose(g, inv),))
    return out


def concat(parts, axis=0):
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.array(piece, copy=True)
                     for piece in np.split(g, splits, axis=axis))

    record([out], parts, bwd)
    return out


def slice_(a, idx):
    """Static basic slicing (no advanced indexing)."""
    out = Tensor(np.array(a.data[idx], copy=True))

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    record([out], [a], bwd)
    return out


def matmul(a, b):
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    record([out], [a, b], bwd)
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_size(n, k, stride, padding, dilation):
    return (n + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def _tap_product(a, b):
    """`a @ b` over the channel axis; a broadcast multiply when that axis has
    length 1 (depthwise convs), which gives the same bits as the matmul."""
    return a * b if a.shape[-1] == 1 else np.matmul(a, b)


def conv2d(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """2-D cross-correlation. x: (C,H,W) or (N,C,H,W); w: (O, C/groups, K, K).

    With stride 1 and padding = dilation*(K-1)/2 (K odd) the spatial size is
    preserved.

    One loop over the Kh*Kw taps computes forward, dW and dX. Tap (a, b)
    reads the strided slice of the padded input that meets kernel element
    (a, b) at every output position, and contracts it with the per-group
    weights as one (G, Og, Cg) x (N, G, Cg, Ho*Wo) product; no patch tensor
    is built. A 1x1 conv is one matmul and a depthwise conv a broadcast
    multiply per tap.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    N, C, H, W = xd.shape
    O, Cg, Kh, Kw = w.shape
    if Cg * groups != C or O % groups != 0:
        raise ShapeError(
            f"conv2d channel mismatch: input C={C}, weight expects "
            f"{Cg}*groups={Cg * groups} (groups={groups}, O={O})")
    s, p, d = stride, padding, dilation
    Ho = _conv_out_size(H, Kh, s, p, d)
    Wo = _conv_out_size(W, Kw, s, p, d)
    if Ho <= 0 or Wo <= 0:
        raise ShapeError(f"conv2d empty output for input {H}x{W}, K={Kh}, "
                         f"stride={s}, padding={p}, dilation={d}")

    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    G, Og = groups, O // groups
    wg = w.data.reshape(G, Og, Cg, Kh, Kw)
    taps = [(a_, b_, slice(a_ * d, a_ * d + s * (Ho - 1) + 1, s),
             slice(b_ * d, b_ * d + s * (Wo - 1) + 1, s))
            for a_ in range(Kh) for b_ in range(Kw)]

    def x_tap(rows, cols):
        return xp[:, :, rows, cols].reshape(N, G, Cg, Ho * Wo)

    terms = (_tap_product(wg[..., a_, b_], x_tap(rows, cols))
             for a_, b_, rows, cols in taps)
    out_d = next(terms)
    for term in terms:
        out_d += term
    out_d = out_d.reshape(N, O, Ho, Wo)
    if b is not None:
        out_d = out_d + b.data[:, None, None]
    out = Tensor(out_d[0] if squeeze else out_d)

    def bwd(g):
        gd = g[None] if squeeze else g
        go = gd.reshape(N, G, Og, Ho * Wo)
        wt = np.swapaxes(wg, 1, 2)
        gw = np.empty(wg.shape, dtype=np.result_type(go, xp))
        gxp = np.zeros_like(xp)
        for a_, b_, rows, cols in taps:
            gw[..., a_, b_] = np.matmul(
                go, np.swapaxes(x_tap(rows, cols), -1, -2)).sum(axis=0)
            gxp[:, :, rows, cols] += _tap_product(
                wt[..., a_, b_], go).reshape(N, C, Ho, Wo)
        gw = gw.reshape(O, Cg, Kh, Kw)
        gb = gd.sum(axis=(0, 2, 3)) if b is not None else None
        gx = gxp[:, :, p:p + H, p:p + W] if p else gxp
        gx = gx[0] if squeeze else gx
        if b is not None:
            return (gx, gw, gb)
        return (gx, gw)

    record([out], [x, w] + ([b] if b is not None else []), bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def batch_norm(x, gamma, beta, running_mean, running_var, training,
               momentum=0.1, eps=1e-5):
    """Per-channel batch normalization over axis 1. x: (N,C) or (N,C,H,W).

    Train mode uses batch statistics (and requires batch size >= 2); eval
    mode uses the running statistics, which train mode updates in place.
    """
    xd = x.data
    if xd.ndim == 2:
        axes, view = (0,), (1, -1)
    elif xd.ndim == 4:
        axes, view = (0, 2, 3), (1, -1, 1, 1)
    else:
        raise ShapeError(f"batch_norm expects (N,C) or (N,C,H,W), got {xd.shape}")
    if training and xd.shape[0] < 2:
        raise ShapeError("batch_norm in train mode needs batch size >= 2 "
                         "(variance undefined for a single sample)")

    def ch(v):
        return v.reshape(view)

    if training:
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        n = xd.size // xd.shape[1]
        unbiased = var * n / max(1, n - 1)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu.astype(running_mean.dtype)
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased.astype(running_var.dtype)
    else:
        mu = running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - ch(mu)) * ch(inv)
    out = Tensor(xhat * ch(gamma.data) + ch(beta.data))

    def bwd(g):
        gbeta = g.sum(axis=axes)
        ggamma = (g * xhat).sum(axis=axes)
        gxhat = g * ch(gamma.data)
        if training:
            n = xd.size // xd.shape[1]
            gx = ch(inv) / n * (
                n * gxhat
                - gxhat.sum(axis=axes).reshape(view)
                - xhat * (gxhat * xhat).sum(axis=axes).reshape(view))
        else:
            gx = gxhat * ch(inv)
        return (gx, ggamma, gbeta)

    record([out], [x, gamma, beta], bwd)
    return out


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------

def _separable(x, a, b):
    """a @ x @ b.T over the last two axes for constant matrices a, b; its
    backward is the adjoint a.T @ g @ b."""
    out = Tensor(a @ x.data @ b.T)
    record([out], [x], lambda g: (a.T @ g @ b,))
    return out


def _pool_matrix(n, out, dtype):
    """(out, n) matrix whose row i averages the floor/ceil window
    floor(i*n/out) .. ceil((i+1)*n/out)-1; the windows partition the input."""
    i = np.arange(out)[:, None]
    start, end = (i * n) // out, -((-(i + 1) * n) // out)
    cols = np.arange(n)
    return (((cols >= start) & (cols < end)) / (end - start)).astype(dtype)


def adaptive_avg_pool(x, out_h, out_w):
    """Mean over contiguous windows partitioning the input. x: (...,H,W)."""
    H, W = x.shape[-2], x.shape[-1]
    if out_h < 1 or out_w < 1:
        raise ShapeError("adaptive_avg_pool output extents must be positive")
    if out_h > H or out_w > W:
        raise ShapeError(f"adaptive_avg_pool output {out_h}x{out_w} exceeds "
                         f"input {H}x{W}")
    return _separable(x, _pool_matrix(H, out_h, x.dtype),
                      _pool_matrix(W, out_w, x.dtype))


def _interp_weights(n_in, n_out, dtype):
    """align-corners-false source indices and lerp weights for one axis."""
    src = (np.arange(n_out, dtype=dtype) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = (src - i0).astype(dtype)
    return i0, i1, w


def _interp_matrix(n_in, n_out, dtype):
    """(n_out, n_in) matrix of the lerp weights: row i holds 1 - w at i0 and
    w at i1 (summed where the two coincide at the border)."""
    i0, i1, w = _interp_weights(n_in, n_out, dtype.type)
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    m[rows, i0] = 1.0 - w
    m[rows, i1] += w
    return m


def bilinear_upsample(x, out_h, out_w):
    """align-corners-false bilinear interpolation; constants map to constants."""
    H, W = x.shape[-2], x.shape[-1]
    if out_h < H or out_w < W:
        raise ShapeError(f"bilinear_upsample target {out_h}x{out_w} smaller "
                         f"than input {H}x{W}")
    return _separable(x, _interp_matrix(H, out_h, x.dtype),
                      _interp_matrix(W, out_w, x.dtype))


# ---------------------------------------------------------------------------
# generalized mean pooling
# ---------------------------------------------------------------------------

GEM_CLAMP = 1e-6


def gem_pool(x, p):
    """Per-channel power mean over H,W: (mean(clamp(x)^p))^(1/p). x: (...,H,W).

    Inputs are clamped below at GEM_CLAMP so fractional powers stay defined;
    p may be a learnable scalar Parameter and must be >= 1.
    """
    p_t = p if isinstance(p, Tensor) else Tensor(np.asarray(p, dtype=x.dtype))
    pv = float(p_t.data)
    if pv < 1.0:
        raise ShapeError(f"gem_pool exponent must be >= 1, got {pv}")
    xc = np.maximum(x.data, GEM_CLAMP)
    mask = x.data > GEM_CLAMP
    n = x.shape[-2] * x.shape[-1]
    xp = xc ** pv
    m = xp.mean(axis=(-2, -1), keepdims=True)
    y = m ** (1.0 / pv)
    out = Tensor(y)

    def bwd(g):
        gx = g * m ** (1.0 / pv - 1.0) * xc ** (pv - 1.0) / n
        gx = gx * mask
        lx = np.log(xc)
        dy_dp = y * (-np.log(m) / pv ** 2
                     + (xp * lx).mean(axis=(-2, -1), keepdims=True) / (pv * m))
        gp = np.asarray((g * dy_dp).sum(), dtype=p_t.dtype).reshape(p_t.shape)
        return (gx, gp)

    record([out], [x, p_t], bwd)
    return out


# ---------------------------------------------------------------------------
# dropout / normalization helpers
# ---------------------------------------------------------------------------

def dropout(x, rate, rng):
    """Inverted dropout. Identity when rate == 0 or rng is None (eval)."""
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    out = Tensor(x.data * keep)
    record([out], [x], lambda g: (g * keep,))
    return out


def l2_normalize(x, axis=-1, eps=1e-12):
    n2 = sum_(mul(x, x), axis=axis, keepdims=True)
    inv = pow_const(add_const(n2, eps), -0.5)
    return mul(x, inv)
