"""`gelu` and `batch_norm` compute in place, into as few full-size arrays as
they can; the references below are their written-out expressions, which
they must match bit for bit, NaN included, in float32 and float64."""

import numpy as np
import pytest

from sfde import ops
from sfde.autodiff import Parameter, Tape, Tensor


def _gelu_reference(x, g):
    phi = 0.5 * (1.0 + ops._erf(x / ops._SQRT_2))
    return x * phi, g * (phi + x * (np.exp(-0.5 * x * x) / ops._SQRT_2PI))


def _batch_norm_reference(xd, gamma, beta, running_mean, running_var,
                          training, g, momentum=0.1, eps=1e-5):
    axes, view = ((0,), (1, -1)) if xd.ndim == 2 else ((0, 2, 3),
                                                       (1, -1, 1, 1))

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
    y = xhat * ch(gamma) + ch(beta)
    gbeta = g.sum(axis=axes)
    ggamma = (g * xhat).sum(axis=axes)
    gxhat = g * ch(gamma)
    if training:
        n = xd.size // xd.shape[1]
        gx = ch(inv) / n * (
            n * gxhat
            - gxhat.sum(axis=axes).reshape(view)
            - xhat * (gxhat * xhat).sum(axis=axes).reshape(view))
    else:
        gx = gxhat * ch(inv)
    return y, gx, ggamma, gbeta


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.view(f"u{a.itemsize}").tolist()


def _special_values(dtype):
    """Around erf's core/tail boundary |z| = 1 and GELU's x = +-sqrt 2,
    tails, signed zeros, infinities, the positive NaN and the negative
    default NaN that x86 makes for an invalid operation."""
    info = np.finfo(dtype)
    near = []
    for c in (1.0, np.sqrt(2.0), 6.0, 6.0 * np.sqrt(2.0)):
        v = dtype(c)
        for _ in range(4):
            near += [v, -v]
            v = np.nextafter(v, dtype(np.inf))
        v = dtype(c)
        for _ in range(4):
            v = np.nextafter(v, dtype(0))
            near += [v, -v]
    nan = np.array(np.nan, dtype)
    with np.errstate(invalid="ignore"):
        default_nan = np.array(np.inf, dtype) - np.array(np.inf, dtype)
    return np.array(near + [0.0, -0.0, info.tiny, -info.tiny,
                            info.smallest_subnormal, 2.5, -3.75, 1e3, -1e30,
                            info.max, -info.max, np.inf, -np.inf, nan,
                            -nan, default_nan], dtype)


def _inputs(dtype):
    rng = np.random.default_rng(3)
    # more than one `_ERF_CHUNK`, so erf's chunk loop runs on every path
    normal = rng.normal(scale=2.0, size=ops._ERF_CHUNK + 1000).astype(dtype)
    return np.concatenate([normal, _special_values(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_its_reference_bit_for_bit(dtype):
    x = _inputs(dtype)
    g = np.random.default_rng(4).normal(size=x.shape).astype(dtype)
    g[:8] = _special_values(dtype)[-8:]
    xt = Tensor(x)
    with np.errstate(all="ignore"):
        with Tape() as tape:
            y = ops.gelu(xt)
            loss = ops.sum_(ops.mul(y, Tensor(g)))
        tape.backward(loss)
        want_y, want_gx = _gelu_reference(x, g)
    assert _bits(y.data) == _bits(want_y)
    assert _bits(tape.grad(xt)) == _bits(want_gx)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(6, 5, 4, 3), (7, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_matches_its_reference_bit_for_bit(dtype, shape,
                                                      training):
    rng = np.random.default_rng(5)
    x = rng.normal(loc=0.5, scale=3.0, size=shape).astype(dtype)
    # in one channel, four samples are infinities and NaNs of both signs
    x[:4, 4, ...] = _special_values(dtype)[-4:].reshape(
        (4,) + (1,) * (x.ndim - 2))
    g = rng.normal(size=shape).astype(dtype)
    gamma = rng.normal(size=shape[1]).astype(dtype)
    beta = rng.normal(size=shape[1]).astype(dtype)
    stats = (rng.normal(size=shape[1]), rng.uniform(0.5, 2.0, size=shape[1]))
    xt, gt, bt = Tensor(x), Parameter(gamma), Parameter(beta)
    rm, rv = stats[0].copy(), stats[1].copy()
    with np.errstate(all="ignore"):
        with Tape() as tape:
            y = ops.batch_norm(xt, gt, bt, rm, rv, training)
            loss = ops.sum_(ops.mul(y, Tensor(g)))
        tape.backward(loss)
        ref_rm, ref_rv = stats[0].copy(), stats[1].copy()
        want = _batch_norm_reference(x, gamma, beta, ref_rm, ref_rv,
                                     training, g)
    got = (y.data, tape.grad(xt), tape.grad(gt), tape.grad(bt))
    for name, a, b in zip(("y", "dx", "dgamma", "dbeta"), got, want):
        assert _bits(a) == _bits(b), name
    assert _bits(rm) == _bits(ref_rm) and _bits(rv) == _bits(ref_rv)
