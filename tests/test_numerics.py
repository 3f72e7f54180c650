"""Kernel contracts: shapes, worked values, and elementary identities."""

import math

import numpy as np
import pytest

from sfde import ops
from sfde.autodiff import Tape, Tensor
from sfde.layers import MultiHeadSelfAttention


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_ones_kernel_counts_window_overlap():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    y = ops.conv2d(x, w, padding=1)
    assert y.shape == (1, 1, 3, 3)
    assert y.data[0, 0, 1, 1] == pytest.approx(9.0)
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert y.data[0, 0, i, j] == pytest.approx(4.0)


def test_conv_zero_input_yields_bias(rng):
    x = Tensor(np.zeros((2, 3, 5, 5)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    y = ops.conv2d(x, w, b, padding=1)
    for c in range(4):
        assert np.allclose(y.data[:, c], b.data[c])


def test_conv_dilated_shape():
    x = Tensor(np.zeros((1, 1, 5, 5)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    y = ops.conv2d(x, w, padding=2, dilation=2)
    assert y.shape == (1, 1, 5, 5)


def test_conv_shape_formula_randomized(rng):
    for _ in range(50):
        h = int(rng.integers(4, 12))
        w = int(rng.integers(4, 12))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        dil = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        eff = dil * (k - 1) + 1
        if h + 2 * pad < eff or w + 2 * pad < eff:
            continue
        x = Tensor(rng.normal(size=(1, 2, h, w)))
        wt = Tensor(rng.normal(size=(3, 2, k, k)))
        y = ops.conv2d(x, wt, stride=stride, padding=pad, dilation=dil)
        eh = (h + 2 * pad - dil * (k - 1) - 1) // stride + 1
        ew = (w + 2 * pad - dil * (k - 1) - 1) // stride + 1
        assert y.shape == (1, 3, eh, ew)


def test_conv_linearity(rng):
    x = Tensor(rng.normal(size=(1, 2, 6, 6)))
    y = Tensor(rng.normal(size=(1, 2, 6, 6)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    mix = Tensor(2.0 * x.data - 0.5 * y.data)
    lhs = ops.conv2d(mix, w, padding=1).data
    rhs = (2.0 * ops.conv2d(x, w, padding=1).data
           - 0.5 * ops.conv2d(y, w, padding=1).data)
    assert np.abs(lhs - rhs).max() < 1e-5 * max(1.0, np.abs(rhs).max())


def test_conv_channel_mismatch_rejected(rng):
    x = Tensor(rng.normal(size=(1, 3, 5, 5)))
    w = Tensor(rng.normal(size=(4, 2, 3, 3)))
    with pytest.raises(ops.ShapeError):
        ops.conv2d(x, w)


def test_conv_grouped_matches_per_group_conv(rng):
    x = Tensor(rng.normal(size=(1, 4, 5, 5)))
    w = Tensor(rng.normal(size=(6, 2, 3, 3)))
    y = ops.conv2d(x, w, padding=1, groups=2)
    lo = ops.conv2d(Tensor(x.data[:, :2]), Tensor(w.data[:3]), padding=1)
    hi = ops.conv2d(Tensor(x.data[:, 2:]), Tensor(w.data[3:]), padding=1)
    assert np.allclose(y.data, np.concatenate([lo.data, hi.data], axis=1))


def _conv_oracle(x, w, g, stride, padding, dilation, groups):
    """Direct float64 loops for y = conv(x, w) and, for the loss sum(y * g),
    dL/dx and dL/dw. x: (N,C,H,W); w: (O,Cg,K,K); g: (N,O,Ho,Wo)."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    H, W = x.shape[2:]
    O, Cg, K, _ = w.shape
    Ho, Wo = g.shape[2:]
    y, gx, gw = np.zeros(g.shape), np.zeros(x.shape), np.zeros(w.shape)
    for o in range(O):
        for c in range(Cg):
            ci = o // (O // groups) * Cg + c
            for a in range(K):
                for b in range(K):
                    for i in range(Ho):
                        hi = i * stride + a * dilation - padding
                        if not 0 <= hi < H:
                            continue
                        for j in range(Wo):
                            wj = j * stride + b * dilation - padding
                            if not 0 <= wj < W:
                                continue
                            xv, gv = x[:, ci, hi, wj], g[:, o, i, j]
                            y[:, o, i, j] += w[o, c, a, b] * xv
                            gw[o, c, a, b] += gv @ xv
                            gx[:, ci, hi, wj] += w[o, c, a, b] * gv
    return y, gx, gw


# x shape, w shape, bias, stride, padding, dilation, groups: every conv kind
# the model runs, plus a grouped conv with several channels per group.
CONV_CASES = {
    "dw7": ((2, 4, 9, 9), (4, 1, 7, 7), False, 1, 3, 1, 4),
    "pw1": ((2, 5, 6, 6), (3, 5, 1, 1), False, 1, 0, 1, 1),
    "stem4": ((2, 3, 12, 12), (4, 3, 4, 4), False, 4, 0, 1, 1),
    "down2": ((2, 4, 6, 6), (6, 4, 2, 2), False, 2, 0, 1, 1),
    "dil1": ((2, 4, 7, 7), (3, 4, 3, 3), False, 1, 1, 1, 1),
    "dil2": ((2, 4, 7, 7), (3, 4, 3, 3), False, 1, 2, 2, 1),
    "dil3": ((2, 4, 7, 7), (3, 4, 3, 3), False, 1, 3, 3, 1),
    "fsab_dw3": ((2, 4, 4, 3), (4, 1, 3, 3), False, 1, 1, 1, 4),
    "grouped": ((2, 4, 5, 5), (6, 2, 3, 3), False, 1, 1, 1, 2),
    "bias_unbatched": ((3, 6, 5), (4, 3, 3, 3), True, 1, 1, 1, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(CONV_CASES))
def test_conv_matches_direct_loop_oracle(kind, dtype):
    xs, ws, with_bias, s, p, d, groups = CONV_CASES[kind]
    rng = np.random.default_rng(7)
    x = rng.normal(size=xs).astype(dtype)
    w = rng.normal(size=ws).astype(dtype)
    b = rng.normal(size=ws[0]).astype(dtype) if with_bias else None
    xt, wt = Tensor(x), Tensor(w)
    bt = Tensor(b) if with_bias else None
    with Tape() as tape:
        y = ops.conv2d(xt, wt, bt, stride=s, padding=p, dilation=d,
                       groups=groups)
        g = rng.normal(size=y.shape).astype(dtype)
        loss = ops.sum_(ops.mul(y, Tensor(g)))
    tape.backward(loss)

    if x.ndim == 4:
        ref_y, ref_gx, ref_gw = _conv_oracle(x, w, g, s, p, d, groups)
    else:
        ref_y, ref_gx, ref_gw = _conv_oracle(x[None], w, g[None], s, p, d,
                                             groups)
        ref_y, ref_gx = ref_y[0], ref_gx[0]
    got = {"y": y.data, "dx": tape.grad(xt), "dw": tape.grad(wt)}
    ref = {"y": ref_y, "dx": ref_gx, "dw": ref_gw}
    if with_bias:
        got["db"] = tape.grad(bt)
        ref["y"] = ref["y"] + b[:, None, None]
        ref["db"] = g.astype(np.float64).sum(axis=(-2, -1))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for name, want in ref.items():
        assert got[name].dtype == dtype, name
        assert got[name].shape == want.shape, name
        err = np.abs(got[name] - want).max() / max(1.0, np.abs(want).max())
        assert err < tol, (name, err)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

def _bn_buffers(c):
    return np.zeros(c), np.ones(c)


def test_batch_norm_identity_statistics(rng):
    x = rng.normal(size=(64, 3, 4, 4))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3),
                                                           keepdims=True)
    rm, rv = _bn_buffers(3)
    y = ops.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       rm, rv, training=True)
    assert np.abs(y.data - x).max() < 1e-4


def test_batch_norm_zero_gamma_gives_beta(rng):
    rm, rv = _bn_buffers(2)
    y = ops.batch_norm(Tensor(rng.normal(size=(4, 2, 3, 3))),
                       Tensor(np.zeros(2)), Tensor(np.full(2, 0.7)),
                       rm, rv, training=True)
    assert np.allclose(y.data, 0.7)


def test_batch_norm_two_sample_closed_form():
    x = np.zeros((2, 1, 1, 1))
    x[0] = -1.0
    x[1] = 1.0
    rm, rv = _bn_buffers(1)
    y = ops.batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                       rm, rv, training=True)
    assert np.abs(np.abs(y.data) - 1.0).max() < 1e-4


def test_batch_norm_rejects_single_sample_training():
    rm, rv = _bn_buffers(1)
    with pytest.raises(ops.ShapeError):
        ops.batch_norm(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.ones(1)),
                       Tensor(np.zeros(1)), rm, rv, training=True)


def test_batch_norm_eval_uses_running_statistics(rng):
    rm = np.array([1.0])
    rv = np.array([4.0])
    x = rng.normal(size=(3, 1, 2, 2))
    y = ops.batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                       rm, rv, training=False)
    assert np.abs(y.data - (x - 1.0) / np.sqrt(4.0 + 1e-5)).max() < 1e-6


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_sigmoid_midpoint_and_range(rng):
    assert float(ops.sigmoid(Tensor(np.zeros(1))).data[0]) == pytest.approx(0.5)
    y = ops.sigmoid(Tensor(rng.normal(size=100) * 10)).data
    assert np.all(y > 0) and np.all(y < 1)


def test_softmax_uniform_and_sum(rng):
    y = ops.softmax(Tensor(np.zeros(4))).data
    assert np.allclose(y, 0.25)
    z = ops.softmax(Tensor(rng.normal(size=(5, 7)) * 50), axis=-1).data
    assert np.abs(z.sum(axis=-1) - 1.0).max() < 1e-6


def test_gelu_values():
    y = ops.gelu(Tensor(np.array([0.0, 1.0, -1.0], dtype=np.float64))).data
    assert y[0] == pytest.approx(0.0)
    # exact Gaussian CDF form: x * Phi(x)
    from scipy.stats import norm
    assert y[1] == pytest.approx(1.0 * norm.cdf(1.0), abs=1e-7)
    assert y[2] == pytest.approx(-1.0 * norm.cdf(-1.0), abs=1e-7)


def _ulps(got, z):
    """Distance of `got` from `math.erf(z)` in units of the reference's
    last place."""
    ref = np.array([math.erf(v) for v in z])
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def test_erf_dense_grid_matches_math_erf():
    z = np.linspace(-7.0, 7.0, 140_001)
    z = np.concatenate([z, np.geomspace(1e-300, 1e-3, 1000)])
    assert _ulps(ops._erf(z), z).max() <= 2


def test_erf_float32_in_float32_out_rounded_once(rng):
    z = (rng.standard_normal(10_000) * 2).astype(np.float32)
    y = ops._erf(z)
    assert y.dtype == np.float32 and y.shape == z.shape
    assert np.array_equal(y, ops._erf(z.astype(np.float64)).astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_exactly_odd(dtype):
    z = np.linspace(0.0, 8.0, 40_001, dtype=dtype)
    assert np.array_equal(ops._erf(-z), -ops._erf(z))


def test_erf_zeros_infinities_and_nan():
    y = ops._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert y[0] == 0.0 and not np.signbit(y[0])
    assert y[1] == 0.0 and np.signbit(y[1])
    assert y[2] == 1.0 and y[3] == -1.0
    assert np.isnan(y[4])


def test_erf_is_exactly_one_from_six():
    z = np.array([6.0, 6.5, 7.0, 1e10, 1e300, np.finfo(np.float64).max])
    assert np.all(ops._erf(z) == 1.0) and np.all(ops._erf(-z) == -1.0)
    z32 = np.array([6.0, 1e30, np.finfo(np.float32).max], dtype=np.float32)
    assert np.all(ops._erf(z32) == 1.0)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_erf_is_continuous_across_the_core_boundary(side):
    """|z| = 1 joins the core polynomial and the tail form: the 50 floats on
    each side match `math.erf` and step by no more than the slope allows."""
    below = 1.0 - np.arange(50, 0, -1) * np.spacing(0.5)
    above = 1.0 + np.arange(51) * np.spacing(1.0)
    z = side * np.concatenate([below, above])
    y = ops._erf(z)
    assert _ulps(y, z).max() <= 2
    assert np.all(side * np.diff(y) >= -2 * np.spacing(1.0))
    assert np.abs(np.diff(y)).max() <= 3 * np.spacing(1.0)


def test_erf_float32_agrees_with_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20261018)
    z = np.concatenate([rng.standard_normal(500_000),
                        rng.uniform(-7.0, 7.0, 500_000)]).astype(np.float32)
    assert np.array_equal(ops._erf(z), special.erf(z))


def test_relu_and_softplus(rng):
    x = rng.normal(size=32)
    assert np.allclose(ops.relu(Tensor(x)).data, np.maximum(x, 0))
    sp = ops.softplus(Tensor(np.array([0.0, 50.0, -50.0]))).data
    assert sp[0] == pytest.approx(np.log(2))
    assert sp[1] == pytest.approx(50.0)
    assert sp[2] >= 0


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------

def test_adaptive_pool_quadrants():
    x = Tensor(np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4))
    y = ops.adaptive_avg_pool(x, 2, 2)
    assert np.allclose(y.data[0, 0], [[3.5, 5.5], [11.5, 13.5]])


def test_adaptive_pool_global_mean(rng):
    x = rng.normal(size=(2, 3, 5, 7))
    y = ops.adaptive_avg_pool(Tensor(x), 1, 1)
    assert np.allclose(y.data[..., 0, 0], x.mean(axis=(-2, -1)))


def test_adaptive_pool_constant_any_grid():
    x = Tensor(np.full((1, 2, 6, 6), 3.25))
    for oh, ow in [(1, 1), (2, 3), (4, 4), (6, 6)]:
        assert np.allclose(ops.adaptive_avg_pool(x, oh, ow).data, 3.25)


def test_adaptive_pool_rejects_zero_extent():
    with pytest.raises(ops.ShapeError):
        ops.adaptive_avg_pool(Tensor(np.zeros((1, 1, 4, 4))), 0, 2)


def test_upsample_closed_form_weights():
    x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    y = ops.bilinear_upsample(x, 1, 4)
    assert np.allclose(y.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0])


def test_upsample_preserves_constants():
    x = Tensor(np.full((1, 2, 3, 3), -1.5))
    assert np.allclose(ops.bilinear_upsample(x, 7, 9).data, -1.5)


def test_upsample_single_source_broadcasts():
    x = Tensor(np.full((1, 1, 1, 1), 0.3))
    assert np.allclose(ops.bilinear_upsample(x, 4, 5).data, 0.3)


# ---------------------------------------------------------------------------
# GeM pooling
# ---------------------------------------------------------------------------

def test_gem_hand_values():
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 2))
    assert ops.gem_pool(x, 1.0).data.item() == pytest.approx(2.0)
    assert ops.gem_pool(x, 2.0).data.item() == pytest.approx(np.sqrt(5.0),
                                                             abs=1e-5)
    assert abs(ops.gem_pool(x, 64.0).data.item() - 3.0) < 0.05


def test_gem_rejects_p_below_one():
    with pytest.raises(ValueError):
        ops.gem_pool(Tensor(np.ones((1, 2, 2))), 0.5)


def test_gem_monotone_in_p(rng):
    for _ in range(100):
        x = Tensor(rng.uniform(0.0, 2.0, size=(2, 3, 3)))
        vals = [ops.gem_pool(x, p).data for p in (1.0, 2.0, 4.0, 8.0, 32.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(lo <= hi + 1e-9)


def test_gem_constant_map_fixed_point():
    x = Tensor(np.full((3, 4, 4), 0.8))
    for p in (1.0, 3.0, 17.0):
        assert np.allclose(ops.gem_pool(x, p).data, 0.8, atol=1e-6)


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------

def test_mhsa_rows_sum_to_one(rng):
    attn = MultiHeadSelfAttention(8, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 4, 8)))
    attn(x)
    rows = attn.last_attention
    assert rows.shape[-2:] == (4, 4)
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-6


def test_mhsa_identical_tokens_identical_outputs(rng):
    attn = MultiHeadSelfAttention(8, 2, rng, dtype=np.float64)
    tok = rng.normal(size=8)
    x = Tensor(np.tile(tok, (1, 5, 1)))
    y = attn(x).data
    assert np.abs(y - y[:, :1]).max() < 1e-10


def test_mhsa_rejects_indivisible_heads(rng):
    with pytest.raises(ops.ShapeError):
        MultiHeadSelfAttention(6, 4, rng)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_kernels_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        y = ops.conv2d(x, w, padding=1)
        y = ops.gelu(y)
        y = ops.gem_pool(ops.add_const(ops.sigmoid(y), 0.1), 3.0)
        return y.data.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)
