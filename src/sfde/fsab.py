"""Frequency branch: spectral decomposition, triple amplitude gating,
amplitude-phase encoding with spectral self-attention, gated fusion, and a
three-path reconstruction fused back to C channels.

The phase spectrum is never modified: both reconstruction paths recombine a
(gated) amplitude with the original phase. The forward pass is one chain of
the public stages (`amplitude_gating`, `ampphase_encode`,
`spectral_attention`, `gated_fusion`, `reconstruct_paths`), so a test reads
any intermediate by calling the stages itself. Its shape rules (even width,
the attention token budget) are `ModelConfig.validate`'s alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops, spectral
from .autodiff import Parameter, Tensor
from .layers import BatchNorm, Conv2d, Module, MultiHeadSelfAttention

DROPOUT = 0.1  # after each fusion layer, train mode only


def coordinate_grid(h, wp, dtype=np.float32):
    """Continuous normalized coordinates, (2, H, W'), each axis in [-1, 1]
    with corners exactly at +-1; a spectrum has H >= 2 and W' >= 2."""
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype)
    xs = np.linspace(-1.0, 1.0, wp, dtype=dtype)
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([gy, gx]).astype(dtype)


@dataclass
class GateSet:
    channel: Tensor       # (N, C, 1, 1) in (0, 1)
    spatial: Tensor       # (N, 1, H, W') in (0, 1)
    calibration: Tensor   # (N, C, 1, 1) > 0


class FrequencyStabilityBranch(Module):
    def __init__(self, c, rng, heads=4, dtype=np.float32):
        super().__init__()
        cb = max(1, c // 4)  # squeeze-excitation bottleneck ratio 4

        # channel gate: GAP -> 1x1 -> ReLU -> 1x1 -> sigmoid
        self.ch_squeeze = Conv2d(c, cb, 1, rng, dtype=dtype)
        self.ch_excite = Conv2d(cb, c, 1, rng, dtype=dtype)
        # spatial gate: 3x3 conv to a single channel
        self.sp_conv = Conv2d(c, 1, 3, rng, padding=1, dtype=dtype)
        # per-channel calibration: softplus of a learnable affine of the
        # channel-mean amplitude
        self.cal_w = Parameter(np.ones(c, dtype=dtype))
        self.cal_b = Parameter(np.zeros(c, dtype=dtype))

        # amplitude-phase encoder
        self.enc_proj = Conv2d(2 * c, c, 1, rng, dtype=dtype)
        self.enc_norm1 = BatchNorm(c, dtype=dtype)
        self.enc_dw = Conv2d(c, c, 3, rng, padding=1, groups=c, dtype=dtype)
        self.enc_pw = Conv2d(c, c, 1, rng, dtype=dtype)
        self.enc_norm2 = BatchNorm(c, dtype=dtype)

        # positional encoding of the coordinate grid + spectral attention
        self.pem1 = Conv2d(2, c, 1, rng, dtype=dtype)
        self.pem2 = Conv2d(c, c, 1, rng, dtype=dtype)
        self.attention = MultiHeadSelfAttention(c, heads, rng, dtype=dtype)

        # residual gate on the gated amplitude
        self.res_gate = Conv2d(c, c, 1, rng, dtype=dtype)

        # three-path fusion: 3C -> 2C -> C -> C, each BN + GELU + dropout
        self.fuse_convs = [Conv2d(3 * c, 2 * c, 1, rng, dtype=dtype),
                           Conv2d(2 * c, c, 1, rng, dtype=dtype),
                           Conv2d(c, c, 1, rng, dtype=dtype)]
        self.fuse_norms = [BatchNorm(2 * c, dtype=dtype),
                           BatchNorm(c, dtype=dtype),
                           BatchNorm(c, dtype=dtype)]

    # -- stages -------------------------------------------------------------

    def amplitude_gating(self, amp):
        if np.any(amp.data < 0):
            raise ops.ShapeError("amplitude gating requires non-negative input")
        n, c = amp.shape[0], amp.shape[1]
        pooled = ops.adaptive_avg_pool(amp, 1, 1)
        wc = ops.sigmoid(self.ch_excite(ops.relu(self.ch_squeeze(pooled))))
        ws = ops.sigmoid(self.sp_conv(amp))
        pooled_flat = ops.reshape(pooled, (n, c))
        tau = ops.softplus(ops.add(ops.mul(pooled_flat, self.cal_w), self.cal_b))
        tau = ops.reshape(tau, (n, c, 1, 1))
        gated = ops.mul(ops.mul(ops.mul(tau, ws), wc), amp)
        return gated, GateSet(wc, ws, tau)

    def ampphase_encode(self, gated_amp, phi, training=False):
        x = ops.concat([gated_amp, ops.scale(phi, 1.0 / np.pi)], axis=-3)
        h = ops.gelu(self.enc_norm1(self.enc_proj(x), training))
        h = self.enc_pw(self.enc_dw(h))
        return ops.gelu(self.enc_norm2(h, training))

    def spectral_attention(self, q):
        n, c, h, wp = q.shape
        grid = Tensor(np.broadcast_to(coordinate_grid(h, wp, q.dtype.type),
                                      (n, 2, h, wp)).copy())
        pem = self.pem2(ops.gelu(self.pem1(grid)))
        tokens = ops.add(q, pem)
        tokens = ops.transpose(ops.reshape(tokens, (n, c, h * wp)), (0, 2, 1))
        attended = ops.add(self.attention(tokens), tokens)  # residual
        return ops.reshape(ops.transpose(attended, (0, 2, 1)), (n, c, h, wp))

    def gated_fusion(self, f_att, gated_amp):
        we = ops.sigmoid(self.res_gate(gated_amp))
        keep = ops.mul(gated_amp, we)
        blend = ops.mul(ops.sigmoid(f_att), ops.add_const(ops.neg(we), 1.0))
        return ops.add(blend, keep)

    def reconstruct_paths(self, f, fused_amp, gated_amp, phi):
        path2 = spectral.irfft2(spectral.polar_recompose(fused_amp, phi))
        path3 = spectral.irfft2(spectral.polar_recompose(gated_amp, phi))
        return f, path2, path3

    # -- full forward -------------------------------------------------------

    def __call__(self, f, training=False, rng=None):
        spec = spectral.rfft2(f)
        amp = spectral.amplitude(spec)
        phi = spectral.phase(spec)

        gated_amp, _ = self.amplitude_gating(amp)
        q = self.ampphase_encode(gated_amp, phi, training)
        f_att = self.spectral_attention(q)
        fused_amp = self.gated_fusion(f_att, gated_amp)
        paths = self.reconstruct_paths(f, fused_amp, gated_amp, phi)

        out = ops.concat(paths, axis=-3)
        for conv, norm in zip(self.fuse_convs, self.fuse_norms):
            out = ops.gelu(norm(conv(out), training))
            out = ops.dropout(out, DROPOUT if training else 0.0, rng)
        return out
