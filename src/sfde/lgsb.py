"""Local geometric branch: multiscale dilated convolutions, an interaction
gate between the finest and coarsest scales, a learnable four-level spatial
pyramid, GeM-based global recalibration, and a residual output.

Shapes (C = backbone channels, divisible by 4): the three dilated convs map
C -> C/4 each; everything stays at the input H x W; the final 1x1 conv
expands back to C and the output is averaged with the input feature.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Parameter
from .layers import BatchNorm, Conv2d, Module


class LocalGeometricBranch(Module):
    def __init__(self, c, rng, dtype=np.float32):
        super().__init__()
        if c % 4 != 0:
            raise ops.ShapeError(f"branch needs channels divisible by 4, got {c}")
        c4 = c // 4

        # three parallel 3x3 convs, dilation 1/2/3, padding keeps H x W
        self.scale_convs = [
            Conv2d(c, c4, 3, rng, padding=d, dilation=d, dtype=dtype)
            for d in (1, 2, 3)
        ]

        # interaction gate on cat(fine, coarse)
        self.gate_conv = Conv2d(2 * c4, c4, 1, rng, dtype=dtype)
        self.gate_norm = BatchNorm(c4, dtype=dtype)

        # four-level pyramid; level s pools to an s x s grid
        self.pyr_convs = [Conv2d(c4, c4, 1, rng, dtype=dtype) for _ in range(4)]
        self.pyr_norms = [BatchNorm(c4, dtype=dtype) for _ in range(4)]
        self.pyr_alpha = Parameter(np.zeros(4, dtype=dtype))  # uniform mix at init
        self.pyr_alpha.weight_decay = False
        self.pyr_merge = Conv2d(4 * c4, c4, 1, rng, dtype=dtype)

        # GeM recalibration and channel expansion
        self.gem_p = Parameter(np.asarray(3.0, dtype=dtype))
        self.gem_p.weight_decay = False
        self.gem_p.clamp_range = (1.0, 128.0)
        self.expand = Conv2d(c4, c, 1, rng, dtype=dtype)

    # -- pieces (exposed individually for the contract tests) ---------------

    def multiscale_split(self, f):
        return tuple(conv(f) for conv in self.scale_convs)

    def interaction_fuse(self, fine, mid, coarse, training=False):
        pre = self.gate_conv(ops.concat([fine, coarse], axis=-3))
        w1 = ops.sigmoid(self.gate_norm(pre, training))
        fused = ops.add(ops.add(ops.mul(w1, fine), mid),
                        ops.mul(ops.add_const(ops.neg(w1), 1.0), coarse))
        return ops.scale(fused, 1.0 / 3.0)

    def pyramid_weights(self):
        return ops.softmax(self.pyr_alpha, axis=-1)

    def pyramid_enhance(self, g, training=False):
        h, w = g.shape[-2], g.shape[-1]
        omega = self.pyramid_weights()
        levels = []
        for i, s in enumerate((1, 2, 3, 4)):
            lvl = ops.adaptive_avg_pool(g, s, s)
            lvl = ops.relu(self.pyr_norms[i](self.pyr_convs[i](lvl), training))
            lvl = ops.bilinear_upsample(lvl, h, w)
            wi = ops.reshape(ops.slice_(omega, slice(i, i + 1)), (1, 1, 1))
            levels.append(ops.mul(lvl, wi))
        return self.pyr_merge(ops.concat(levels, axis=-3))

    def global_recalibrate(self, p):
        g = ops.gem_pool(p, self.gem_p)           # (N, C/4, 1, 1)
        return self.expand(ops.relu(ops.add(p, g)))

    def __call__(self, f, training=False):
        fine, mid, coarse = self.multiscale_split(f)
        fused = self.interaction_fuse(fine, mid, coarse, training)
        pyr = self.pyramid_enhance(fused, training)
        enhanced = self.global_recalibrate(pyr)
        return ops.scale(ops.add(enhanced, f), 0.5)
