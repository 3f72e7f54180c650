"""Weight-shared feature extractor: a desk-scale stand-in for a modern
stride-32 convolutional backbone.

Stem is a 4x4/stride-4 conv; each later stage starts with a 2x2/stride-2
downsample conv, and every stage stacks blocks of
{7x7 depthwise conv -> norm -> 1x1 expand x4 -> GELU -> 1x1 project ->
residual}. Total stride is fixed at 32, so a SxS input yields an
(S/32)x(S/32) feature map. Both views go through the same parameter store:
weight sharing is structural. Its settings are the model's `ModelConfig`.
"""

from __future__ import annotations

from . import ops
from .config import ModelConfig
from .layers import BatchNorm, Conv2d, Module


class Block(Module):
    def __init__(self, ch, rng, dtype):
        super().__init__()
        self.dw = Conv2d(ch, ch, 7, rng, padding=3, groups=ch, dtype=dtype)
        self.norm = BatchNorm(ch, dtype=dtype)
        self.expand = Conv2d(ch, 4 * ch, 1, rng, dtype=dtype)
        self.project = Conv2d(4 * ch, ch, 1, rng, dtype=dtype)

    def __call__(self, x, training):
        h = self.norm(self.dw(x), training)
        h = self.project(ops.gelu(self.expand(h)))
        return ops.add(h, x)


class Backbone(Module):
    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.cfg = cfg
        chans, dtype = cfg.stage_channels, cfg.np_dtype
        self.stem = Conv2d(3, chans[0], 4, rng, stride=4, dtype=dtype)
        self.downsamples = [
            Conv2d(chans[i - 1], chans[i], 2, rng, stride=2, dtype=dtype)
            for i in range(1, 4)
        ]
        self.stages = [
            [Block(chans[i], rng, dtype) for _ in range(cfg.blocks_per_stage)]
            for i in range(4)
        ]

    def __call__(self, images, training=False):
        """images: (N, 3, S, S) with S = cfg.input_size -> (N, C, S/32, S/32)."""
        n, c, h, w = images.shape
        s = self.cfg.input_size
        if c != 3 or h != s or w != s:
            raise ops.ShapeError(
                f"backbone stem expects (N,3,{s},{s}) input, got {images.shape}")
        x = self.stem(images)
        for i in range(4):
            if i > 0:
                x = self.downsamples[i - 1](x)
            for block in self.stages[i]:
                x = block(x, training)
        return x
