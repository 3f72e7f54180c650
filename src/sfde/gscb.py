"""Global semantic branch: global average pooling into an embedding/classifier
head.

The head is {linear C->E -> batch norm -> dropout(0.5, train only) ->
linear E->P}. The post-norm E-vector is the retrieval-side embedding; the
P-vector is the classification logits. The classifier layer uses Kaiming
initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Tensor
from .layers import BatchNorm, Linear, Module

DROPOUT = 0.5  # before the classifier, train mode only


@dataclass
class GlobalDescriptor:
    embedding: Tensor           # (N, E)
    logits: Tensor | None       # (N, P), None when no classifier configured


class GlobalSemanticBranch(Module):
    def __init__(self, c, embed_dim, num_classes, rng, dtype=np.float32):
        super().__init__()
        self.proj = Linear(c, embed_dim, rng, dtype=dtype)
        self.norm = BatchNorm(embed_dim, dtype=dtype)
        self.classifier = (Linear(embed_dim, num_classes, rng, init="kaiming",
                                  dtype=dtype)
                           if num_classes else None)

    def __call__(self, f, training=False, rng=None) -> GlobalDescriptor:
        """f: (N, C, H, W) feature maps."""
        pooled = ops.reshape(ops.mean_(f, axis=(-2, -1)), (f.shape[0], f.shape[1]))
        emb = self.norm(self.proj(pooled), training)
        logits = None
        if self.classifier is not None:
            h = ops.dropout(emb, DROPOUT if training else 0.0, rng)
            logits = self.classifier(h)
        return GlobalDescriptor(embedding=emb, logits=logits)
