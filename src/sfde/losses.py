"""Supervision: classification cross-entropy on the global branch, symmetric
InfoNCE on pooled local-branch features, the same InfoNCE as the alignment
loss on pooled frequency-branch features, and their weighted sum.

Default weights (0.1, 1.0, 1.3) follow the training recipe this artifact
reproduces. The contrastive temperature is a learnable scalar stored as a
log-temperature, initialized at ln(0.07), shared by both contrastive terms.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Tensor, record
from .config import LossWeights


class LossError(ValueError):
    pass


def cross_entropy(logits, labels):
    """Mean -log softmax(logits)[label] over the batch (log-sum-exp stable).

    logits: (N, P) tensor; labels: length-N int array.
    """
    labels = np.asarray(labels)
    n, p = logits.shape
    if labels.min() < 0 or labels.max() >= p:
        raise LossError(f"label out of range [0, {p}) : {labels}")
    logp = ops.log_softmax(logits, axis=-1)
    picked = _gather_rows(logp, labels)
    return ops.scale(ops.sum_(picked), -1.0 / n)


def _gather_rows(x, cols):
    """x[i, cols[i]] for each row, on the tape."""
    rows = np.arange(x.shape[0])
    out = Tensor(np.array(x.data[rows, cols], copy=True))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, cols] = g
        return (gx,)

    record(out, [x], bwd)
    return out


def info_nce(a, b, temperature):
    """Symmetric InfoNCE over cross-view pairs: 0.5 * (row-wise CE +
    column-wise CE) of the temperature-scaled similarity matrix.

    a, b: (N, D) L2-normalized embeddings, row i of each matched.
    `temperature` is either a positive float or a log-temperature Tensor
    (the learnable form used in training).
    """
    if not isinstance(temperature, Tensor):
        t = float(temperature)
        if t <= 0:
            raise LossError(f"temperature must be positive, got {t}")
        temperature = Tensor(np.asarray(np.log(t), dtype=a.dtype))
    n = a.shape[0]
    if n < 2:
        raise LossError("contrastive loss needs at least 2 pairs in the batch")
    sims = ops.matmul(a, ops.transpose(b, (1, 0)))
    inv_t = ops.exp(ops.neg(temperature))
    scaled = ops.mul(sims, inv_t)
    labels = np.arange(n)
    row_ce = cross_entropy(scaled, labels)
    col_ce = cross_entropy(ops.transpose(scaled, (1, 0)), labels)
    return ops.scale(ops.add(row_ce, col_ce), 0.5)


def pool_for_contrast(feature_map, gem_p):
    """GeM-pool a (N, C, H, W) map and L2-normalize to (N, C)."""
    pooled = ops.gem_pool(feature_map, gem_p)
    flat = ops.reshape(pooled, (feature_map.shape[0], feature_map.shape[1]))
    return ops.l2_normalize(flat, axis=-1)


def total_loss(ce, nce, dsa, weights: LossWeights):
    """lambda_1 * CE + lambda_2 * InfoNCE + lambda_3 * DSA; any part may be
    None (treated as absent, not zero-weighted), but not every part: a run
    with no loss term would only decay its weights."""
    parts = []
    for term, w in ((ce, weights.lambda_ce), (nce, weights.lambda_infonce),
                    (dsa, weights.lambda_dsa)):
        if term is not None:
            parts.append(ops.scale(term, w))
    if not parts:
        raise LossError(
            "no loss term to train: the classification term needs use_gscb "
            "= true, and the contrastive terms need use_lgsb or use_fsab "
            "with at least 2 pairs per batch")
    out = parts[0]
    for p in parts[1:]:
        out = ops.add(out, p)
    return out
