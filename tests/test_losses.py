"""Loss scalar oracles, invariances, and gradient checks."""

import numpy as np
import pytest

from conftest import finite_difference
from sfde import losses, ops
from sfde.autodiff import Parameter, Tensor
from sfde.config import ConfigError


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

def test_ce_uniform_logits():
    loss = losses.cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]))
    assert loss.data.item() == pytest.approx(np.log(2), abs=1e-9)


def test_ce_saturated_logits():
    logits = Tensor(np.array([[10.0, -10.0]]))
    right = losses.cross_entropy(logits, np.array([0])).data.item()
    wrong = losses.cross_entropy(logits, np.array([1])).data.item()
    assert right == pytest.approx(np.log(1 + np.exp(-20.0)), rel=1e-6)
    assert wrong == pytest.approx(20.0, abs=1e-6)


def test_ce_batch_mean(rng):
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    got = losses.cross_entropy(Tensor(logits), labels).data.item()
    m = logits.max(axis=1, keepdims=True)
    logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    expect = -logp[np.arange(5), labels].mean()
    assert got == pytest.approx(expect, rel=1e-9)


def test_ce_rejects_out_of_range_label():
    with pytest.raises(losses.LossError):
        losses.cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


# ---------------------------------------------------------------------------
# contrastive terms
# ---------------------------------------------------------------------------

def test_infonce_identity_similarities():
    d = Tensor(np.eye(2))
    loss = losses.info_nce(d, d, 1.0)
    assert loss.data.item() == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-6)


def test_infonce_anti_aligned():
    a = Tensor(np.eye(2))
    # similarity matrix: diagonal -1, off-diagonal +1
    b = Tensor(np.array([[-1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2) * np.sqrt(2))
    sims = a.data @ b.data.T
    assert np.allclose(np.diag(sims), -1) and sims[0, 1] == 1
    loss = losses.info_nce(a, b, 1.0)
    assert loss.data.item() == pytest.approx(np.log(1 + np.exp(2.0)), abs=1e-6)


def test_infonce_rejects_single_pair_and_bad_temperature(rng):
    one = Tensor(unit_rows(rng, 1, 4))
    with pytest.raises(losses.LossError):
        losses.info_nce(one, one, 1.0)
    two = Tensor(unit_rows(rng, 2, 4))
    with pytest.raises(losses.LossError):
        losses.info_nce(two, two, 0.0)


def test_infonce_permutation_invariance(rng):
    a = unit_rows(rng, 5, 8)
    b = unit_rows(rng, 5, 8)
    base = losses.info_nce(Tensor(a), Tensor(b), 0.3).data.item()
    perm = rng.permutation(5)
    shuf = losses.info_nce(Tensor(a[perm]), Tensor(b[perm]), 0.3).data.item()
    assert shuf == pytest.approx(base, rel=1e-9)


def test_infonce_temperature_scaling_invariance(rng):
    a = unit_rows(rng, 4, 6)
    b = unit_rows(rng, 4, 6)
    base = losses.info_nce(Tensor(a), Tensor(b), 0.25).data.item()
    scaled = losses.info_nce(Tensor(3.0 * a), Tensor(b), 0.75).data.item()
    assert scaled == pytest.approx(base, rel=1e-9)


def test_infonce_decreases_when_positive_similarity_rises(rng):
    # a_i = e_i, so s_ij = b_j[i]; adjusting b_j in coordinates j and n+j
    # moves only the diagonal entry s_jj while keeping every other similarity
    # fixed (the slack coordinate n+j is invisible to all queries).
    n = 4
    first = 0.1 * rng.normal(size=(n, n))
    a = np.zeros((n, 2 * n))
    a[:, :n] = np.eye(n)

    def build_b(diag):
        b = np.zeros((n, 2 * n))
        for j in range(n):
            b[j, :n] = first[:, j]
            b[j, j] = diag
            slack = 1.0 - np.sum(b[j, :n] ** 2)
            assert slack > 0
            b[j, n + j] = np.sqrt(slack)
        return Tensor(b)

    lo = losses.info_nce(Tensor(a), build_b(0.2), 0.5).data.item()
    hi = losses.info_nce(Tensor(a), build_b(0.6), 0.5).data.item()
    assert hi < lo


def test_dsa_matched_beats_shuffled(rng):
    maps = rng.uniform(0.1, 1.0, size=(4, 8, 2, 2))
    p = Tensor(np.asarray(3.0))
    d = losses.pool_for_contrast(Tensor(maps), p)
    s = losses.pool_for_contrast(Tensor(maps + 0.01 * rng.normal(size=maps.shape)), p)
    matched = losses.info_nce(d, s, 0.1).data.item()
    roll = Tensor(np.roll(s.data, 1, axis=0))
    shuffled = losses.info_nce(d, roll, 0.1).data.item()
    assert matched < shuffled


def test_pool_for_contrast_unit_norm(rng):
    maps = Tensor(rng.uniform(0.1, 1.0, size=(3, 8, 4, 4)))
    emb = losses.pool_for_contrast(maps, Tensor(np.asarray(3.0)))
    assert emb.shape == (3, 8)
    assert np.abs(np.linalg.norm(emb.data, axis=1) - 1.0).max() < 1e-6


# ---------------------------------------------------------------------------
# weighted total
# ---------------------------------------------------------------------------

def test_total_loss_weighted_sum():
    one = Tensor(np.asarray(1.0))
    total = losses.total_loss(one, one, one, losses.LossWeights())
    assert total.data.item() == pytest.approx(2.4, abs=1e-7)


def test_total_loss_zero_weights():
    one = Tensor(np.asarray(1.0))
    total = losses.total_loss(one, one, one, losses.LossWeights(0, 0, 0))
    assert total.data.item() == pytest.approx(0.0)


def test_total_loss_skips_absent_parts():
    one = Tensor(np.asarray(1.0))
    total = losses.total_loss(one, None, None, losses.LossWeights())
    assert total.data.item() == pytest.approx(0.1, abs=1e-8)


def test_total_loss_rejects_negative_weights():
    """Refused when the weights are built, before any loss is weighted."""
    with pytest.raises(ConfigError, match="lambda_ce must be at least 0"):
        losses.LossWeights(-0.1, 1.0, 1.3)


@pytest.mark.parametrize("weights", [(np.nan, 1.0, 1.3), (0.1, np.inf, 1.3),
                                     (0.1, 1.0, np.nan)])
def test_loss_weights_reject_non_finite(weights):
    with pytest.raises(ConfigError, match="must be a finite number"):
        losses.LossWeights(*weights)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_loss_gradients_match_finite_differences(rng):
    a = Parameter(unit_rows(rng, 4, 8), dtype=np.float64)
    b = Parameter(unit_rows(rng, 4, 8), dtype=np.float64)
    log_t = Parameter(np.asarray(np.log(0.3)), dtype=np.float64)
    logits = Parameter(rng.normal(size=(4, 3)), dtype=np.float64)
    labels = np.array([0, 1, 2, 0])
    weights = losses.LossWeights()

    def forward():
        an = ops.l2_normalize(a, axis=-1)
        bn = ops.l2_normalize(b, axis=-1)
        ce = losses.cross_entropy(logits, labels)
        nce = losses.info_nce(an, bn, log_t)
        dsa = losses.info_nce(an, bn, log_t)
        return losses.total_loss(ce, nce, dsa, weights)

    assert finite_difference(forward, [a, b, log_t, logits]) < 1e-4
