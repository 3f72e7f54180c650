"""Contracts for the backbone and the three branches."""

import numpy as np
import pytest

from sfde import ops, spectral
from sfde.autodiff import Tape, Tensor
from sfde.backbone import Backbone
from sfde.config import ModelConfig
from sfde.fsab import (ATTENTION_TOKEN_BUDGET, FrequencyInternals,
                       FrequencyStabilityBranch, coordinate_grid)
from sfde.gscb import GlobalSemanticBranch
from sfde.lgsb import LocalGeometricBranch


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

def toy_backbone_config(size=64, stage_channels=(4, 4, 8, 8)):
    """A 2x2 map (64 px) is too small for the local branch's pyramid."""
    return ModelConfig(stage_channels=stage_channels, blocks_per_stage=1,
                       input_size=size, use_lgsb=size >= 128)


def test_backbone_stride_32_shapes(rng):
    for size, spatial in [(64, 2), (128, 4)]:
        bb = Backbone(toy_backbone_config(size), rng)
        y = bb(Tensor(rng.normal(size=(2, 3, size, size)).astype(np.float32)))
        assert y.shape == (2, 8, spatial, spatial)


def test_backbone_weight_sharing_is_structural(rng):
    bb = Backbone(toy_backbone_config(), rng)
    img = rng.normal(size=(1, 3, 64, 64)).astype(np.float32)
    drone = bb(Tensor(img.copy()))
    satellite = bb(Tensor(img.copy()))
    assert np.array_equal(drone.data, satellite.data)


def test_backbone_output_varies(rng):
    bb = Backbone(toy_backbone_config(), rng)
    y = bb(Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32)))
    assert np.all(np.isfinite(y.data))
    assert y.data.std() > 0


def test_backbone_rejects_wrong_input(rng):
    bb = Backbone(toy_backbone_config(), rng)
    with pytest.raises(ops.ShapeError):
        bb(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    with pytest.raises(ops.ShapeError, match="not divisible by the total "
                                             "stride 32"):
        toy_backbone_config(60).validate()
    with pytest.raises(ops.ShapeError, match="needs exactly 4 stages, got 3"):
        toy_backbone_config(stage_channels=(4, 4, 8)).validate()


# ---------------------------------------------------------------------------
# global semantic branch
# ---------------------------------------------------------------------------

def test_gscb_spatial_permutation_invariance(rng):
    branch = GlobalSemanticBranch(8, 16, 5, rng, dtype=np.float64)
    f = rng.normal(size=(2, 8, 4, 4))
    base = branch(Tensor(f))
    perm = rng.permutation(16)
    shuffled = f.reshape(2, 8, 16)[:, :, perm].reshape(2, 8, 4, 4)
    out = branch(Tensor(shuffled))
    assert np.abs(out.embedding.data - base.embedding.data).max() < 1e-10
    assert np.abs(out.logits.data - base.logits.data).max() < 1e-10


def test_gscb_eval_mode_is_pure(rng):
    branch = GlobalSemanticBranch(8, 16, 5, rng)
    f = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
    a = branch(f, training=False)
    b = branch(f, training=False)
    assert np.array_equal(a.embedding.data, b.embedding.data)
    assert np.array_equal(a.logits.data, b.logits.data)


def test_gscb_without_classifier_omits_logits(rng):
    branch = GlobalSemanticBranch(8, 16, 0, rng)
    out = branch(Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32)))
    assert out.logits is None
    assert out.embedding.shape == (2, 16)


# ---------------------------------------------------------------------------
# local geometric branch
# ---------------------------------------------------------------------------

def test_lgsb_rejects_indivisible_channels(rng):
    with pytest.raises(ops.ShapeError):
        LocalGeometricBranch(6, rng)


def test_lgsb_multiscale_shapes(rng):
    branch = LocalGeometricBranch(8, rng)
    triple = branch.multiscale_split(
        Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32)))
    for m in triple:
        assert m.shape == (1, 2, 4, 4)


def test_lgsb_dilation3_stencil_offsets(rng):
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    conv = branch.scale_convs[2]
    x = np.zeros((1, 8, 9, 9))
    x[0, 0, 4, 4] = 1.0
    y = ops.conv2d(Tensor(x), conv.weight, None,
                   padding=3, dilation=3).data[0, 0]
    nz = np.argwhere(np.abs(y) > 1e-12)
    offsets = {tuple(p - 4) for p in nz}
    allowed = {(dy, dx) for dy in (-3, 0, 3) for dx in (-3, 0, 3)}
    assert offsets <= allowed
    assert len(offsets) > 1


def test_lgsb_fuse_identity_regardless_of_gate(rng):
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    for _ in range(100):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        out = branch.interaction_fuse(x, x, x, training=False)
        assert np.abs(out.data - (2.0 / 3.0) * x.data).max() < 1e-6


def test_lgsb_gate_half_with_zeroed_conv(rng):
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    branch.gate_conv.weight.data[...] = 0
    branch.gate_conv.bias.data[...] = 0
    fine = Tensor(rng.normal(size=(1, 2, 4, 4)))
    coarse = Tensor(rng.normal(size=(1, 2, 4, 4)))
    mid = Tensor(np.zeros((1, 2, 4, 4)))
    out = branch.interaction_fuse(fine, mid, coarse, training=False)
    expect = (0.5 * fine.data + 0.5 * coarse.data) / 3.0
    assert np.abs(out.data - expect).max() < 1e-6


def test_lgsb_pyramid_weights_uniform_at_init(rng):
    branch = LocalGeometricBranch(8, rng)
    w = branch.pyramid_weights().data
    assert np.allclose(w, 0.25, atol=1e-6)
    assert abs(w.sum() - 1.0) < 1e-6


def test_lgsb_pyramid_needs_4x4(rng):
    branch = LocalGeometricBranch(8, rng)
    with pytest.raises(ops.ShapeError):
        branch.pyramid_enhance(
            Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32)))


def test_lgsb_gem_p1_matches_average_pool(rng):
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    branch.gem_p.data = np.asarray(1.0)
    x = rng.uniform(0.1, 2.0, size=(2, 2, 4, 4))
    g = ops.gem_pool(Tensor(x), branch.gem_p)
    assert np.abs(g.data[..., 0, 0] - x.mean(axis=(-2, -1))).max() < 1e-6


def test_lgsb_output_shape_and_residual(rng):
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    f = Tensor(rng.normal(size=(2, 8, 4, 4)))
    out = branch(f)
    assert out.shape == (2, 8, 4, 4)
    assert np.all(np.isfinite(out.data))


def test_lgsb_residual_gradient_floor(rng):
    # zero the enhanced path: output = (0 + f)/2, so d(sum)/df = 0.5 >= 0.4
    branch = LocalGeometricBranch(8, rng, dtype=np.float64)
    branch.expand.weight.data[...] = 0
    branch.expand.bias.data[...] = 0
    from sfde.autodiff import Parameter
    f = Parameter(rng.normal(size=(1, 8, 4, 4)), dtype=np.float64)
    with Tape() as tape:
        loss = ops.sum_(branch(f))
    tape.backward(loss)
    assert np.all(f.grad >= 0.4)


# ---------------------------------------------------------------------------
# frequency stability branch
# ---------------------------------------------------------------------------

def test_coordinate_grid_corners_and_monotonicity():
    g = coordinate_grid(4, 3)
    assert g.shape == (2, 4, 3)
    assert g[0, 0, 0] == -1.0 and g[0, -1, 0] == 1.0
    assert g[1, 0, 0] == -1.0 and g[1, 0, -1] == 1.0
    assert np.all(np.diff(g[0, :, 0]) > 0)
    assert np.all(np.diff(g[1, 0, :]) > 0)
    assert np.allclose(coordinate_grid(1, 1), 0.0)


def test_fsab_identity_chain_with_pinned_gates(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    branch.pin_gates = True
    branch.disable_attention = True
    f = Tensor(rng.normal(size=(2, 8, 4, 4)))
    internals = FrequencyInternals()
    branch(f, internals=internals)
    path3 = internals.paths[2]
    assert np.abs(path3.data - f.data).max() < 1e-4


def test_fsab_gate_ranges_and_amplitude_bound(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    f = Tensor(rng.normal(size=(2, 8, 4, 4)))
    internals = FrequencyInternals()
    branch(f, internals=internals)
    gates = internals.gates
    assert np.all(gates.channel.data > 0) and np.all(gates.channel.data < 1)
    assert np.all(gates.spatial.data > 0) and np.all(gates.spatial.data < 1)
    assert np.all(gates.calibration.data > 0)
    assert np.all(internals.gated_amplitude.data >= 0)
    assert np.all(internals.fused_amplitude.data >= 0)
    bound = (gates.calibration.data * internals.amplitude.data)
    assert np.all(internals.gated_amplitude.data <= bound + 1e-10)


def test_fsab_phase_preserved_in_reconstruction(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    f = Tensor(rng.normal(size=(1, 8, 4, 4)))
    internals = FrequencyInternals()
    branch(f, internals=internals)
    phi = internals.phase.data
    assert np.all(phi > -np.pi - 1e-9) and np.all(phi <= np.pi + 1e-9)
    # recompute the spectrum of path 3 and compare where amplitude is nonzero
    s = spectral.rfft2(internals.paths[2])
    back_phi = spectral.phase(s).data
    mask = internals.gated_amplitude.data > 1e-6
    diff = np.angle(np.exp(1j * (back_phi - phi)))
    assert np.abs(diff[mask]).max() < 1e-5


def test_fsab_negative_amplitude_rejected(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    with pytest.raises(ops.ShapeError):
        branch.amplitude_gating(Tensor(np.full((1, 8, 4, 3), -1.0)))


def test_fsab_odd_width_rejected(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    with pytest.raises(ops.ShapeError):
        branch(Tensor(np.zeros((1, 8, 4, 5))))


def test_fsab_token_budget_enforced(rng):
    branch = FrequencyStabilityBranch(4, rng, heads=2, dtype=np.float64)
    too_many = np.zeros((1, 4, ATTENTION_TOKEN_BUDGET + 1, 3))
    with pytest.raises(ops.ShapeError):
        branch.spectral_attention(Tensor(too_many))


def test_fsab_attention_rows_sum_to_one(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    branch(Tensor(rng.normal(size=(1, 8, 4, 4))))
    rows = branch.attention.last_attention
    assert rows.shape[-2:] == (12, 12)  # H * W' = 4 * 3 tokens
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-6


def test_fsab_eval_mode_deterministic(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    f = Tensor(rng.normal(size=(2, 8, 4, 4)))
    a = branch(f, training=False)
    b = branch(f, training=False)
    assert np.array_equal(a.data, b.data)


def test_fsab_output_shape(rng):
    branch = FrequencyStabilityBranch(8, rng, heads=2, dtype=np.float64)
    out = branch(Tensor(rng.normal(size=(3, 8, 4, 4))))
    assert out.shape == (3, 8, 4, 4)
    assert np.all(np.isfinite(out.data))
