from types import SimpleNamespace

import numpy as np
import pytest

from sfde import data, spectral
from sfde.autodiff import Parameter, Tape


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """8 paired-view classes (2 drone + 1 satellite each), written once."""
    root = str(tmp_path_factory.mktemp("synth") / "data")
    manifest = data.generate_synthetic_dataset(
        root, num_classes=8, drone_per_class=2, satellite_per_class=1,
        size=64, seed=0)
    return root, manifest


def finite_difference(forward, params, eps=1e-5, samples_per_param=6,
                      rng=None):
    """Worst relative error between taped gradients and central differences.

    `forward` must rebuild the scalar loss from scratch on every call so the
    parameter mutation is visible. All params must be float64.
    """
    rng = rng or np.random.default_rng(123)
    for p in params:
        assert p.dtype == np.float64, "gradient checks need 64-bit parameters"
        p.zero_grad()
    with Tape() as tape:
        loss = forward()
    tape.backward(loss)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        n = flat.size
        picks = (range(n) if n <= samples_per_param
                 else rng.choice(n, size=samples_per_param, replace=False))
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            up = float(forward().data)
            flat[i] = orig - eps
            down = float(forward().data)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def make_param(rng, shape, scale=1.0):
    return Parameter(rng.normal(size=shape) * scale, dtype=np.float64)


def fsab_stages(branch, f, training=False):
    """Every intermediate of a frequency-branch forward pass, from its public
    stages composed in the branch's own order (the fusion layers excluded)."""
    spec = spectral.rfft2(f)
    amp = spectral.amplitude(spec)
    phi = spectral.phase(spec)
    gated, gates = branch.amplitude_gating(amp)
    q = branch.ampphase_encode(gated, phi, training)
    fused = branch.gated_fusion(branch.spectral_attention(q), gated)
    paths = branch.reconstruct_paths(f, fused, gated, phi)
    return SimpleNamespace(amplitude=amp, phase=phi, gates=gates,
                           gated_amplitude=gated, fused_amplitude=fused,
                           paths=paths)
