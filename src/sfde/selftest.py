"""Built-in invariant suite: spectral identities, pooling properties, gate
behavior, autodiff gradient checks, and metric oracles. Prints one line per
property; nonzero exit on any failure.
"""

from __future__ import annotations

import numpy as np

from . import losses, ops, retrieval, spectral
from .autodiff import Parameter, Tape, Tensor
from .fsab import FrequencyStabilityBranch
from .lgsb import LocalGeometricBranch


def _check_fft_roundtrip(rng):
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.normal(size=(2, 8, 8)))
        y = spectral.irfft2(spectral.rfft2(x))
        worst = max(worst, float(np.abs(y.data - x.data).max()))
    return worst < 1e-10, f"max abs error {worst:.2e}"


def _check_dft_oracle(rng):
    x = rng.normal(size=(1, 8, 8))
    full = spectral.dft2_naive(x)
    half = spectral.rfft2(Tensor(x))
    err = np.abs(half.data - full[..., :5]).max()
    return err < 1e-6, f"max abs error {err:.2e}"


def _check_dc_and_impulse(rng):
    x = rng.normal(size=(1, 4, 4))
    s = spectral.rfft2(Tensor(x))
    dc_err = abs(float(s.data.real[0, 0, 0]) - x.sum())
    imp = np.zeros((1, 4, 4))
    imp[0, 0, 0] = 1.0
    si = spectral.rfft2(Tensor(imp))
    imp_err = max(np.abs(si.data.real - 1).max(), np.abs(si.data.imag).max())
    ok = dc_err < 1e-6 and imp_err < 1e-6
    return ok, f"dc err {dc_err:.2e}, impulse err {imp_err:.2e}"


def _check_gem(rng):
    x = Tensor(rng.uniform(0.1, 3.0, size=(3, 4, 4)))
    mean_err = np.abs(ops.gem_pool(x, 1.0).data[..., 0, 0]
                      - x.data.mean(axis=(-2, -1))).max()
    # generalized-mean bound: max * n^(-1/p) <= gem(p) <= max
    xmax = x.data.max(axis=(-2, -1))
    gap = float((xmax * (1.0 - 16 ** (-1.0 / 64.0))).max()) + 1e-9
    max_err = np.abs(ops.gem_pool(x, 64.0).data[..., 0, 0] - xmax).max()
    mono = all(float(ops.gem_pool(x, p1).data.sum())
               <= float(ops.gem_pool(x, p2).data.sum()) + 1e-9
               for p1, p2 in [(1, 2), (2, 4), (4, 16)])
    ok = mean_err < 1e-6 and max_err <= gap and mono
    return ok, f"p=1 err {mean_err:.2e}, p=64 err {max_err:.3f}, monotone {mono}"


def _check_gate_identity(rng):
    """Path 3 of a gated amplitude equal to the raw one (every gate at 1)
    recomposes the input's own spectrum, so it returns the input."""
    branch = FrequencyStabilityBranch(8, rng=np.random.default_rng(1),
                                      dtype=np.float64)
    f = Tensor(rng.normal(size=(1, 8, 4, 4)))
    spec = spectral.rfft2(f)
    amp = spectral.amplitude(spec)
    phi = spectral.phase(spec)
    _, _, path3 = branch.reconstruct_paths(f, amp, amp, phi)
    err = np.abs(path3.data - f.data).max()
    return err < 1e-4, f"path-3 identity err {err:.2e}"


def _check_fuse_identity(rng):
    branch = LocalGeometricBranch(8, rng=np.random.default_rng(2),
                                  dtype=np.float64)
    worst = 0.0
    for _ in range(10):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        out = branch.interaction_fuse(x, x, x, training=False)
        worst = max(worst, float(np.abs(out.data - 2.0 / 3.0 * x.data).max()))
    return worst < 1e-6, f"gate-independence err {worst:.2e}"


def _check_kernel_gradients(rng):
    """Central finite differences on a composite of the main kernels."""
    x = Parameter(rng.normal(size=(2, 4, 6, 6)), dtype=np.float64)
    w = Parameter(rng.normal(size=(4, 4, 3, 3)) * 0.3, dtype=np.float64)

    def forward():
        h = ops.conv2d(x, w, padding=1)
        h = ops.gelu(h)
        h = ops.adaptive_avg_pool(h, 3, 3)
        h = ops.bilinear_upsample(h, 6, 6)
        h = ops.gem_pool(ops.add_const(ops.sigmoid(h), 0.1), 3.0)
        return ops.sum_(h)

    for p in (x, w):
        p.zero_grad()
    with Tape() as tape:
        loss = forward()
    tape.backward(loss)
    worst = 0.0
    idx = [tuple(rng.integers(d) for d in x.shape) for _ in range(10)]
    for ix in idx:
        eps = 1e-6
        orig = x.data[ix]
        x.data[ix] = orig + eps
        up = float(forward().data)
        x.data[ix] = orig - eps
        dn = float(forward().data)
        x.data[ix] = orig
        fd = (up - dn) / (2 * eps)
        rel = abs(fd - x.grad[ix]) / max(abs(fd), abs(x.grad[ix]), 1e-8)
        worst = max(worst, rel)
    return worst < 1e-4, f"worst relative error {worst:.2e}"


def _check_metric_oracles(rng):
    ap1 = retrieval.average_precision(["a", "b", "c"], {"a"})
    ap3 = retrieval.average_precision(["x", "y", "a"], {"a"})
    ranked = ["r1", "x", "x", "r2"] + ["x"] * 6
    ap14 = retrieval.average_precision(ranked, {"r1", "r2"})
    ok = (abs(ap1 - 1.0) < 1e-12 and abs(ap3 - 1 / 3) < 1e-12
          and abs(ap14 - 0.75) < 1e-12)
    return ok, f"AP hand cases: {ap1:.3f}, {ap3:.3f}, {ap14:.3f}"


def _check_loss_scalars(rng):
    ce = losses.cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]))
    err1 = abs(float(ce.data) - np.log(2))
    d = Tensor(np.eye(2))
    nce = losses.info_nce(d, d, 1.0)
    err2 = abs(float(nce.data) - np.log(1 + np.exp(-1)))
    ok = err1 < 1e-9 and err2 < 1e-6
    return ok, f"CE err {err1:.2e}, InfoNCE err {err2:.2e}"


PROPERTIES = [
    ("fft-round-trip", _check_fft_roundtrip),
    ("fft-dft-oracle", _check_dft_oracle),
    ("fft-dc-impulse", _check_dc_and_impulse),
    ("gem-pooling", _check_gem),
    ("frequency-gate-identity", _check_gate_identity),
    ("scale-fuse-identity", _check_fuse_identity),
    ("kernel-gradients", _check_kernel_gradients),
    ("metric-oracles", _check_metric_oracles),
    ("loss-scalars", _check_loss_scalars),
]


def run(seed=0):
    """Print a line per property; returns the failures (empty = success)."""
    failures = []
    for name, check in PROPERTIES:
        ok, detail = check(np.random.default_rng(seed))
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28} {detail}")
        if not ok:
            failures.append(name)
    return failures
