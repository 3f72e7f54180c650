"""Fourier pair identities against a naive DFT oracle, plus polar views."""

import numpy as np
import pytest

from sfde import spectral
from sfde.autodiff import Tensor


def test_roundtrip_32bit(rng):
    worst = 0.0
    for _ in range(50):
        c, h, w = rng.integers(1, 4), rng.integers(2, 17), 2 * rng.integers(1, 9)
        x = rng.normal(size=(c, h, w)).astype(np.float32)
        y = spectral.irfft2(spectral.rfft2(Tensor(x)))
        worst = max(worst, float(np.abs(y.data - x).max()))
    assert worst < 1e-5


def test_roundtrip_64bit(rng):
    worst = 0.0
    for _ in range(50):
        c, h, w = rng.integers(1, 4), rng.integers(2, 17), 2 * rng.integers(1, 9)
        x = rng.normal(size=(c, h, w))
        y = spectral.irfft2(spectral.rfft2(Tensor(x)))
        worst = max(worst, float(np.abs(y.data - x).max()))
    assert worst < 1e-10


def test_dc_bin_equals_spatial_sum(rng):
    x = rng.normal(size=(3, 6, 8))
    s = spectral.rfft2(Tensor(x))
    assert np.abs(s.real.data[:, 0, 0] - x.sum(axis=(-2, -1))).max() < 1e-6
    assert np.abs(s.imag.data[:, 0, 0]).max() < 1e-6


def test_constant_image_is_pure_dc():
    x = np.full((1, 4, 6), 0.37)
    s = spectral.rfft2(Tensor(x))
    assert s.real.data[0, 0, 0] == pytest.approx(0.37 * 24, abs=1e-5)
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert np.abs(s.real.data[0][mask]).max() < 1e-5
    assert np.abs(s.imag.data).max() < 1e-5


def test_impulse_has_flat_spectrum():
    x = np.zeros((1, 4, 4))
    x[0, 0, 0] = 1.0
    s = spectral.rfft2(Tensor(x))
    assert np.abs(s.real.data - 1.0).max() < 1e-6
    assert np.abs(s.imag.data).max() < 1e-6


def test_half_width_bookkeeping():
    s = spectral.rfft2(Tensor(np.zeros((1, 8, 8))))
    assert s.real.shape == (1, 8, 5)
    assert s.source_width == 8


def test_odd_width_rejected():
    with pytest.raises(Exception):
        spectral.rfft2(Tensor(np.zeros((1, 4, 5))))


@pytest.mark.parametrize("h,w", [(8, 8), (4, 6), (5, 6), (7, 10)])
def test_matches_naive_dft(rng, h, w):
    x = rng.normal(size=(2, h, w))
    full = spectral.dft2_naive(x)
    half = spectral.rfft2(Tensor(x))
    got = half.real.data + 1j * half.imag.data
    assert np.abs(got - full[..., :w // 2 + 1]).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_dc_and_nyquist_bins_are_exactly_real(rng, n, dtype):
    x = rng.normal(size=(3, 5, n, n)).astype(dtype)
    s = spectral.rfft2(Tensor(x))
    for u, v in [(0, 0), (0, n // 2), (n // 2, 0), (n // 2, n // 2)]:
        assert np.all(s.imag.data[..., u, v] == 0), (u, v)


def test_parseval_with_symmetry_counting(rng):
    x = rng.normal(size=(1, 8, 8))
    s = spectral.rfft2(Tensor(x))
    power = s.real.data ** 2 + s.imag.data ** 2
    # interior half-spectrum columns stand in for their conjugate mirrors;
    # the DC and Nyquist columns appear once in the full spectrum
    weights = np.full(power.shape[-1], 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    total = (power * weights).sum()
    spatial = (x ** 2).sum()
    assert abs(total / 64.0 - spatial) < 1e-4 * abs(spatial)


def test_inverse_of_pure_dc_is_constant():
    re = np.zeros((1, 4, 3))
    re[0, 0, 0] = 0.5 * 16
    s = spectral.ComplexSpectrum(Tensor(re), Tensor(np.zeros_like(re)), 4)
    y = spectral.irfft2(s)
    assert np.allclose(y.data, 0.5, atol=1e-10)


def test_amplitude_phase_polar_roundtrip(rng):
    x = rng.normal(size=(2, 6, 8))
    s = spectral.rfft2(Tensor(x))
    amp = spectral.amplitude(s)
    phi = spectral.phase(s)
    assert np.all(amp.data >= 0)
    assert np.all(phi.data > -np.pi - 1e-9) and np.all(phi.data <= np.pi + 1e-9)
    back = spectral.polar_recompose(amp, phi, 8)
    assert np.abs(back.real.data - s.real.data).max() < 1e-5
    assert np.abs(back.imag.data - s.imag.data).max() < 1e-5


def test_polar_axis_cases():
    re = np.array([[[2.0, 0.0]]])
    im = np.array([[[0.0, 3.0]]])
    s = spectral.ComplexSpectrum(Tensor(re), Tensor(im), 2)
    assert np.allclose(spectral.amplitude(s).data, [[[2.0, 3.0]]])
    assert np.allclose(spectral.phase(s).data, [[[0.0, np.pi / 2]]])


def test_phase_of_zero_bin_is_zero():
    z = np.zeros((1, 2, 2))
    s = spectral.ComplexSpectrum(Tensor(z), Tensor(z.copy()), 2)
    assert np.allclose(spectral.phase(s).data, 0.0)


def test_negative_amplitude_rejected():
    a = Tensor(np.full((1, 2, 2), -1.0))
    phi = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        spectral.polar_recompose(a, phi, 2)


def test_corrupted_normalization_hook_breaks_roundtrip(rng):
    x = rng.normal(size=(1, 4, 4))
    old = spectral._INVERSE_NORM_FUDGE
    try:
        spectral._INVERSE_NORM_FUDGE = 1.01
        y = spectral.irfft2(spectral.rfft2(Tensor(x)))
        assert np.abs(y.data - x).max() > 1e-4
    finally:
        spectral._INVERSE_NORM_FUDGE = old
