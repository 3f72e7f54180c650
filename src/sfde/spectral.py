"""Real 2-D Fourier analysis/synthesis with amplitude/phase views.

Conventions (fixed by the test contract):
  - forward transform is unnormalized; the DC bin equals the sum of all
    spatial values,
  - the inverse carries the 1/(H*W) factor,
  - the half-width spectrum keeps W' = W//2 + 1 columns; the inverse
    enforces conjugate symmetry by construction (each interior column
    stands for itself and its conjugate mirror, and the output is the real
    part),
  - phase of a zero-amplitude bin is 0, and so is its gradient.

The DFT is separable, computed as matrix products with the n-point DFT
matrix F_n: the half spectrum is F_H @ x @ F_W[:, :W//2+1] and the inverse
is Re(conj(F_H) @ (half * colw) @ conj(F_W[:W//2+1])) / (H*W), where colw
counts each stored column's copies in the full spectrum. Each backward rule
is the other product (its adjoint). `dft2_naive`, the defining double sum,
checks them. Everything runs in complex128; outputs take the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, record
from .ops import ShapeError

# Test hook: selftest fault injection multiplies the inverse normalization by
# this factor to prove the round-trip property actually detects breakage.
_INVERSE_NORM_FUDGE = 1.0


# ---------------------------------------------------------------------------
# DFT matrices
# ---------------------------------------------------------------------------

def _dft_matrix(n):
    """Unnormalized DFT matrix F[j, k] = exp(-2*pi*i*j*k/n), complex128.

    Entries on a quarter turn (4*j*k a multiple of n) are set to exactly
    1, -i, -1 or i, so the DC and Nyquist bins of a real signal come out
    exactly real at every size instead of carrying rounding noise that can
    flip a negative bin's phase between +pi and -pi.
    """
    jk = np.outer(np.arange(n), np.arange(n)) % n
    f = np.exp(-2j * np.pi * jk / n)
    quarter = 4 * jk % n == 0
    f[quarter] = np.array([1, -1j, -1, 1j])[4 * jk[quarter] // n]
    return f


def _dft_pair(H, W):
    """F_H and the W//2 + 1 leading columns of F_W: the half spectrum of a
    real (..., H, W) signal x is F_H @ x @ F_W[:, :W//2+1]."""
    return _dft_matrix(H), _dft_matrix(W)[:, :W // 2 + 1]


def dft2_naive(x):
    """Brute-force O(N^2) full 2-D DFT of a real array (..., H, W).

    Independent oracle: direct evaluation of the defining double sum, used
    only by tests and the selftest suite.
    """
    x = np.asarray(x, dtype=np.float64)
    H, W = x.shape[-2], x.shape[-1]
    out = np.zeros(x.shape, dtype=np.complex128)
    for u in range(H):
        for v in range(W):
            ph = np.exp(-2j * np.pi * (u * np.arange(H)[:, None] / H
                                       + v * np.arange(W)[None, :] / W))
            out[..., u, v] = (x * ph).sum(axis=(-2, -1))
    return out


# ---------------------------------------------------------------------------
# half-width complex spectrum
# ---------------------------------------------------------------------------

@dataclass
class ComplexSpectrum:
    """Half-width spectrum of a real (..., H, W) signal: W' = W//2 + 1
    columns, stored as separate real and imaginary tensors."""
    real: Tensor
    imag: Tensor
    source_width: int

    def __post_init__(self):
        if self.real.shape != self.imag.shape:
            raise ShapeError("spectrum real/imag shape mismatch: "
                             f"{self.real.shape} vs {self.imag.shape}")
        wp = self.source_width // 2 + 1
        if self.real.shape[-1] != wp:
            raise ShapeError(
                f"spectrum has {self.real.shape[-1]} columns, expected "
                f"W//2+1 = {wp} for source width {self.source_width}")

    @property
    def shape(self):
        return self.real.shape


def rfft2(x: Tensor) -> ComplexSpectrum:
    """Unnormalized forward real 2-D DFT per channel. Requires even W."""
    H, W = x.shape[-2], x.shape[-1]
    if H < 2 or W < 2:
        raise ShapeError(f"rfft2 needs H, W >= 2, got {H}x{W}")
    if W % 2 != 0:
        raise ShapeError(f"rfft2 requires even width, got W={W} "
                         "(half-spectrum bookkeeping assumes W' = W/2 + 1)")
    fh, fw = _dft_pair(H, W)
    half = fh @ x.data @ fw
    re = Tensor(half.real.astype(x.dtype))
    im = Tensor(half.imag.astype(x.dtype))

    def bwd(gre, gim):
        gx = (fh.conj() @ (gre + 1j * gim) @ fw.conj().T).real
        return (gx.astype(x.dtype),)

    record([re, im], [x], bwd)
    return ComplexSpectrum(re, im, W)


def irfft2(s: ComplexSpectrum) -> Tensor:
    """Exact inverse of rfft2 including the 1/(H*W) normalization."""
    W = s.source_width
    H = s.real.shape[-2]
    norm = _INVERSE_NORM_FUDGE / (H * W)
    fh, fw = _dft_pair(H, W)
    colw = np.ones(W // 2 + 1)
    colw[1:(W + 1) // 2] = 2.0  # interior columns appear twice in the full grid
    half = (s.real.data + 1j * s.imag.data) * colw
    y = (fh.conj() @ half @ fw.conj().T).real * norm
    out = Tensor(y.astype(s.real.dtype))

    def bwd(g):
        G = fh @ g @ fw * (colw * norm)
        return (G.real.astype(s.real.dtype), G.imag.astype(s.imag.dtype))

    record([out], [s.real, s.imag], bwd)
    return out


# ---------------------------------------------------------------------------
# polar views
# ---------------------------------------------------------------------------

def amplitude(s: ComplexSpectrum) -> Tensor:
    """Per-bin modulus of the spectrum (>= 0)."""
    re, im = s.real, s.imag
    a = np.sqrt(re.data ** 2 + im.data ** 2)
    out = Tensor(a)
    safe = np.where(a > 0, a, 1.0)

    def bwd(g):
        return (g * re.data / safe, g * im.data / safe)

    record([out], [re, im], bwd)
    return out


def phase(s: ComplexSpectrum) -> Tensor:
    """Per-bin angle in (-pi, pi]; zero bins get phase 0 and zero gradient."""
    re, im = s.real, s.imag
    r2 = re.data ** 2 + im.data ** 2
    ang = np.arctan2(im.data, re.data)
    ang = np.where(ang == -np.pi, np.pi, ang)
    ang = np.where(r2 == 0, 0.0, ang)
    out = Tensor(ang.astype(re.dtype))
    safe = np.where(r2 > 0, r2, 1.0)
    zero = r2 == 0

    def bwd(g):
        gre = np.where(zero, 0.0, -g * im.data / safe)
        gim = np.where(zero, 0.0, g * re.data / safe)
        return (gre.astype(re.dtype), gim.astype(im.dtype))

    record([out], [re, im], bwd)
    return out


def polar_recompose(amp: Tensor, phi: Tensor, source_width: int) -> ComplexSpectrum:
    """Rebuild a complex spectrum from modulus and angle: A * e^{j*phi}."""
    if amp.shape != phi.shape:
        raise ShapeError(f"polar_recompose shape mismatch: {amp.shape} vs {phi.shape}")
    if np.any(amp.data < 0):
        raise ShapeError("polar_recompose requires non-negative amplitude")
    c, s_ = np.cos(phi.data), np.sin(phi.data)
    re = Tensor(amp.data * c)
    im = Tensor(amp.data * s_)

    def bwd(gre, gim):
        ga = gre * c + gim * s_
        gp = amp.data * (gim * c - gre * s_)
        return (ga, gp)

    record([re, im], [amp, phi], bwd)
    return ComplexSpectrum(re, im, source_width)
