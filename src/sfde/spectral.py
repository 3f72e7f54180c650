"""Real 2-D Fourier analysis/synthesis with amplitude/phase views.

Conventions (fixed by the test contract):
  - forward transform is unnormalized; the DC bin equals the sum of all
    spatial values,
  - the inverse carries the 1/(H*W) factor,
  - the half-width spectrum is one complex tensor at the input's precision
    (complex64 for float32, complex128 for float64) with W' = W//2 + 1
    columns; W is even, so the inverse reads it back as W = 2(W' - 1),
  - the inverse enforces conjugate symmetry by construction (each interior
    column stands for itself and its conjugate mirror, and the output is the
    real part),
  - phase of a zero-amplitude bin is 0, and so is its gradient.

The DFT is separable, computed as matrix products with the n-point DFT
matrix F_n: the half spectrum is F_H @ x @ F_W[:, :W//2+1] and the inverse
is Re(conj(F_H) @ (half * colw) @ conj(F_W[:W//2+1])) / (H*W), where colw
counts each stored column's copies in the full spectrum. Each backward rule
is the other product (its adjoint). `dft2_naive`, the defining double sum,
checks them. The products run in complex128 and are rounded once to the
input's precision.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record
from .ops import ShapeError


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

def _complex(re, im):
    """re + i*im at the parts' precision, set part by part: the expression
    re + 1j*im can flip the sign of a zero part."""
    out = np.empty(re.shape, np.result_type(re, im, np.complex64))
    out.real = re
    out.imag = im
    return out


def rfft2(x: Tensor) -> Tensor:
    """Unnormalized forward real 2-D DFT per channel: the (..., H, W//2 + 1)
    half spectrum, complex at x's precision. Requires even W."""
    H, W = x.shape[-2], x.shape[-1]
    if H < 2 or W < 2:
        raise ShapeError(f"rfft2 needs H, W >= 2, got {H}x{W}")
    if W % 2 != 0:
        raise ShapeError(f"rfft2 requires even width, got W={W} "
                         "(half-spectrum bookkeeping assumes W' = W/2 + 1)")
    fh, fw = _dft_pair(H, W)
    half = fh @ x.data @ fw
    out = Tensor(half.astype(np.result_type(x.dtype, np.complex64)))

    def bwd(g):
        gx = (fh.conj() @ g @ fw.conj().T).real
        return (gx.astype(x.dtype),)

    record(out, [x], bwd)
    return out


def irfft2(s: Tensor) -> Tensor:
    """Exact inverse of rfft2 including the 1/(H*W) normalization. A half
    spectrum of W' columns comes from a signal of even width W = 2(W' - 1)."""
    H, wp = s.shape[-2], s.shape[-1]
    if wp < 2:
        raise ShapeError(f"irfft2 needs W' >= 2 spectrum columns, got {wp}")
    W = 2 * (wp - 1)
    norm = 1.0 / (H * W)
    fh, fw = _dft_pair(H, W)
    colw = np.ones(wp)
    colw[1:-1] = 2.0  # interior columns appear twice in the full grid
    y = (fh.conj() @ (s.data * colw) @ fw.conj().T).real * norm
    out = Tensor(y.astype(s.data.real.dtype))

    def bwd(g):
        G = fh @ g @ fw * (colw * norm)
        return (G.astype(s.dtype),)

    record(out, [s], bwd)
    return out


# ---------------------------------------------------------------------------
# polar views
# ---------------------------------------------------------------------------

def amplitude(s: Tensor) -> Tensor:
    """Per-bin modulus of the spectrum (>= 0)."""
    re, im = s.data.real, s.data.imag
    a = np.sqrt(re ** 2 + im ** 2)
    out = Tensor(a)
    safe = np.where(a > 0, a, 1.0)

    def bwd(g):
        return (_complex(g * re / safe, g * im / safe),)

    record(out, [s], bwd)
    return out


def phase(s: Tensor) -> Tensor:
    """Per-bin angle in (-pi, pi]; zero bins get phase 0 and zero gradient."""
    re, im = s.data.real, s.data.imag
    r2 = re ** 2 + im ** 2
    ang = np.arctan2(im, re)
    ang = np.where(ang == -np.pi, np.pi, ang)
    ang = np.where(r2 == 0, 0.0, ang)
    out = Tensor(ang.astype(re.dtype))
    safe = np.where(r2 > 0, r2, 1.0)
    zero = r2 == 0

    def bwd(g):
        gre = np.where(zero, 0.0, -g * im / safe)
        gim = np.where(zero, 0.0, g * re / safe)
        return (_complex(gre, gim).astype(s.dtype, copy=False),)

    record(out, [s], bwd)
    return out


def polar_recompose(amp: Tensor, phi: Tensor) -> Tensor:
    """Rebuild a complex spectrum from modulus and angle: A * e^{j*phi}."""
    if amp.shape != phi.shape:
        raise ShapeError(f"polar_recompose shape mismatch: {amp.shape} vs {phi.shape}")
    if np.any(amp.data < 0):
        raise ShapeError("polar_recompose requires non-negative amplitude")
    c, s_ = np.cos(phi.data), np.sin(phi.data)
    out = Tensor(_complex(amp.data * c, amp.data * s_))

    def bwd(g):
        gre, gim = g.real, g.imag
        ga = gre * c + gim * s_
        gp = amp.data * (gim * c - gre * s_)
        return (ga, gp)

    record(out, [amp, phi], bwd)
    return out
