"""FFT kernels used by the spectral layer.

Power-of-two lengths go through an iterative radix-2 transform vectorised
over leading axes; other lengths fall back to a cached cos/sin matrix
product (the window sizes in play are tiny, so O(n^2) is fine there).

All transforms work on separate real/imaginary float64 planes.  The
one-sided helpers also expose the exact transposes of their linear maps,
which is what reverse-mode differentiation needs.

Conventions: the forward transform is sum_t x_t e^(-j 2 pi k t / n)
(unnormalised); ``irfft_onesided`` includes the 1/n factor so that it
inverts ``rfft_onesided`` on Hermitian-consistent inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@lru_cache(maxsize=None)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    rev.setflags(write=False)
    return rev


@lru_cache(maxsize=None)
def _dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n)
    theta = 2.0 * np.pi * np.outer(k, k) / n
    c, s = np.cos(theta), np.sin(theta)
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


def _fft_pow2(re: np.ndarray, im: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    n = re.shape[-1]
    order = _bit_reverse_indices(n)
    re = np.ascontiguousarray(re[..., order])
    im = np.ascontiguousarray(im[..., order])
    m = 2
    while m <= n:
        half = m // 2
        ang = sign * 2.0 * np.pi * np.arange(half) / m
        wr, wi = np.cos(ang), np.sin(ang)
        r = re.reshape(re.shape[:-1] + (n // m, m))
        i = im.reshape(im.shape[:-1] + (n // m, m))
        ur, ui = r[..., :half], i[..., :half]
        tr = r[..., half:] * wr - i[..., half:] * wi
        ti = r[..., half:] * wi + i[..., half:] * wr
        lo_r, lo_i = ur + tr, ui + ti
        hi_r, hi_i = ur - tr, ui - ti
        r[..., :half], r[..., half:] = lo_r, hi_r
        i[..., :half], i[..., half:] = lo_i, hi_i
        m <<= 1
    return re, im


def _fft_naive(re: np.ndarray, im: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    n = re.shape[-1]
    c, s = _dft_matrices(n)
    out_re = re @ c.T - sign * (im @ s.T)
    out_im = sign * (re @ s.T) + im @ c.T
    return out_re, out_im


def _fft(re: np.ndarray, im: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised DFT along the last axis with kernel e^(sign j 2 pi k t / n)."""
    n = re.shape[-1]
    if n == 1:
        return re.copy(), im.copy()
    if _is_pow2(n):
        return _fft_pow2(re, im, sign)
    return _fft_naive(re, im, sign)


def fft_complex(re, im, axis: int = -1, inverse: bool = False):
    """Unnormalised complex DFT along ``axis`` (e^{+j...} when inverse)."""
    re = np.moveaxis(np.asarray(re, dtype=np.float64), axis, -1)
    im = np.moveaxis(np.asarray(im, dtype=np.float64), axis, -1)
    out_re, out_im = _fft(re, im, 1 if inverse else -1)
    return np.moveaxis(out_re, -1, axis), np.moveaxis(out_im, -1, axis)


def onesided_bins(n: int) -> int:
    return n // 2 + 1


def rfft_onesided(x, axis: int = -1):
    """One-sided spectrum (n//2 + 1 bins) of a real signal."""
    x = np.asarray(x, dtype=np.float64)
    re, im = fft_complex(x, np.zeros_like(x), axis=axis)
    take = [slice(None)] * x.ndim
    take[axis] = slice(0, onesided_bins(x.shape[axis]))
    return re[tuple(take)], im[tuple(take)]


def irfft_onesided(re, im, n: int, axis: int = -1):
    """Real synthesis from one-sided coefficients, including the 1/n factor.

    Imaginary parts supplied at DC (and Nyquist for even n) cannot influence
    a real output; the map simply has zero response to them.
    """
    re = np.moveaxis(np.asarray(re, dtype=np.float64), axis, -1)
    im = np.moveaxis(np.asarray(im, dtype=np.float64), axis, -1)
    mirror = slice(n - onesided_bins(n), 0, -1)
    full_re = np.concatenate([re, re[..., mirror]], axis=-1)
    full_im = np.concatenate([im, -im[..., mirror]], axis=-1)
    out_re, _ = _fft(full_re, full_im, 1)
    return np.moveaxis(out_re / n, -1, axis)


def rfft_transpose(gre, gim, n: int, axis: int = -1):
    """Transpose of the rfft_onesided linear map, applied to cotangents."""
    gre = np.moveaxis(np.asarray(gre, dtype=np.float64), axis, -1)
    gim = np.moveaxis(np.asarray(gim, dtype=np.float64), axis, -1)
    bins = onesided_bins(n)
    ext = gre.shape[:-1] + (n - bins,)
    full_re = np.concatenate([gre, np.zeros(ext)], axis=-1)
    full_im = np.concatenate([gim, np.zeros(ext)], axis=-1)
    out_re, _ = _fft(full_re, full_im, 1)
    return np.moveaxis(out_re, -1, axis)


def irfft_transpose(g, n: int, axis: int = -1):
    """Transpose of the irfft_onesided linear map, applied to a cotangent."""
    g = np.moveaxis(np.asarray(g, dtype=np.float64), axis, -1)
    fre, fim = _fft(g, np.zeros_like(g), -1)
    bins = onesided_bins(n)
    scale = np.full(bins, 2.0 / n)
    scale[0] = 1.0 / n
    if n % 2 == 0:
        scale[-1] = 1.0 / n
    gre = fre[..., :bins] * scale
    gim = fim[..., :bins] * scale
    gim[..., 0] = 0.0
    if n % 2 == 0:
        gim[..., -1] = 0.0
    return np.moveaxis(gre, -1, axis), np.moveaxis(gim, -1, axis)
