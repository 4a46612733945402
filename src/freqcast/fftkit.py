"""One-sided real DFT kernels used by the spectral layer.

Each length n has one cached, read-only operator pair: ``fwd`` (n x 2*bins)
maps a real signal to its stacked [re | im] one-sided spectrum, and ``inv``
(2*bins x n) maps such a spectrum back to a real signal.  Each kernel applies
one of them, or its transpose, to one axis of its input as a left-multiply
over the flattened leading axes: the input is viewed as (lead, n, trail) and
``op.T @ x`` is one stacked product with the output already in place, so no
axis is moved.  The transposes are what reverse-mode differentiation needs.

Conventions: the forward transform is sum_t x_t e^(-j 2 pi k t / n)
(unnormalised); ``irfft_onesided`` includes the 1/n factor so that it
inverts ``rfft_onesided`` on Hermitian-consistent inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def onesided_bins(n: int) -> int:
    return n // 2 + 1


@lru_cache(maxsize=None)
def _operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (fwd, inv) operator pair for length n."""
    t, k = np.arange(n), np.arange(onesided_bins(n))
    # reducing k*t mod n in integers keeps every angle below 2 pi, so cos and
    # sin lose no precision to large arguments
    angle = (2.0 * np.pi / n) * (np.outer(t, k) % n)
    cos, sin = np.cos(angle), np.sin(angle)
    # DC (angle 0) is exact; at even-n Nyquist sin(pi) would leak ~1e-16 into imag
    sin[:, 2 * k == n] = 0.0
    # synthesis weights: each bin but DC and Nyquist also stands for its mirror
    weight = np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n
    fwd = np.concatenate([cos, -sin], axis=1)
    inv = np.concatenate([cos.T, -sin.T], axis=0) * np.tile(weight, 2)[:, None]
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


def _on_axis(op: np.ndarray, axis: int, *planes) -> np.ndarray:
    """Concatenate ``planes`` along ``axis``, then multiply that axis by ``op``."""
    planes = [np.asarray(p, dtype=np.float64) for p in planes]
    x = planes[0] if len(planes) == 1 else np.concatenate(planes, axis=axis)
    axis %= x.ndim
    n, m = op.shape
    out_shape = x.shape[:axis] + (m,) + x.shape[axis + 1:]
    trail = int(np.prod(x.shape[axis + 1:]))
    return (op.T @ x.reshape(-1, n, trail)).reshape(out_shape)


def rfft_onesided(x, axis: int = -1):
    """One-sided spectrum (n//2 + 1 bins) of a real signal."""
    fwd, _ = _operators(np.shape(x)[axis])
    return tuple(np.split(_on_axis(fwd, axis, x), 2, axis=axis))


def irfft_onesided(re, im, n: int, axis: int = -1):
    """Real synthesis from one-sided coefficients, including the 1/n factor.

    Imaginary parts supplied at DC (and Nyquist for even n) cannot influence
    a real output; the map simply has zero response to them.
    """
    return _on_axis(_operators(n)[1], axis, re, im)


def rfft_transpose(gre, gim, n: int, axis: int = -1):
    """Transpose of the rfft_onesided linear map, applied to cotangents."""
    return _on_axis(_operators(n)[0].T, axis, gre, gim)


def irfft_transpose(g, n: int, axis: int = -1):
    """Transpose of the irfft_onesided linear map, applied to a cotangent."""
    return tuple(np.split(_on_axis(_operators(n)[1].T, axis, g), 2, axis=axis))
