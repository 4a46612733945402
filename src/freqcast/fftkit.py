"""One-sided real DFT kernels used by the spectral layer.

Each length n has one cached, read-only operator pair: ``fwd`` (n x 2*bins)
maps a real signal to its stacked [re | im] one-sided spectrum, and ``inv``
(2*bins x n) maps such a spectrum back to a real signal.  A spectrum holds
its planes on an axis of length 2 (0 real, 1 imaginary) just before its bin
axis: that is the [re | im] order, so no kernel splits or joins planes.
Each kernel applies one operator, or its transpose, to one axis of its
input as a left-multiply over the flattened leading axes: the input is
viewed as (lead, n, trail) and ``op.T @ x`` is one stacked product with the
output already in place, so no axis is moved.  The transposes are what
reverse-mode differentiation needs.

The synthesis pair also takes spectra in kept form: M of the bins per
position, named by an ``index`` shaped like the spectrum without its plane
axis and its last axis.  For each position they gather the 2M ``inv`` rows
those bins select, one contiguous row each, and run one batched product
over the positions, so only kept bins cost flops.  Both operands are views
with the transformed axis moved next to the last, so each position's (n, E)
block is read and written where it lies: a strided cotangent, such as the
channel-major skip gradient or overlapping frames, is never copied, and
synthesis writes into the caller's ``out``, in whatever memory order the
caller allocated it (``spectral.istft`` gives channel-major frames, whose
(n, E) blocks are contiguous).  The rows are gathered for a block of the
leading axis at a time, at most ``GATHER_VALUES`` values.

Conventions: the forward transform is sum_t x_t e^(-j 2 pi k t / n)
(unnormalised); ``irfft_onesided`` includes the 1/n factor so that it
inverts ``rfft_onesided`` on Hermitian-consistent inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContractError


# the most float64 values (1 MiB) of ``inv`` rows a kept-bin product gathers at
# once; a block is always at least one leading position
GATHER_VALUES = 2**17


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


def _on_axis(op: np.ndarray, x, axis: int, width: int, out: tuple[int, ...]) -> np.ndarray:
    """Multiply by ``op`` the ``width`` axes of x from ``axis`` on, which hold
    its op.shape[0] values; they become the axes ``out``."""
    x = np.asarray(x, dtype=np.float64)
    lead, trail = x.shape[:axis], x.shape[axis + width:]
    x = x.reshape(-1, op.shape[0], math.prod(trail))
    return (op.T @ x).reshape(lead + out + trail)


def rfft_onesided(x, axis: int = -1):
    """One-sided spectrum (n//2 + 1 bins) of a real signal: axis ``axis`` of
    length n becomes the plane axis and the bin axis (2, bins)."""
    axis %= np.ndim(x)
    n = np.shape(x)[axis]
    return _on_axis(_operators(n)[0], x, axis, 1, (2, onesided_bins(n)))


def check_kept_index(index, shape, n: int, axis: int) -> None:
    """Refuse a kept-bin ``index`` that does not name the bins of length-n
    spectra shaped ``shape``, whose plane axis is ``axis``: numpy would raise
    a bare IndexError past the last bin and wrap a negative one silently."""
    want = tuple(shape[:axis]) + tuple(shape[axis + 1:-1])
    if np.shape(index) != want or axis + 1 >= len(shape) - 1 or shape[axis] != 2:
        raise ContractError(f"kept bin index of shape {np.shape(index)} does not name the "
                            f"axis-{axis + 1} bins of spectra shaped {tuple(shape)}")
    bins = onesided_bins(n)
    if np.size(index) and (np.min(index) < 0 or np.max(index) >= bins):
        raise ContractError(f"kept bin index out of range [0, {bins})")


def _kept_rows(index, shape, n: int, axis: int) -> np.ndarray:
    """The 2M ``inv`` row numbers each position of spectra of ``shape`` keeps,
    the real rows then the imaginary, laid out as ``_moved`` lays out the
    spectra: (lead, ..., 2M)."""
    check_kept_index(index, shape, n, axis)
    rows = np.moveaxis(index, axis, -1)[..., None, :] + np.array([[0], [onesided_bins(n)]])
    rows = rows.reshape(rows.shape[:-2] + (-1,))
    return rows.reshape((1,) * (2 - rows.ndim) + rows.shape)


def _moved(a: np.ndarray, axis: int, width: int = 1) -> np.ndarray:
    """a with its ``width`` axes from ``axis`` on as one axis next to the last,
    over at least one leading axis: (lead, ..., n, E).  A view whose (n, E)
    blocks keep a's strides, unless a spectrum's (2, M) axes cannot be
    merged in place (a strided view of them): those are copied once."""
    a = np.reshape(a, a.shape[:axis] + (math.prod(a.shape[axis:axis + width]),)
                   + a.shape[axis + width:])
    a = np.moveaxis(a, axis, -2)
    return a.reshape((1,) * (3 - a.ndim) + a.shape)


def _gathered(rows: np.ndarray, n: int):
    """(positions, rows) for each block of leading positions: a slice of the
    lead axis and the ``inv`` rows ``rows`` names there, (block, ..., 2M, n)."""
    inv = _operators(n)[1]
    step = max(1, GATHER_VALUES // max(1, int(np.prod(rows.shape[1:])) * n))
    for lo in range(0, len(rows), step):
        yield slice(lo, lo + step), np.take(inv, rows[lo:lo + step], axis=0)


def irfft_onesided(x, n: int, axis: int = -1, index=None, out=None):
    """Real synthesis from a one-sided spectrum, including the 1/n factor: the
    plane axis ``axis`` and the bin axis after it become one axis of length n.

    Imaginary parts supplied at DC (and Nyquist for even n) cannot influence
    a real output; the map simply has zero response to them.  With ``index``
    the spectrum holds only the bins it names (see the module docstring);
    ``None`` means every bin, in order.  The result is written into ``out``
    (the output's shape, any strides) when one is given.
    """
    shape = np.shape(x)
    axis %= len(shape) - 1
    out = np.empty(shape[:axis] + (n,) + shape[axis + 2:]) if out is None else out
    if index is None:
        out[...] = _on_axis(_operators(n)[1], x, axis, 2, (n,))
        return out
    rows = _kept_rows(index, shape, n, axis)
    xm, om = _moved(np.asarray(x), axis, 2), _moved(out, axis)
    for at, block in _gathered(rows, n):
        np.matmul(block.swapaxes(-1, -2), xm[at], out=om[at])
    return out


def rfft_transpose(g, n: int, axis: int = -1):
    """Transpose of the rfft_onesided linear map, applied to a cotangent
    spectrum.  Analysis takes its input as data, so no op calls it; the
    bench's probe wraps it by name."""
    return _on_axis(_operators(n)[0].T, g, axis % (np.ndim(g) - 1), 2, (n,))


def irfft_transpose(g, n: int, axis: int = -1, index=None):
    """Transpose of the irfft_onesided linear map, applied to a cotangent: a
    spectrum with its plane axis at ``axis``.

    With ``index`` it returns cotangents for the kept bins only, re-gathering
    the operator rows rather than keeping them from the forward.
    """
    axis %= np.ndim(g)
    if index is None:
        return _on_axis(_operators(n)[1].T, g, axis, 1, (2, onesided_bins(n)))
    m = np.shape(index)[axis]
    shape = np.shape(g)[:axis] + (2, m) + np.shape(g)[axis + 1:]
    rows = _kept_rows(index, shape, n, axis)
    out = np.empty(shape)
    gm, om = _moved(np.asarray(g), axis), _moved(out, axis, 2)
    for at, block in _gathered(rows, n):
        np.matmul(block, gm[at], out=om[at])
    return out
