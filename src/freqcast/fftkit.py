"""One-sided real DFT kernels used by the spectral layer.

Each length n has one cached, read-only operator pair: ``fwd`` (n x 2*bins)
maps a real signal to its stacked [re | im] one-sided spectrum, and ``inv``
(2*bins x n) maps such a spectrum back to a real signal.  Each kernel applies
one of them, or its transpose, to one axis of its input as a left-multiply
over the flattened leading axes: the input is viewed as (lead, n, trail) and
``op.T @ x`` is one stacked product with the output already in place, so no
axis is moved.  The transposes are what reverse-mode differentiation needs.

The synthesis pair also takes spectra in kept form: M of the bins per
position, named by an ``index`` shaped like the planes without their last
axis.  For each position they gather the 2M ``inv`` rows those bins select,
one contiguous row each, and run one batched product over the positions, so
only kept bins cost flops.  Both operands are views with the transformed
axis moved next to the last, so each position's (n, E) block is read and
written where it lies: a strided cotangent, such as the channel-major skip
gradient or overlapping frames, is never copied.  The rows are gathered for
a block of the leading axis at a time, at most ``GATHER_VALUES`` values.

Conventions: the forward transform is sum_t x_t e^(-j 2 pi k t / n)
(unnormalised); ``irfft_onesided`` includes the 1/n factor so that it
inverts ``rfft_onesided`` on Hermitian-consistent inputs.
"""

from __future__ import annotations

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


def check_kept_index(index, shape, n: int, axis: int) -> None:
    """Refuse a kept-bin ``index`` that does not name axis-``axis`` bins of
    length-n spectra in planes of ``shape``: numpy would raise a bare
    IndexError past the last bin and wrap a negative one silently."""
    axis %= len(shape)
    if np.shape(index) != tuple(shape[:-1]) or axis == len(shape) - 1:
        raise ContractError(f"kept bin index of shape {np.shape(index)} does not name the "
                            f"axis-{axis} bins of planes shaped {tuple(shape)}")
    bins = onesided_bins(n)
    if np.size(index) and (np.min(index) < 0 or np.max(index) >= bins):
        raise ContractError(f"kept bin index out of range [0, {bins})")


def _kept_rows(index, shape, n: int, axis: int) -> np.ndarray:
    """The 2M ``inv`` row numbers each position of planes of ``shape`` keeps,
    laid out as ``_moved`` lays out the planes: (lead, ..., 2M)."""
    check_kept_index(index, shape, n, axis)
    rows = np.moveaxis(index, axis, -1)
    rows = rows.reshape((1,) * (2 - rows.ndim) + rows.shape)
    return np.concatenate([rows, rows + onesided_bins(n)], axis=-1)


def _moved(a: np.ndarray, axis: int) -> np.ndarray:
    """A view of a with ``axis`` next to the last, over at least one leading
    axis: (lead, ..., n, E).  Its (n, E) blocks keep a's strides."""
    a = np.moveaxis(a, axis, -2)
    return a.reshape((1,) * (3 - a.ndim) + a.shape)


def _gathered(rows: np.ndarray, n: int):
    """(positions, rows) for each block of leading positions: a slice of the
    lead axis and the ``inv`` rows ``rows`` names there, (block, ..., 2M, n)."""
    inv = _operators(n)[1]
    step = max(1, GATHER_VALUES // max(1, int(np.prod(rows.shape[1:])) * n))
    for lo in range(0, len(rows), step):
        yield slice(lo, lo + step), np.take(inv, rows[lo:lo + step], axis=0)


def irfft_onesided(re, im, n: int, axis: int = -1, index=None):
    """Real synthesis from one-sided coefficients, including the 1/n factor.

    Imaginary parts supplied at DC (and Nyquist for even n) cannot influence
    a real output; the map simply has zero response to them.  With ``index``
    the planes hold only the bins it names along ``axis`` (see the module
    docstring); ``None`` means every bin, in order.
    """
    if index is None:
        return _on_axis(_operators(n)[1], axis, re, im)
    shape = np.shape(re)
    rows = _kept_rows(index, shape, n, axis)
    axis %= len(shape)
    # the planes may be strided views: each is copied once, into its half
    x = np.concatenate([re, im], axis=axis)
    out = np.empty(shape[:axis] + (n,) + shape[axis + 1:])
    xm, om = _moved(x, axis), _moved(out, axis)
    for at, block in _gathered(rows, n):
        np.matmul(block.swapaxes(-1, -2), xm[at], out=om[at])
    return out


def rfft_transpose(gre, gim, n: int, axis: int = -1):
    """Transpose of the rfft_onesided linear map, applied to cotangents.  Analysis
    takes its input as data, so no op calls it; the bench's probe wraps it by name."""
    return _on_axis(_operators(n)[0].T, axis, gre, gim)


def irfft_transpose(g, n: int, axis: int = -1, index=None):
    """Transpose of the irfft_onesided linear map, applied to a cotangent.

    With ``index`` it returns cotangents for the kept bins only, re-gathering
    the operator rows rather than keeping them from the forward.
    """
    if index is None:
        return tuple(np.split(_on_axis(_operators(n)[1].T, axis, g), 2, axis=axis))
    axis %= np.ndim(g)
    shape = np.shape(g)[:axis] + np.shape(index)[axis:axis + 1] + np.shape(g)[axis + 1:]
    rows = _kept_rows(index, shape, n, axis)
    out = np.empty(shape[:axis] + (2 * shape[axis],) + shape[axis + 1:])
    gm, om = _moved(g, axis), _moved(out, axis)
    for at, block in _gathered(rows, n):
        np.matmul(block, gm[at], out=om[at])
    return tuple(np.split(out, 2, axis=axis))
