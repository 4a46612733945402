"""Top-M spectral compression and its exact position-aware inverse.

Selection keeps, independently for every (batch sample, window, channel),
the M frequency bins with the largest magnitude-squared summed over the
embedding axis.  Kept indices are remembered so the padding step can put
coefficients back at their original bins, with zeros elsewhere.  Ties go to
the lower bin index, and kept indices are stored ascending, so runs are
deterministic across platforms.

Selection itself is non-differentiable routing: it is computed from the
forward values and frozen; gradients flow only through kept coefficients.
Both directions move whole E-length rows: a (B, p, bins, D, E) plane is
viewed as (B*p*bins*D, E) rows, and kept entry (b, i, m, d) is one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import CTensor, put_rows, split, stack, take_rows
from .errors import ConfigError, ContractError
from .spectral import SpectralWindows, StftPlan


@dataclass
class CompressedWindows:
    """Per-window compressed spectra (B, M, D, E) plus kept bin indices (B, M, D)."""

    windows: list[CTensor]
    indices: list[np.ndarray]
    bins_total: int
    plan: StftPlan

    @property
    def kept(self) -> int:
        return self.windows[0].shape[1]


def _rows(idx: np.ndarray, bins: int) -> np.ndarray:
    """Row numbers ((b*p + i)*bins + idx[b, i, m, d])*D + d of the kept bins
    (B, p, M, D) in a (B, p, bins, D, E) plane viewed as rows of E."""
    if idx.min() < 0 or idx.max() >= bins:
        raise ContractError(f"kept bin index out of range [0, {bins})")
    b, p, _, d = idx.shape
    return (np.arange(b * p).reshape(b, p, 1, 1) * bins + idx) * d + np.arange(d)


def top_m_select(s: SpectralWindows, m: int) -> CompressedWindows:
    """Keep the m highest-energy bins per (sample, window, channel)."""
    bins = s.bins
    if not 1 <= m <= bins:
        raise ConfigError(f"top-M must satisfy 1 <= M <= {bins}, got {m}")
    score = (s.re.data ** 2 + s.im.data ** 2).sum(axis=4)  # (B, p, bins, D)
    order = np.argsort(-score, axis=2, kind="stable")  # ties -> lower bin
    idx = np.sort(order[:, :, :m], axis=2)
    per_window = [(slice(None), i) for i in range(idx.shape[1])]
    rows = _rows(idx, score.shape[2])
    re = split(take_rows(s.re, rows), per_window)
    im = split(take_rows(s.im, rows), per_window)
    return CompressedWindows([CTensor(r, i) for r, i in zip(re, im)],
                             [idx[w] for w in per_window], bins, s.plan)


def position_aware_pad(c: CompressedWindows) -> SpectralWindows:
    """Restore kept coefficients to their original bins, zeros elsewhere."""
    idx = np.stack(c.indices, axis=1)  # (B, p, M, D)
    if idx.shape[2] != c.kept:
        raise ContractError(
            f"index set size {idx.shape[2]} != kept coefficients {c.kept}"
        )
    re = stack([w.re for w in c.windows], axis=1)
    im = stack([w.im for w in c.windows], axis=1)
    rows = _rows(idx, c.bins_total)
    shape = re.shape[:2] + (c.bins_total,) + re.shape[3:]
    return SpectralWindows(put_rows(re, rows, shape), put_rows(im, rows, shape), c.plan)
