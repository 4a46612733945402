"""Top-M spectral compression and its exact position-aware inverse.

Selection keeps, independently for every (batch sample, window, channel),
the M frequency bins with the largest magnitude-squared summed over the
embedding axis.  Kept indices are remembered so the padding step can hand
coefficients back with their original bins: it stacks the kept windows and
carries the indices, and synthesis reads the kept bins where they are, so
the zero bins are never built.  Ties go to the lower bin index, and kept
indices are stored ascending, so runs are deterministic across platforms.

Selection itself is non-differentiable routing: it is computed from the
forward values and frozen; gradients flow only through kept coefficients.
The gather moves whole E-length rows: a (B, p, bins, D, E) plane is viewed
as (B*p*bins*D, E) rows, and kept entry (b, i, m, d) is one row.  The same
rows of the lift's (..., K) coefficient planes, when the spectra carry
them, are the factors of the kept entries.  Those planes also give the
score without touching the E axis: with c the coefficients and G the K x K
Gram matrix of the basis, sum_e plane_e^2 == sum_jk G_jk c_j c_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import CTensor, split, stack, take_rows
from .errors import ConfigError, ContractError
from .spectral import LiftFactors, SpectralWindows, StftPlan


@dataclass
class CompressedWindows:
    """Per-window compressed spectra (B, M, D, E) plus kept bin indices (B, M, D).

    ``factors``, when given, writes the p windows stacked on axis 1 as
    (B, p, M, D, K) coefficients times a (K, E) basis: the kept rows of the
    analysis's own factors.
    """

    windows: list[CTensor]
    indices: list[np.ndarray]
    bins_total: int
    plan: StftPlan
    factors: LiftFactors | None = None

    @property
    def kept(self) -> int:
        return self.windows[0].shape[1]


def _rows(idx: np.ndarray, bins: int) -> np.ndarray:
    """Row numbers ((b*p + i)*bins + idx[b, i, m, d])*D + d of the kept bins
    (B, p, M, D) in a (B, p, bins, D, E) plane viewed as rows of E."""
    b, p, _, d = idx.shape
    return (np.arange(b * p).reshape(b, p, 1, 1) * bins + idx) * d + np.arange(d)


def _score(s: SpectralWindows) -> np.ndarray:
    """Magnitude squared summed over E, (B, p, bins, D); from the factors when
    the spectra carry them, one elementwise term per pair of coefficient
    columns (a stacked (..., K) @ (K, K) product runs one GEMM per row)."""
    f = s.factors
    if f is None:
        return (s.re.data ** 2 + s.im.data ** 2).sum(axis=4)
    gram = f.basis @ f.basis.T
    score = np.zeros(f.re.shape[:-1])
    for j, l in zip(*np.triu_indices(len(gram))):
        term = f.re[..., j] * f.re[..., l]
        term += f.im[..., j] * f.im[..., l]
        term *= gram[j, l] if j == l else 2.0 * gram[j, l]
        score += term
    return score


def check_top_m(m: int, plan: StftPlan) -> None:
    if not 1 <= m <= plan.bins:
        raise ConfigError(f"top_m must be in [1, {plan.bins}] for nfft={plan.nfft}, got {m}")


def top_m_select(s: SpectralWindows, m: int) -> CompressedWindows:
    """Keep the m highest-energy bins per (sample, window, channel)."""
    if s.index is not None:
        raise ContractError("top_m_select needs every bin of the spectra; got a kept-form "
                            f"spectrum of {s.re.shape[2]} bins per window")
    check_top_m(m, s.plan)
    score = _score(s)  # (B, p, bins, D)
    order = np.argsort(-score, axis=2, kind="stable")  # ties -> lower bin
    idx = np.sort(order[:, :, :m], axis=2)
    per_window = [(slice(None), i) for i in range(idx.shape[1])]
    rows = _rows(idx, score.shape[2])
    re = split(take_rows(s.re, rows), per_window)
    im = split(take_rows(s.im, rows), per_window)
    f = s.factors
    if f is not None:
        k = f.basis.shape[0]
        f = LiftFactors(np.take(f.re.reshape(-1, k), rows, axis=0),
                        np.take(f.im.reshape(-1, k), rows, axis=0), f.basis)
    return CompressedWindows([CTensor(r, i) for r, i in zip(re, im)],
                             [idx[w] for w in per_window], s.bins, s.plan, f)


def position_aware_pad(c: CompressedWindows) -> SpectralWindows:
    """Restore kept coefficients to their original bins: the stacked kept windows,
    carrying their (B, p, M, D) bin indices for synthesis to read them by."""
    idx = np.stack(c.indices, axis=1)  # (B, p, M, D)
    if idx.shape[2] != c.kept:
        raise ContractError(
            f"index set size {idx.shape[2]} != kept coefficients {c.kept}"
        )
    re = stack([w.re for w in c.windows], axis=1)
    im = stack([w.im for w in c.windows], axis=1)
    return SpectralWindows(re, im, c.plan, idx)
