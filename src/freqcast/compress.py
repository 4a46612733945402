"""Top-M spectral compression and its exact position-aware inverse.

Selection keeps, independently for every (batch sample, window, channel),
the M frequency bins with the largest magnitude-squared summed over the
embedding axis.  Kept indices are remembered so the padding step can hand
coefficients back with their original bins: synthesis reads the kept bins
where they are, so the zero bins are never built.  A partition finds each
row's M-th highest score, and a row in which exactly M scores reach it keeps
those bins; only a row with a tie across the M-th place, or a NaN there, is
ranked by a stable sort.  So ties go to the lower bin, NaN ranks last, and
kept indices, stored ascending, are the same on every platform.

Selection itself is non-differentiable routing: it is computed from the
forward values and frozen; gradients flow only through kept coefficients.
The kept spectra are stacked as the backbone reads them, one
(B, M, D, 2p*E) operand, from top-M to synthesis.  The gather moves whole
rows: a (B, p, 2, bins, D, K) spectrum is viewed as (B*p*2*bins*D, K)
rows, and kept entry (b, i, m, d) of each plane is one row.  Top-M reads
lifted spectra only, as ``rstft`` gives them: they are gathered as their
(..., K) coefficients and lifted by the basis in one GEMM, so of the lifted
planes only the kept rows are built.  The coefficients also give the score
without touching the E axis: with c the coefficients and G the K x K Gram
matrix of the basis, sum_e plane_e^2 == sum_jk G_jk c_j c_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import CTensor, Tensor, lift, reshape, split, stack
from .errors import ConfigError, ContractError
from .spectral import LiftFactors, SpectralWindows, StftPlan


@dataclass
class CompressedWindows:
    """Kept spectra of p windows stacked as the backbone reads them.

    ``stacked`` (B, M, D, 2p*E) holds window i's real plane in E-block i and
    its imaginary plane in E-block p + i; ``index`` (B, p, M, D) names the
    kept bins.  Given as a list of p complex (B, M, D, E) windows and a list
    of p (B, M, D) indices, they are joined here, the windows on the tape.
    ``factors``, when given, writes the operand's E-blocks as (B, M, D, 2p*K)
    coefficients times the (K, E) basis: the kept rows of the analysis's own
    factors.
    """

    stacked: Tensor
    index: np.ndarray
    bins_total: int
    plan: StftPlan | None
    factors: LiftFactors | None = None

    def __post_init__(self):
        if isinstance(self.stacked, list):
            planes = [w.re for w in self.stacked] + [w.im for w in self.stacked]
            self.stacked = reshape(stack(planes, axis=-2), planes[0].shape[:-1] + (-1,))
        if isinstance(self.index, list):
            self.index = np.stack(self.index, axis=1)
        if self.stacked.shape[-1] % (2 * self.window_count):
            raise ContractError(f"an operand of width {self.stacked.shape[-1]} does not "
                                f"stack the two planes of {self.window_count} windows")

    @property
    def window_count(self) -> int:
        return self.index.shape[1]

    @property
    def embed(self) -> int:
        return self.stacked.shape[-1] // (2 * self.window_count)

    def _blocks(self) -> tuple[int, ...]:
        """The operand's shape with its last axis as (plane, window, E)."""
        return self.stacked.shape[:-1] + (2, self.window_count, self.embed)

    @property
    def windows(self) -> list[CTensor]:
        """Per-window complex (B, M, D, E) views of the operand, on the tape."""
        p = self.window_count
        parts = split(self.stacked, [(Ellipsis, c, i, slice(None))
                                     for c in range(2) for i in range(p)], self._blocks())
        return [CTensor(parts[i], parts[p + i]) for i in range(p)]

    @property
    def indices(self) -> list[np.ndarray]:
        """Per-window (B, M, D) views of the kept bin indices."""
        return [self.index[:, i] for i in range(self.window_count)]


def _rows(idx: np.ndarray, bins: int) -> np.ndarray:
    """Row numbers (((b*p + i)*2 + c)*bins + idx[b, i, m, d])*D + d of the
    kept bins (B, p, M, D) of plane c in a (B, p, 2, bins, D, K) spectrum
    viewed as rows of K, in the operand's order (B, M, D, 2, p)."""
    b, p, _, d = idx.shape
    rows = (np.arange(b * p * 2).reshape(b, p, 2, 1, 1) * bins + idx[:, :, None]) * d
    return (rows + np.arange(d)).transpose(0, 3, 4, 2, 1)


def _gather(spectra: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` (B, M, D, 2, p) of (..., K) spectra, in the operand's
    layout (B, M, D, 2p*K)."""
    kept = np.take(spectra.reshape(-1, spectra.shape[-1]), rows, axis=0)
    return kept.reshape(rows.shape[:3] + (-1,))


def _score(f: LiftFactors) -> np.ndarray:
    """Magnitude squared summed over E, (B, p, bins, D), of the spectra the
    factors give: one elementwise term per pair of coefficient columns (a
    stacked (..., K) @ (K, K) product runs one GEMM per row), read contiguous
    from one (K, 2, B, p, D, bins) copy; a view of bins-last scores."""
    gram = f.basis.data @ f.basis.data.T
    re, im = np.ascontiguousarray(f.coef.transpose(5, 2, 0, 1, 4, 3)).swapaxes(0, 1)
    score = np.zeros(re.shape[1:])
    for j, l in zip(*np.triu_indices(len(gram))):
        term = re[j] * re[l]
        term += im[j] * im[l]
        term *= gram[j, l] if j == l else 2.0 * gram[j, l]
        score += term
    return score.swapaxes(2, 3)


def _stable_first(neg: np.ndarray, m: int) -> np.ndarray:
    """Mask of the first m bins of each row of ``neg`` (rows, bins) in a stable
    ascending sort: ties go to the lower bin and NaN ranks last."""
    return np.argsort(np.argsort(neg, axis=1, kind="stable"), axis=1) < m


def _kept_bins(score: np.ndarray, m: int) -> np.ndarray:
    """Ascending indices (B, p, m, D) of the m highest (B, p, bins, D) scores
    along the bin axis, as the stable sort of the negated scores keeps them.
    The m-th highest score of each row is found by a partition; a row in which
    exactly m scores reach it keeps those.  A row it cannot decide, with a tie
    across the m-th place or a NaN there, is ranked by the stable sort."""
    neg = -np.ascontiguousarray(score.swapaxes(2, 3))  # (B, p, D, bins)
    mask = neg <= np.partition(neg, m - 1, axis=3)[..., m - 1:m]
    undecided = np.count_nonzero(mask, axis=3) != m
    if undecided.any():
        mask[undecided] = _stable_first(neg[undecided], m)
    return (np.flatnonzero(mask) % neg.shape[3]).reshape(neg.shape[:3] + (m,)).swapaxes(2, 3)


def check_top_m(m: int, plan: StftPlan) -> None:
    if not 1 <= m <= plan.bins:
        raise ConfigError(f"top_m must be in [1, {plan.bins}] for nfft={plan.nfft}, got {m}")


def top_m_select(s: SpectralWindows, m: int) -> CompressedWindows:
    """Keep the m highest-energy bins per (sample, window, channel).

    The spectra are lifted, as ``rstft`` gives them: the kept rows of their
    factors are lifted by the basis on the tape, and the planes stay unbuilt.
    """
    f = s.factors
    if f is None:
        raise ContractError("top_m_select reads the factors of lifted spectra, as rstft "
                            "lifts them by scale and bias; got spectra of planes alone")
    if s.index is not None:
        raise ContractError("top_m_select needs every bin of the spectra; got a kept-form "
                            f"spectrum of {s.shape[3]} bins per window")
    check_top_m(m, s.plan)
    idx = _kept_bins(_score(f), m)
    coef = _gather(f.coef, _rows(idx, s.bins))
    return CompressedWindows(lift(coef, f.basis), idx, s.bins, s.plan,
                             LiftFactors(coef, f.basis))


def position_aware_pad(c: CompressedWindows) -> SpectralWindows:
    """Restore kept coefficients to their original bins: the operand as one
    (B, p, 2, M, D, E) view, carrying its (B, p, M, D) bin indices (which
    ``SpectralWindows`` checks against it) for synthesis to read it by."""
    [planes] = split(c.stacked, [(Ellipsis,)], c._blocks(), axes=(0, 4, 3, 1, 2, 5))
    return SpectralWindows(planes, c.plan, c.index)
