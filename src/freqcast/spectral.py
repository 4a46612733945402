"""Windowed real-FFT analysis and exact overlap-add synthesis.

A plan splits a length-L lookback into p windows of nfft samples with hop
(L - nfft) / (p - 1), which must divide exactly; p = 1 degenerates to a
plain FFT over the whole lookback.  Synthesis multiplies each inverse
transform by the analysis window again and divides the overlap-added result
by the per-sample sum of squared window values, which makes
istft(rstft(x)) == x to float64 round-off for every accepted plan.

Plans that would leave any sample uncovered (hop > nfft) are rejected up
front, because the synthesis normalisation would divide by zero there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fftkit
from .autograd import (
    CTensor,
    Tensor,
    as_data,
    irfft_real,
    lift_columns,
    mul,
    overlap_add,
    stack,
    windowed_frames,
)
from .data import MAX_VALUES
from .errors import ConfigError, ContractError

WINDOW_FNS = ("rectangular", "hann")


@dataclass(frozen=True)
class StftPlan:
    lookback: int
    window_count: int
    nfft: int
    hop: int
    window_fn: str = "rectangular"

    @property
    def bins(self) -> int:
        return fftkit.onesided_bins(self.nfft)

    @property
    def starts(self) -> list[int]:
        return [i * self.hop for i in range(self.window_count)]

    def window_values(self) -> np.ndarray:
        return _window_values(self.window_fn, self.nfft)

    def coverage(self) -> np.ndarray:
        """Per-sample sum of squared window values over the lookback."""
        w2 = self.window_values() ** 2
        cov = np.zeros(self.lookback)
        for s in self.starts:
            cov[s:s + self.nfft] += w2
        return cov


@lru_cache(maxsize=None)
def _window_values(window_fn: str, nfft: int) -> np.ndarray:
    if window_fn == "rectangular":
        w = np.ones(nfft)
    elif window_fn == "hann":
        # half-sample-offset cosine taper: strictly positive, so the
        # per-sample synthesis normalisation is always defined
        t = np.arange(nfft) + 0.5
        w = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / nfft))
    else:
        raise ConfigError(f"unknown window_fn {window_fn!r}; choose from {WINDOW_FNS}")
    w.setflags(write=False)
    return w


def valid_window_counts(lookback: int, nfft: int) -> list[int]:
    """Window counts that give an integer hop without coverage gaps, ascending.

    p >= 2 windows step by h = (lookback - nfft) / (p - 1), so the counts come
    from the divisors h <= nfft of lookback - nfft.  Each divisor pair is found
    from its smaller member: at most min(nfft, sqrt(lookback - nfft)) tries.
    Hop-0 layouts (p >= 2 windows with nfft == lookback) are not listed.
    """
    span = lookback - nfft
    if span <= 0:
        return [1] if span == 0 else []
    hops = [h for h in range(1, min(nfft, math.isqrt(span)) + 1) if span % h == 0]
    return sorted({span // h + 1 for h in hops} | {h + 1 for h in hops if span // h <= nfft})


def plan_stft(lookback: int, window_count: int, nfft: int,
              window_fn: str = "rectangular") -> StftPlan:
    """Validate the window layout and return an immutable plan."""
    if window_count < 1:
        raise ConfigError(f"windows (the window count) must be >= 1, got {window_count}")
    if nfft < 1 or nfft > lookback:
        raise ConfigError(
            f"nfft must be in [1, lookback]: nfft={nfft}, lookback={lookback}"
        )
    # the cached DFT operator pair (``fftkit._operators``): 2 x 2*nfft*bins values
    operator_values = 4 * nfft * fftkit.onesided_bins(nfft)
    if operator_values > MAX_VALUES:
        raise ConfigError(f"nfft={nfft} needs a DFT operator pair of {operator_values:,} "
                          f"values, above the cap of {MAX_VALUES:,}")
    _window_values(window_fn, nfft)  # reject unknown window functions early
    if window_count == 1:
        if nfft != lookback:
            raise ConfigError(
                f"a single window (windows=1) requires nfft == lookback, got "
                f"nfft={nfft}, lookback={lookback}"
            )
        return StftPlan(lookback, 1, nfft, 0, window_fn)

    span = lookback - nfft
    hop, rest = divmod(span, window_count - 1)
    if rest or hop > nfft:
        hint = min(valid_window_counts(lookback, nfft), default=None,
                   key=lambda c: (abs(c - window_count), c))
        hint_msg = f"; nearest valid window count is {hint}" if hint else ""
        if rest:
            raise ConfigError(
                f"window layout does not tile the lookback (lookback={lookback}, "
                f"windows={window_count}, nfft={nfft}): span {span} is not "
                f"divisible by windows - 1 = {window_count - 1}{hint_msg}"
            )
        raise ConfigError(
            f"hop {hop} exceeds nfft {nfft}: samples between windows would "
            f"carry zero window energy and synthesis could not divide by the "
            f"per-sample energy (lookback={lookback}, windows={window_count}, "
            f"nfft={nfft}){hint_msg}"
        )
    # hop <= nfft and both windows are positive on [0, nfft): every sample is covered
    return StftPlan(lookback, window_count, nfft, hop, window_fn)


@dataclass(frozen=True)
class LiftFactors:
    """Spectra (..., E) written as coefficients (..., K) times a (K, E) basis:
    the spectra are ``coef @ basis``.

    The lifted analysis has K = 2, the columns [X, U] of ``rstft`` and the
    basis [scale; bias], a Tensor that ``rstft`` stacks from the two: every
    lift of these coefficients, and the skip connection's lift of the input
    (``model.embed``), sends its gradient to scale and bias through it.
    """

    coef: np.ndarray
    basis: Tensor


class SpectralWindows:
    """One-sided spectra of all p windows as one (B, p, 2, bins, D, E) array:
    axis 2 holds the real plane, then the imaginary one.

    In kept form ``index`` (B, p, M, D) names the bin of each of the M
    entries the spectra (B, p, 2, M, D, E) hold per window and channel;
    every other bin is zero.  ``None`` means every bin, in order.
    ``factors``, when given, writes the spectra as (B, p, 2, bins, D, K)
    coefficients times a (K, E) basis.  Lifted spectra leave ``planes`` None:
    their readers (top-M, the backbone) read the factors, and nothing builds
    the full planes.
    """

    def __init__(self, planes: Tensor | None, plan: StftPlan,
                 index: np.ndarray | None = None, factors: LiftFactors | None = None):
        self.planes, self.plan, self.index, self.factors = planes, plan, index, factors
        f = factors
        if planes is None and f is None:
            raise ContractError("spectral planes may be left out only when factors give them")
        if f is not None and (len(f.basis.shape) != 2 or f.coef.shape[-1:] != f.basis.shape[:1]
                              or f.coef.shape[:-1] + f.basis.shape[1:] != self.shape):
            raise ContractError(f"factors {f.coef.shape} over basis {f.basis.shape} do not "
                                f"make spectra of shape {self.shape}")
        if len(self.shape) != 6 or self.shape[2] != 2:
            raise ContractError(f"spectra of shape {self.shape} are not (B, p, 2, bins, D, E): "
                                "axis 2 holds the real and the imaginary plane")
        if self.index is not None:
            fftkit.check_kept_index(self.index, self.shape, self.plan.nfft, axis=2)
            # a repeated bin would be summed by synthesis but overwritten by .windows
            if (np.diff(self.index, axis=2) <= 0).any():
                raise ContractError("kept bin indices must be strictly ascending per "
                                    "(sample, window, channel)")

    @property
    def shape(self) -> tuple[int, ...]:
        f = self.factors
        return f.coef.shape[:-1] + f.basis.shape[1:] if self.planes is None else self.planes.shape

    @property
    def bins(self) -> int:
        return self.plan.bins

    @property
    def windows(self) -> list[CTensor]:
        """Per-window (B, bins, D, E) read-only planes, off the tape: the
        planes' values, or the product ``lift`` would compute from the factors.
        A kept-form spectrum is scattered into zero planes first."""
        f = self.factors
        values = (self.planes.data.view() if self.planes is not None else
                  (f.coef.reshape(-1, f.coef.shape[-1]) @ f.basis.data).reshape(self.shape))
        if self.index is not None:
            kept, values = values, np.zeros(values.shape[:3] + (self.bins,) + values.shape[4:])
            np.put_along_axis(values, self.index[:, :, None, ..., None], kept, axis=3)
        values.flags.writeable = False
        return [CTensor(Tensor(values[:, i, 0]), Tensor(values[:, i, 1]))
                for i in range(values.shape[1])]


def rstft(x, plan: StftPlan, scale: Tensor | None = None,
          bias: Tensor | None = None) -> SpectralWindows:
    """One-sided DFT of each windowed segment of a real (B, L, D, E) input.

    x is data, as in ``model.embed``: no gradient reaches it, and a Tensor
    computed by earlier ops is refused.  Alone, x gives constant spectra.
    With the embedding lift's (E,) ``scale`` and ``bias``, x is the un-lifted
    (B, L, D, 1) input and the result analyses x * scale + bias, formed by
    linearity as X * scale + U * bias (U analyses a constant-one lookback):
    gradients reach scale and bias only.  The result is then its ``factors``,
    the columns [X, U] and the basis [scale; bias] stacked on the tape, and
    its planes are None.
    """
    lifted = scale is not None or bias is not None
    x = as_data(x, "rstft")
    if x.ndim != 4:
        raise ContractError(f"rstft expects (B, L, D, E), got shape {x.shape}")
    if x.shape[1] != plan.lookback:
        raise ContractError(
            f"rstft: time axis {x.shape[1]} != plan lookback {plan.lookback}"
        )
    if lifted and (scale is None or bias is None or x.shape[3] != 1):
        raise ContractError("rstft lifts a (B, L, D, 1) input by both scale and bias, "
                            f"got shape {x.shape}")
    window = None if plan.window_fn == "rectangular" else plan.window_values()
    seg = windowed_frames(x, plan.starts, plan.nfft, window)
    spectra = fftkit.rfft_onesided(seg, axis=2)
    if not lifted:
        return SpectralWindows(Tensor(spectra), plan)
    f = LiftFactors(lift_columns(spectra, _constant_spectrum(plan.window_fn, plan.nfft)),
                    stack([scale, bias], axis=0))
    return SpectralWindows(None, plan, factors=f)


@lru_cache(maxsize=None)
def _constant_spectrum(window_fn: str, nfft: int) -> np.ndarray:
    """Spectrum of one windowed all-ones segment, shaped (2, bins, 1, 1) to
    broadcast over (B, p, 2, bins, D, 1); every window of a plan shares it."""
    spectrum = fftkit.rfft_onesided(_window_values(window_fn, nfft)).reshape(2, -1, 1, 1)
    spectrum.setflags(write=False)
    return spectrum


def istft(s: SpectralWindows) -> Tensor:
    """Window-weighted overlap-add synthesis, energy-normalised per sample.

    A kept-form spectrum is synthesised from its kept bins alone.  The
    frames are written channel-major, as (B, D, p, nfft, E) memory, and every
    later step keeps that order: on a tiling plan the overlap-add is a
    reshape of the frames.  The (B, L, D, E) result is a view of (B, D, L, E)
    memory, the order of the head's per-channel input.
    """
    if s.planes is None:
        raise ContractError("istft needs built planes, as top-M's padding gives; got "
                            "lifted spectra that carry only their factors")
    plan = s.plan
    (b, p, _, bins, d, e), n = s.shape, plan.nfft
    if (p, bins) != (plan.window_count, plan.bins if s.index is None else bins):
        raise ContractError(f"istft: got {p} windows of {bins} bins, "
                            f"plan has {plan.window_count} windows of {plan.bins} bins")
    frames = np.empty((b, d, p, n, e)).transpose(0, 2, 3, 1, 4)
    seg = irfft_real(s.planes, n, axis=2, index=s.index, out=frames)
    if plan.window_fn != "rectangular":
        seg = mul(seg, plan.window_values()[:, None, None])
    acc = overlap_add(seg, plan.starts, plan.lookback)
    inverse = _inverse_coverage(plan)
    return acc if inverse is None else mul(acc, inverse)


@lru_cache(maxsize=None)
def _inverse_coverage(plan: StftPlan) -> np.ndarray | None:
    """1 / coverage shaped (L, 1, 1), or None where the coverage is 1 at every
    sample (a rectangular window with hop == nfft): multiplying by 1.0 is exact."""
    cov = plan.coverage()
    if (cov == 1.0).all():
        return None
    inverse = (1.0 / cov)[:, None, None]
    inverse.setflags(write=False)
    return inverse
