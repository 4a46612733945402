"""Dataset ingestion, splitting, normalisation, windowing, metrics, synthesis.

CSV files are header-plus-rows with an optional leading timestamp column
(detected once, from the first data row, and skipped).  Any non-numeric,
non-finite or ragged row is an ingestion error naming the file line and
column; nothing is dropped silently.

Normalisation is per-channel min-max fitted on the training split only.
Evaluation metrics are computed on the normalised scale.
"""

from __future__ import annotations

import csv
import logging
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, open_text

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    name: str
    values: np.ndarray  # (timesteps, channels) float64
    channel_names: list[str]

    @property
    def timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def load_csv(path: str) -> Dataset:
    """Parse a header+rows CSV; a non-numeric first column is a timestamp."""
    with open_text(path, "CSV", DataError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows after the header")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    skip_first = len(rows[0]) > 1 and not _numeric(rows[0][0])
    start_col = 1 if skip_first else 0
    channel_names = [h.strip() for h in header[start_col:]]
    width = len(header)

    values = np.empty((len(rows), width - start_col))
    for r, row in enumerate(rows):
        line = r + 2  # 1-based, header is line 1
        if len(row) != width:
            raise DataError(
                f"{path}: line {line} has {len(row)} cells, header has {width}"
            )
        for c, cell in enumerate(row[start_col:], start=start_col):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {line}, column {c + 1}: non-numeric cell {cell!r}"
                )
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: line {line}, column {c + 1}: non-finite cell {cell!r}"
                )
            values[r, c - start_col] = value
    return Dataset(path, values, channel_names)


def split_chronological(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous 70/15/15 split; odd remainders favour the test split."""
    n = ds.timesteps
    if n < 10:
        raise ConfigError(f"dataset {ds.name!r} too short to split: {n} timesteps")
    n_train = int(np.floor(0.7 * n))
    rest = n - n_train
    n_val = rest // 2
    v = ds.values
    return v[:n_train], v[n_train:n_train + n_val], v[n_train + n_val:]


@dataclass
class NormStats:
    """Per-channel minima and maxima.  Normalising divides by each channel's
    span, max - min, so a span beyond float64's range is refused here."""

    minima: np.ndarray  # (channels,)
    maxima: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):
            spans = self.maxima - self.minima
        bad = np.flatnonzero(~np.isfinite(spans))
        if bad.size:
            raise DataError(f"channel {bad[0]} spans {float(self.minima[bad[0]])!r} to "
                            f"{float(self.maxima[bad[0]])!r}: max - min overflows float64, "
                            "so it cannot be normalised")

    @property
    def spans(self) -> np.ndarray:
        return self.maxima - self.minima

    def as_dict(self) -> dict:
        return {"min": self.minima.tolist(), "max": self.maxima.tolist()}

    @classmethod
    def from_dict(cls, d, channels: int, source: str) -> "NormStats":
        """Stats as ``as_dict`` wrote them, for data of ``channels`` channels: equal-length
        lists of finite numbers, one per channel; ``source`` names where they came from."""
        if not isinstance(d, dict):
            raise ContractError(f"{source}: norm_stats must be a mapping, got {type(d).__name__}")
        columns = []
        for key in ("min", "max"):
            if key not in d:
                raise ContractError(f"{source}: norm_stats lacks {key!r}")
            v = d[key]
            if not isinstance(v, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
                raise ContractError(f"{source}: norm_stats {key!r} must be a list of "
                                    f"numbers, got {v!r}")
            col = np.asarray(v, float)
            if not np.isfinite(col).all():
                raise ContractError(f"{source}: norm_stats {key!r} holds a non-finite value")
            columns.append(col)
        lo, hi = columns
        if lo.size != channels or hi.size != channels:
            raise ContractError(f"{source}: norm_stats has {lo.size} minima and {hi.size} "
                                f"maxima for data of {channels} channels")
        try:
            return cls(lo, hi)
        except DataError as e:
            raise ContractError(f"{source}: norm_stats {e}") from e


def fit_norm_stats(train_split: np.ndarray) -> NormStats:
    stats = NormStats(train_split.min(axis=0), train_split.max(axis=0))
    flat = stats.spans == 0
    if flat.any():
        log.warning(
            "channels %s are constant on the training split; they normalise to 0",
            np.nonzero(flat)[0].tolist(),
        )
    return stats


def normalize(split: np.ndarray, stats: NormStats, name: str = "split") -> np.ndarray:
    """``split`` (T, D) scaled by each channel's min and span; a constant channel
    gives 0.  A finite value so far outside the stats' range that its scaled
    value overflows is refused, naming the split (``name``) and the channel."""
    spans = np.where(stats.spans == 0, 1.0, stats.spans)
    with np.errstate(over="ignore"):
        out = np.where(stats.spans == 0, 0.0, (split - stats.minima) / spans)
    bad = np.argwhere(~np.isfinite(out))  # (row, channel) pairs
    if bad.size:
        raise DataError(f"{name}: channel {bad[0, 1]} holds {float(split[tuple(bad[0])])!r} "
                        f"at row {bad[0, 0]}, which overflows float64 when normalised by the "
                        f"fitted min {float(stats.minima[bad[0, 1]])!r} and max "
                        f"{float(stats.maxima[bad[0, 1]])!r}")
    return out


def denormalize(split: np.ndarray, stats: NormStats) -> np.ndarray:
    return split * stats.spans + stats.minima


def make_windows(split: np.ndarray, lookback: int, horizon: int, stride: int = 1,
                 name: str = "split") -> tuple[np.ndarray, np.ndarray]:
    """Sliding (lookback, horizon) sample pairs, adjacent, every ``stride`` steps.

    Both are read-only views of ``split``, shaped (count, lookback, ...) and
    (count, horizon, ...): windowing copies nothing.  ``name`` names the
    split in the error for one too short to window.
    """
    for size, value in (("lookback", lookback), ("horizon", horizon), ("stride", stride)):
        if value < 1:
            raise ConfigError(f"make_windows needs {size} >= 1, got {value}")
    n = split.shape[0]
    if n < lookback + horizon:
        raise ConfigError(
            f"{name} of {n} timesteps is shorter than lookback + horizon = "
            f"{lookback + horizon}"
        )
    # (count, ..., lookback + horizon), the window along the last axis
    pairs = np.lib.stride_tricks.sliding_window_view(split, lookback + horizon, axis=0)
    pairs = np.moveaxis(pairs[::stride], -1, 1)
    return pairs[:, :lookback], pairs[:, lookback:]


def metrics(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    err = pred - truth
    mse = float(np.mean(err ** 2))
    return {"mae": float(np.mean(np.abs(err))), "rmse": float(np.sqrt(mse)), "mse": mse}


def persistence_forecast(x: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last observed value across the horizon: (N, L, D) -> (N, T, D)."""
    return np.repeat(x[:, -1:, :], horizon, axis=1)


# --- synthetic corpora ---------------------------------------------------------

SYNTH_KINDS = ("sinusoid_mix", "trend_plus_season", "piecewise_stationary")

# the most float64 values (800 MB) a run may store in a synthetic corpus, in
# the model's parameters (``RunConfig.problems``), in a window length's DFT
# operators (``plan_stft``) and in a batch's largest array (``model.forward``).
# It bounds what is stored, not what a run allocates: training holds about four
# vectors of the parameter count (the parameters, Adam's two moments and its
# flat gradient).
# Windowing copies nothing: the windows are views.
MAX_VALUES = 10**8

_MIN_SEGMENT = 64


def piecewise_change_points(seed: int, length: int) -> list[int]:
    """Interior segment boundaries used by the piecewise corpus (recomputable)."""
    rng = np.random.default_rng([seed, 0xC1])
    segments = int(rng.integers(3, 7))
    edges = np.linspace(0, length, segments + 1)
    jitter = rng.uniform(-0.25, 0.25, size=segments - 1) * (length / segments)
    interior = np.round(edges[1:-1] + jitter).astype(int)
    interior = np.clip(interior, _MIN_SEGMENT, length - _MIN_SEGMENT)
    return sorted(set(interior.tolist()))


def synth_corpus(kind: str, seed: int, length: int, channels: int,
                 noise: float = 0.1) -> Dataset:
    """Deterministic synthetic multichannel series for desk-scale experiments."""
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic corpus {kind!r}; choose from {SYNTH_KINDS}")
    if length < 256:
        raise ConfigError(f"synthetic corpora need length >= 256, got {length}")
    if channels < 1:
        raise ConfigError(f"synthetic corpora need channels >= 1, got {channels}")
    if length * channels > MAX_VALUES:
        raise ConfigError(f"synthetic corpora hold at most {MAX_VALUES:,} values, got "
                          f"length * channels = {length:,} * {channels:,}")
    if not 0 <= noise < np.inf:
        raise ConfigError(f"synthetic corpus noise must be finite and >= 0, got {noise}")
    # crc32, not hash(): the stream must not depend on PYTHONHASHSEED
    rng = np.random.default_rng([seed, zlib.crc32(kind.encode()) & 0xFFFF])
    t = np.arange(length)
    values = np.zeros((length, channels))

    if kind == "sinusoid_mix":
        # one dominant tone plus 1..3 weaker incommensurate ones per channel
        for d in range(channels):
            n_tones = int(rng.integers(2, 5))
            periods = [rng.uniform(16, 64)] + [rng.uniform(8, 200) for _ in range(n_tones - 1)]
            amps = [rng.uniform(1.0, 1.5)] + [rng.uniform(0.15, 0.45) for _ in range(n_tones - 1)]
            for period, amp in zip(periods, amps):
                phase = rng.uniform(0, 2 * np.pi)
                values[:, d] += amp * np.sin(2 * np.pi * t / period + phase)
    elif kind == "trend_plus_season":
        for d in range(channels):
            slope = rng.uniform(-1.0, 1.0)
            period = rng.uniform(12, 96)
            amp = rng.uniform(0.5, 1.5)
            phase = rng.uniform(0, 2 * np.pi)
            values[:, d] = slope * (t / length) + amp * np.sin(2 * np.pi * t / period + phase)
    else:  # piecewise_stationary
        bounds = [0] + piecewise_change_points(seed, length) + [length]
        for d in range(channels):
            period = None
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                previous = period
                period = rng.uniform(8, 48)
                # force a clear spectral shift at every change point
                while previous is not None and abs(period - previous) < 0.3 * previous:
                    period = rng.uniform(8, 48)
                amp = rng.uniform(0.8, 1.5)
                phase = rng.uniform(0, 2 * np.pi)
                seg = np.arange(lo, hi)
                values[lo:hi, d] = amp * np.sin(2 * np.pi * seg / period + phase)

    if noise > 0:
        with np.errstate(over="ignore"):  # an overflow is refused below, naming the noise
            values += noise * rng.normal(size=values.shape)
        if not np.isfinite(values).all():
            raise ConfigError(f"synthetic corpus noise {noise} overflows float64: the "
                              "corpus would hold non-finite values")
    return Dataset(
        name=f"{kind}-seed{seed}",
        values=values,
        channel_names=[f"ch{d}" for d in range(channels)],
    )
