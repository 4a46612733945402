"""Loss, Adam, learning-rate decay, and the training/evaluation loops.

Batches are cut chronologically from the sliding-window samples and only
their order is shuffled each epoch, from the run seed, so a seeded run is
bit-reproducible.  The learning rate multiplies by ``lr_decay`` after every
epoch.  The parameters returned are those of the best validation-MAE epoch.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import platform
import warnings
import weakref
from dataclasses import dataclass
from itertools import count

import numpy as np

from .autograd import Tensor, add, as_data, mean_all, mul, no_tape, side_by_side
from .config import RunConfig
from .data import make_windows, metrics
from .errors import ConfigError, ContractError, TrainingError
from .model import ForecastParams, forward, init_params


def mse_loss(pred: Tensor, target) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ContractError(
            f"loss shape mismatch: pred {pred.shape} vs target {target.shape}"
        )
    diff = add(pred, -target)  # a - b is a + (-b) in IEEE 754, bit for bit
    return mean_all(mul(diff, diff))


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; a tape cannot be consumed twice, and a
    loss with no tape (computed inside ``no_tape()``) would reach no parameter."""
    if loss.grad is not None:
        raise ContractError("backward() already ran on this loss node")
    if not loss._parents:
        raise ContractError("backward() got a loss with no tape; was it computed "
                            "inside autograd.no_tape()?")
    loss.backward()


# glibc's mallopt options (malloc.h), and its ceiling for the mmap threshold,
# DEFAULT_MMAP_THRESHOLD_MAX = 4 MiB * sizeof(long): 32 MiB on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


@functools.cache
def _keep_freed_buffers() -> None:
    """Have glibc keep freed numpy buffers on the heap; once per process.

    By default glibc maps each multi-MB buffer on its own and unmaps it on
    free, so every batch page-faults its temporaries in again.  Raising the
    mmap threshold to its ceiling, with the trim threshold at twice that
    (the ratio of glibc's own dynamic rule), lets the next batch reuse them.
    The setting is process-wide; elsewhere than glibc nothing is changed.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) != 1
            or mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX) != 1):
        warnings.warn("mallopt failed; freed buffers go back to the OS",
                      RuntimeWarning, stacklevel=3)


# values in a block of Adam's update: a lane's five 256 KiB blocks fit a 2 MiB L2
BLOCK = 2**15


def _release_sinks(sinks) -> None:
    """Point each node whose sink is still the given view back to None."""
    for node, part in sinks:
        if node.sink is part:
            node.sink = None


class Adam:
    """Bias-corrected Adam over named tensors, with per-epoch lr decay.

    The parameters (``flat``) and the moments ``_m`` and ``_v`` each live in
    one contiguous float64 vector, in the order of ``named_params``.  Every
    tensor's ``data`` is a view into ``flat``, and ``step`` updates all three
    vectors in place with ufuncs.  While the optimiser holds a tensor, write
    its ``data`` in place: assigning a new array detaches the tensor from
    the optimiser.

    The gradients live in one vector too: each tensor's graph node gets its
    part as a ``sink``, where a backward writes its gradient.  ``step``
    zero-fills the part of a tensor with no gradient and copies in only a
    ``.grad`` set by hand.  The update uses the vector as scratch, so a step
    consumes a gradient held in a sink: that ``.grad`` reads None after it.
    Freeing the optimiser resets each sink that is still its own to None.

    The gradients are checked for non-finite values on the calling thread,
    so a bad gradient raises before any value changes.  The update then
    runs side by side (``autograd.side_by_side``) on the worker thread and
    the caller, which take blocks of ``BLOCK`` values from one counter, each
    with one block of scratch.  Each element sees the same ufuncs in the
    same order, so the result is the whole-vector update's, bit for bit.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.params = named_params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        sizes = [t.data.size for _, t in named_params]
        self._ends = np.cumsum(sizes, dtype=np.intp)
        n = sum(sizes)
        self.flat = np.empty(n)
        for (_, t), end, size in zip(named_params, self._ends, sizes):
            self.flat[end - size:end] = t.data.ravel()
            t.data = self.flat[end - size:end].reshape(t.data.shape)
        # each tensor's own array is freed above, before the other three vectors exist
        self._m, self._v = np.zeros(n), np.zeros(n)
        self._grad = np.empty(n)
        self._grads = [self._grad[end - size:end].reshape(t.data.shape)
                       for (_, t), end, size in zip(named_params, self._ends, sizes)]
        for (_, t), part in zip(named_params, self._grads):
            t._node.sink = part
        weakref.finalize(self, _release_sinks,
                         [(t._node, g) for (_, t), g in zip(named_params, self._grads)])

    def zero_grads(self) -> None:
        for _, t in self.params:
            t.grad = None

    def nonfinite(self, vec: np.ndarray) -> str | None:
        """Name of the first parameter whose part of a flat vector is not finite;
        one sum, and a scan only when the sum is not finite (or overflows)."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.sum(vec)):
                return None
        finite = np.isfinite(vec)
        if finite.all():
            return None
        first = int(np.argmin(finite))
        return self.params[int(np.searchsorted(self._ends, first, side="right"))][0]

    def step(self) -> None:
        held = []  # the tensors whose gradient is already in their sink
        for (_, t), part in zip(self.params, self._grads):
            if t.grad is None:
                part.fill(0.0)
            elif t.grad is part:
                held.append(t)
            else:
                np.copyto(part, t.grad)
        bad = self.nonfinite(self._grad)
        if bad is not None:
            raise TrainingError(f"non-finite gradient in parameter {bad!r}")
        for t in held:
            t.grad = None
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        lane = functools.partial(self._update, count(), bc1, bc2)
        side_by_side(lane, lane)

    def _update(self, blocks, bc1: float, bc2: float) -> None:
        """The update of ``step`` over the blocks this lane takes from ``blocks``."""
        scratch = np.empty(min(BLOCK, self.flat.size))
        for b in blocks:
            if b * BLOCK >= self.flat.size:
                return
            part = slice(b * BLOCK, (b + 1) * BLOCK)
            g, m, v, flat = (a[part] for a in (self._grad, self._m, self._v, self.flat))
            tmp = scratch[:g.size]
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(m, self.beta1, out=m)
            np.add(m, np.multiply(g, 1 - self.beta1, out=tmp), out=m)
            # v = beta2 * v + (1 - beta2) * (g * g)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, g, out=tmp)
            np.add(v, np.multiply(tmp, 1 - self.beta2, out=tmp), out=v)
            # data = data - lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=g), self.lr, out=g)
            np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), self.eps, out=tmp)
            np.subtract(flat, np.divide(g, tmp, out=g), out=flat)

    def decay_lr(self, factor: float) -> None:
        self.lr *= factor


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_mae: float
    val_rmse: float


@dataclass
class FitResult:
    params: ForecastParams
    log: list[EpochRecord]
    best_epoch: int
    best_val_mae: float


METRICS_FIELDS = ("epoch", "lr", "train_loss", "val_mae", "val_rmse")


def write_metrics_csv(records: list[EpochRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for r in records:
            writer.writerow([r.epoch, repr(r.lr), repr(r.train_loss),
                             repr(r.val_mae), repr(r.val_rmse)])


def predict(params: ForecastParams, cfg: RunConfig, x,
            chunk: int | None = None) -> np.ndarray:
    """Forecasts (N, T, D) for the (N, L, D) windows ``x``, recording no tape.

    ``x`` is data: an array, or anything numpy reads as one.  ``chunk``
    windows go through each ``forward``; ``None`` means ``cfg.batch``, and
    any other value must be a positive integer.  The forwards run inside
    ``autograd.no_tape()``: no op keeps its inputs for a backward pass, so
    each intermediate is freed once the next op has read it.  The values are
    those of ``forward(x, ...).data``, bit for bit.
    """
    _keep_freed_buffers()
    chunk = cfg.batch if chunk is None else chunk
    if isinstance(chunk, bool) or not isinstance(chunk, (int, np.integer)):
        raise ContractError(f"predict chunk must be an integer number of windows, "
                            f"got {chunk!r}")
    if chunk < 1:
        raise ContractError(f"predict chunk must be at least 1 window, got {chunk}")
    x = as_data(x, "predict")
    if x.ndim == 0 or x.shape[0] == 0:
        raise ContractError(f"predict got no windows: input shape {x.shape}")
    with no_tape():
        outs = [forward(x[i:i + chunk], params, cfg).data
                for i in range(0, x.shape[0], chunk)]
    return np.concatenate(outs, axis=0)


def evaluate(params: ForecastParams, cfg: RunConfig, x: np.ndarray,
             y: np.ndarray) -> dict[str, float]:
    return metrics(predict(params, cfg, x), y)


def fit(train_split: np.ndarray, val_split: np.ndarray, cfg: RunConfig) -> FitResult:
    """Mini-batch Adam over sliding windows; returns best-validation params.

    A diverging fit raises TrainingError at the first non-finite training
    loss, gradient, parameter or validation metric, with no numpy warning.
    """
    _keep_freed_buffers()
    if train_split.size == 0 or val_split.size == 0:
        raise TrainingError("empty training or validation split")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)

    x_train, y_train = make_windows(train_split, cfg.lookback, cfg.horizon, cfg.stride)
    x_val, y_val = make_windows(val_split, cfg.lookback, cfg.horizon, cfg.stride)
    n = x_train.shape[0]
    batch_bounds = [(i, min(i + cfg.batch, n)) for i in range(0, n, cfg.batch)]

    optim = Adam(params.named_tensors(), lr=cfg.lr)
    log: list[EpochRecord] = []
    best: tuple[float, int] | None = None
    best_flat = None  # a snapshot only while a later epoch may move past the best

    # the checks below name a divergence; overflow warnings would print before them
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(batch_bounds))
            total, seen = 0.0, 0
            for bi in order:
                lo, hi = batch_bounds[bi]
                optim.zero_grads()
                loss = mse_loss(forward(x_train[lo:hi], params, cfg), y_train[lo:hi])
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite training loss at epoch {epoch}, batch {bi}"
                    )
                backward(loss)
                optim.step()
                total += value * (hi - lo)
                seen += hi - lo
            bad = optim.nonfinite(optim.flat)
            if bad is not None:
                raise TrainingError(f"parameter {bad!r} became non-finite at epoch {epoch}")

            val = evaluate(params, cfg, x_val, y_val)
            if not (np.isfinite(val["mae"]) and np.isfinite(val["rmse"])):
                raise TrainingError(f"non-finite validation metrics at epoch {epoch}: "
                                    f"MAE {val['mae']!r}, RMSE {val['rmse']!r}")
            log.append(EpochRecord(epoch, optim.lr, total / seen, val["mae"], val["rmse"]))
            if best is None or val["mae"] < best[0]:
                best = (val["mae"], epoch)
                if epoch < cfg.epochs:
                    if best_flat is None:
                        best_flat = np.empty_like(optim.flat)
                    np.copyto(best_flat, optim.flat)
            optim.decay_lr(cfg.lr_decay)

    assert best is not None
    if best[1] < cfg.epochs:
        np.copyto(optim.flat, best_flat)
    return FitResult(params, log, best[1], best[0])
