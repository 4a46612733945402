"""Reverse-mode differentiation over float64 numpy arrays.

A ``Tensor`` records the op that produced it as a backward closure, in the
micrograd style; ``Tensor.backward()`` topologically sorts the graph and
sweeps it in reverse, accumulating gradients into the ``.grad`` of the
leaves: the Tensors no recorded op produced (parameters, data, ``no_tape()``
outputs).  A tape is single-use.  Once a node's closure has run, the sweep
releases the node: it drops its closure and parents, and an interior node its
gradient, so the graph is freed while the caller still holds the loss.  The
root keeps its seed gradient, and a later backward that reaches a released
node raises ``ContractError``.  Complex values never
appear on the tape: ``CTensor`` is just a (real, imag) pair of Tensors, so
complex and hyper-complex layers differentiate through their real planes.

Non-Tensor operands are treated as constants and receive no gradient.

Inside ``no_tape()`` nothing is recorded: every new Tensor drops the parents
and closure its op hands it, so each op's intermediates are freed as soon as
nothing reads them.  Inference runs there (``train.predict``).

Training uses a second thread through ``side_by_side``: ``matmul``'s backward
computes its two gradients side by side when BLAS runs one thread, and
``train.Adam.step`` updates two halves of the parameters.  Each value is the
same numpy call on the same operands as on one thread, so results are
bit-identical.  The worker is handed arrays only: it makes no Tensor and never
reads the recording switch.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fftkit
from .errors import ContractError


_recording = True  # whether new Tensors keep their parents and backward closure


@contextmanager
def no_tape():
    """Record no tape inside the block, for forward passes that never run backward.

    Ops still build their closures; ``Tensor.__init__`` drops them.  A Tensor
    made inside has no history, so ``as_data`` takes it as data.  The switch
    is process-wide, and the previous state comes back on exit, also when
    the block raises.
    """
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


@functools.cache
def _worker():
    # imported here, so that a process that never trains does not load it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="freqcast-worker")


if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread: start afresh there
    os.register_at_fork(after_in_child=_worker.cache_clear)


@functools.cache
def _blas_threads() -> int:
    """The threads BLAS runs a GEMM on, as OpenBLAS, MKL and BLIS choose them
    when numpy loads them: the first of their variables that is set, else one
    per CPU this process may use."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def side_by_side(first, second):
    """(first(), second()), with first running on the worker thread while
    second runs here.

    The two must not write to memory the other reads, and ``first`` should
    write into buffers the caller allocated.  On the worker, ``first`` runs in
    a copy of the caller's context, so numpy's ``errstate`` holds there too.
    If the worker has not begun ``first`` by the time ``second`` returns, the
    caller runs it itself, so a worker that is slow to wake costs no more
    than running both here.  An exception from either call is raised here,
    once nothing runs on the caller's buffers any more.
    """
    claim = threading.Lock()  # taken by whichever thread runs first
    context = contextvars.copy_context()
    # the caller empties it when it takes first, so that the lane left in the
    # worker's queue holds none of first's arrays
    job = [first]

    def lane():
        if claim.acquire(blocking=False):
            return context.run(job[0])
        return None

    future = _worker().submit(lane)
    try:
        b = second()
    except BaseException:
        if claim.acquire(blocking=False):
            job.clear()
        else:
            future.exception()  # wait: the worker is writing into the caller's buffers
        raise
    if claim.acquire(blocking=False):
        return job.pop()(), b
    return future.result(), b


def _spent(g):
    raise ContractError("backward() reached a node whose tape an earlier backward "
                        "consumed; a tape is single-use, so run the forward again")


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _recording:
            self._parents, self._backward = parents, backward
        else:
            self._parents, self._backward = (), None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def backward(self):
        """Accumulate this scalar's gradient into the ``.grad`` of each leaf it
        was computed from, consuming the tape.

        Each node is popped as the sweep reaches it and released once its
        closure has run, so only the leaves and this root, whose ``.grad`` is
        the seed, keep a gradient.  A second sweep over any part of the tape
        raises ``ContractError``.
        """
        if self.data.size != 1:
            raise ContractError("backward() starts from a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            node._backward(node.grad)
            node._backward, node._parents = _spent, ()
            if node is not self:
                node.grad = None

    # operator sugar; the constant side of a mixed op gets no gradient
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _accum(t: Tensor, g: np.ndarray) -> None:
    # g may be shared (add hands one array to both parents): keep, never write
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g.reshape(shape)


def _raw(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def as_data(x, who: str) -> np.ndarray:
    """x's values, for an op that takes its input as data and sends it no gradient.

    A Tensor computed by earlier ops is refused, also once a backward has
    consumed its tape: its history would be cut without a word, and no
    gradient would reach what it was computed from.
    """
    if isinstance(x, Tensor) and x._backward is not None:
        raise ContractError(f"{who} takes its input as data and sends it no gradient; "
                            "got a Tensor computed by earlier ops")
    return _raw(x)


def add(a: Tensor, b) -> Tensor:
    bd = _raw(b)
    parents = (a, b) if isinstance(b, Tensor) else (a,)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(a.data + bd, parents, backward)


def sub(a: Tensor, b) -> Tensor:
    bd = _raw(b)
    parents = (a, b) if isinstance(b, Tensor) else (a,)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(-g, b.data.shape))

    return Tensor(a.data - bd, parents, backward)


def mul(a: Tensor, b) -> Tensor:
    bd = _raw(b)
    parents = (a, b) if isinstance(b, Tensor) else (a,)

    def backward(g):
        _accum(a, _unbroadcast(g * bd, a.data.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * bd, parents, backward)


def matmul(a, w) -> Tensor:
    """a: (..., k) times w: (k, m).  Either operand may be a constant array.

    The leading axes are flattened so each product is one GEMM; numpy's
    stacked matmul would run one small GEMM per leading index.  When both
    operands are Tensors and BLAS runs one thread, the backward's two GEMMs
    run side by side; a BLAS that runs more already keeps the CPUs busy.
    """
    ad, wd = _raw(a), _raw(w)
    if wd.ndim != 2 or ad.shape[-1] != wd.shape[0]:
        raise ContractError(
            f"matmul shapes incompatible: {ad.shape} x {wd.shape}"
        )
    parents = tuple(t for t in (a, w) if isinstance(t, Tensor))
    k, m = wd.shape
    a2 = ad.reshape(-1, k)

    def backward(g):
        g2 = g.reshape(-1, m)
        if isinstance(a, Tensor) and isinstance(w, Tensor) and _blas_threads() == 1:
            ga = np.empty(a2.shape)
            _, gw = side_by_side(lambda: np.matmul(g2, wd.T, out=ga), lambda: a2.T @ g2)
            _accum(a, ga.reshape(ad.shape))
            _accum(w, gw)
            return
        if isinstance(a, Tensor):
            _accum(a, (g2 @ wd.T).reshape(ad.shape))
        if isinstance(w, Tensor):
            _accum(w, a2.T @ g2)

    return Tensor((a2 @ wd).reshape(ad.shape[:-1] + (m,)), parents, backward)


def factored_matmul(x, coef: np.ndarray, basis: np.ndarray, w) -> Tensor:
    """x @ w for an x: (..., n*E) whose every E-block is a combination of
    the K rows of ``basis`` (K, E): block i of x == coef block i (..., K) @ basis.

    The forward is coef @ V and the weight gradient basis^T (coef^T g), per
    E-block, with V the basis times each E-row block of w: K/E of the flops
    of x @ w and x^T g.  The gradient to x stays g @ w^T.  coef and basis are
    data, so whatever x was computed from gets its gradient through x alone.
    With coef = x and basis = eye(E) this is ``matmul``, bit for bit.
    """
    xd, wd = _raw(x), _raw(w)
    k, e = basis.shape
    blocks = xd.shape[-1] // e
    if (wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or blocks * e != xd.shape[-1]
            or coef.shape != xd.shape[:-1] + (blocks * k,)):
        raise ContractError(f"factored_matmul shapes incompatible: x {xd.shape} = coef "
                            f"{coef.shape} over basis {basis.shape}, times w {wd.shape}")
    parents = tuple(t for t in (x, w) if isinstance(t, Tensor))
    m = wd.shape[1]
    c2 = coef.reshape(-1, blocks * k)

    def backward(g):
        g2 = g.reshape(-1, m)
        if isinstance(x, Tensor):
            _accum(x, (g2 @ wd.T).reshape(xd.shape))
        if isinstance(w, Tensor):
            cg = (c2.T @ g2).reshape(blocks, k, m)
            _accum(w, np.matmul(basis.T, cg).reshape(blocks * e, m))

    v = np.matmul(basis, wd.reshape(blocks, e, m)).reshape(blocks * k, m)
    return Tensor((c2 @ v).reshape(xd.shape[:-1] + (m,)), parents, backward)


def lift_columns(x: np.ndarray, u) -> np.ndarray:
    """The (..., 2) columns [x, u] of constant (..., 1) arrays x and u (u
    broadcasts to x): what ``lift`` multiplies by [scale; bias]."""
    cols = np.empty(x.shape[:-1] + (2,))
    cols[..., :1] = x
    cols[..., 1:] = u
    return cols


def lift(cols: np.ndarray, scale: Tensor, bias: Tensor) -> Tensor:
    """x * scale + u * bias for ``lift_columns(x, u)`` and (E,) Tensors: one
    (N, 2) @ (2, E) GEMM onto a last axis of E.

    Broadcasting (..., 1) against (E,) would run numpy's inner loop once per
    E entries; the GEMM writes the (..., E) result in one pass.
    """
    return matmul(cols, stack([scale, bias], axis=0))


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accum(a, np.transpose(g, inverse))

    return Tensor(np.transpose(a.data, axes), (a,), backward)


def split(a: Tensor, idxs) -> list[Tensor]:
    """Disjoint basic-index parts ``a[idx]``, one per entry of ``idxs``.  Their
    gradients fill one buffer, which a hub node hands to ``a`` after all of
    them ran, so p parts cost one zero buffer, not p."""
    buf: list[np.ndarray] = []
    hub = Tensor(a.data, (a,), lambda g: _accum(a, buf.pop()) if buf else None)

    def part(idx):
        def backward(g):
            if not buf:
                buf.append(np.zeros_like(a.data))
            buf[0][idx] = g

        return Tensor(a.data[idx], (hub,), backward)

    return [part(idx) for idx in idxs]


def stack(parts: list[Tensor], axis: int) -> Tensor:
    """Join equal-shaped tensors along a new axis."""

    def backward(g):
        for t, piece in zip(parts, np.moveaxis(g, axis, 0)):
            _accum(t, piece)

    return Tensor(np.stack([t.data for t in parts], axis=axis), tuple(parts), backward)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    """Join tensors along an existing axis."""
    bounds = np.cumsum([t.data.shape[axis] for t in parts])[:-1]

    def backward(g):
        for t, piece in zip(parts, np.split(g, bounds, axis=axis)):
            _accum(t, piece)

    return Tensor(np.concatenate([t.data for t in parts], axis=axis), tuple(parts), backward)


@dataclass(frozen=True)
class BlockLayout:
    """Where ``block_matrix`` puts its parts: entry j places coefs[j] * part
    planes[j] in block (rows[j], cols[j]) of a grid x grid block matrix.  No
    two entries name one block, and every part that is used fills the same
    number ``uses`` of blocks.

    The entries are round-major: round k holds the k-th entry of each used
    part, parts in increasing order, so the first round names each used part
    once and each part's blocks add in table order.
    """

    grid: int
    uses: int
    rows: np.ndarray
    cols: np.ndarray
    planes: np.ndarray
    coefs: np.ndarray

    @classmethod
    def of(cls, entries, grid: int) -> "BlockLayout":
        """From (plane, row, col, coef) tuples, each naming a different block
        and each used part equally often."""
        planes, rows, cols, coefs = (np.array(col) for col in zip(*entries))
        blocks = (rows * grid + cols).tolist()
        if len(set(blocks)) != len(blocks):
            twice = next(b for j, b in enumerate(blocks) if b in blocks[:j])
            raise ContractError(f"block ({twice // grid}, {twice % grid}) is named twice; "
                                "a block matrix takes one part per block")
        used, counts = np.unique(planes, return_counts=True)
        if counts.min() != counts.max():
            fills = ", ".join(f"part {u} in {c}" for u, c in zip(used.tolist(), counts.tolist()))
            raise ContractError(f"parts fill unequal numbers of blocks ({fills}); "
                                "a block matrix takes each used part equally often")
        uses = int(counts[0])
        order = np.argsort(planes, kind="stable").reshape(-1, uses).T.ravel()
        return cls(grid, uses, rows[order], cols[order], planes[order],
                   coefs.astype(np.float64).reshape(-1, 1, 1)[order])


def block_matrix(parts: list[Tensor], layout: BlockLayout) -> Tensor:
    """Square matrix of grid x grid equal-sized square blocks from ``parts``,
    placed as ``layout`` says; blocks no entry names are zero.

    The forward is one gather and one scatter.  The backward is one gather of
    every entry's block times its coef, then adds each later round into the
    first: a part's gradient is that of adding its blocks one by one, in
    table order.
    """
    size, grid = parts[0].data.shape[0], layout.grid
    rows, cols, planes, coefs = layout.rows, layout.cols, layout.planes, layout.coefs
    pieces = np.take(np.stack([t.data for t in parts]), planes, axis=0)
    pieces *= coefs
    out = np.zeros((grid, size, grid, size))
    out[rows, :, cols, :] = pieces
    used = [parts[i] for i in planes[:len(planes) // layout.uses]]

    def backward(g):
        rounds = g.reshape(grid, size, grid, size)[rows, :, cols, :]
        rounds *= coefs
        rounds = rounds.reshape(layout.uses, len(used), size, size)
        # the parts' gradients are views of one array: it holds the first round
        for later in rounds[1:]:
            rounds[0] += later
        for t, piece in zip(used, rounds[0]):
            _accum(t, piece)

    return Tensor(out.reshape(grid * size, grid * size), tuple(used), backward)


def _tiles(starts, n: int, length: int) -> bool:
    """Whether windows of n samples at ``starts`` lie end to end over [0, length)."""
    return len(starts) * n == length and all(s == i * n for i, s in enumerate(starts))


def _overlap_add(f: np.ndarray, starts, length: int) -> np.ndarray:
    """Sum window i of f (B, p, n, ...) in at starts[i] of a (B, length, ...) array;
    a reshape of f, and no copy, when the windows tile the length."""
    if _tiles(starts, f.shape[2], length):
        return f.reshape((f.shape[0], length) + f.shape[3:])
    out = np.zeros((f.shape[0], length) + f.shape[3:])
    for i, s in enumerate(starts):
        out[:, s:s + f.shape[2]] += f[:, i]
    return out


def windowed_frames(xd: np.ndarray, starts, n: int, window=None) -> np.ndarray:
    """The windows xd[:, s:s+n] for s in starts, stacked, (B, L, ...) -> (B, p, n, ...),
    each multiplied along its n axis by ``window`` (n,) when one is given.  Windows
    that tile the length are a reshape of xd, and no copy."""
    if _tiles(starts, n, xd.shape[1]):
        seg = xd.reshape((xd.shape[0], len(starts), n) + xd.shape[2:])
    else:
        seg = xd[:, np.add.outer(starts, np.arange(n))]
    return seg if window is None else seg * np.reshape(window, (n,) + (1,) * (xd.ndim - 2))


def overlap_add(f: Tensor, starts, length: int) -> Tensor:
    """Adjoint of ``windowed_frames``: sum window i back in at starts[i],
    (B, p, n, ...) -> (B, L, ...)."""
    n = f.data.shape[2]

    def backward(g):
        _accum(f, windowed_frames(g, starts, n))

    return Tensor(_overlap_add(f.data, starts, length), (f,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return Tensor(np.maximum(a.data, 0.0), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return Tensor(a.data.mean(), (a,), backward)


def _check_rows(rows: np.ndarray, count: int) -> None:
    # numpy raises a bare IndexError past the end and wraps negative rows silently
    if rows.size and (rows.min() < 0 or rows.max() >= count):
        raise ContractError(f"row index out of range [0, {count})")


def take_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """The last-axis rows of ``a`` at flat row numbers ``rows``, which must be
    distinct: (..., E) viewed as (N, E), out[j] = a[rows[j]], shape rows.shape + (E,).

    Each row is one contiguous copy; ``take_along_axis`` with an index
    broadcast over E would build a fancy-index grid over every axis.
    """
    e = a.data.shape[-1]
    flat = a.data.reshape(-1, e)
    _check_rows(rows, flat.shape[0])

    def backward(g):
        buf = np.zeros_like(flat)
        buf[rows.ravel()] = g.reshape(-1, e)
        _accum(a, buf.reshape(a.data.shape))

    return Tensor(np.take(flat, rows, axis=0), (a,), backward)


def irfft_real(re: Tensor, im: Tensor, n: int, axis: int = -1, index=None) -> Tensor:
    """Real synthesis from one-sided planes (1/n normalised); with ``index``,
    from the kept bins it names (``fftkit.irfft_onesided``)."""
    out = fftkit.irfft_onesided(re.data, im.data, n, axis=axis, index=index)

    def backward(g):
        gre, gim = fftkit.irfft_transpose(g, n, axis=axis, index=index)
        _accum(re, gre)
        _accum(im, gim)

    return Tensor(out, (re, im), backward)


class CTensor:
    """Complex tensor as a (real, imag) pair of Tensors."""

    __slots__ = ("re", "im")

    def __init__(self, re: Tensor, im: Tensor):
        if re.data.shape != im.data.shape:
            raise ContractError(
                f"complex planes disagree: {re.data.shape} vs {im.data.shape}"
            )
        self.re = re
        self.im = im

    @property
    def shape(self):
        return self.re.data.shape

    @classmethod
    def zeros(cls, shape) -> "CTensor":
        return cls(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))

    def value(self) -> np.ndarray:
        return self.re.data + 1j * self.im.data
