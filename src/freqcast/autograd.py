"""Reverse-mode differentiation over float64 numpy arrays.

A ``Tensor`` is a value (``data``) and a graph node.  The node holds the
gradient, the nodes of the Tensors it was computed from, and the op's
backward closure, in the micrograd style; it holds no value.  Each closure
saves only what its backward reads: ``add`` keeps two shapes, ``relu`` its
mask, ``matmul`` each operand that the other's gradient needs.  So a value
lives only while the caller or a closure that reads it holds it, and a
forward's intermediates die as it lets go of them, also while its tape is
recorded.  ``Tensor.backward()`` topologically sorts the nodes and sweeps
them in reverse, accumulating gradients into the ``.grad`` of the leaves:
the Tensors no recorded op produced (parameters, data, ``no_tape()``
outputs).  A tape is single-use.  Once a node's closure has run, the sweep
releases the node: it drops its closure and parents, and an interior node
its gradient, so the graph is freed while the caller still holds the loss.
The root keeps its seed gradient, and a later backward that reaches a
released node raises ``ContractError``.  Complex values never appear on the
tape: a complex array is a real one with a length-2 plane axis (0 real, 1
imaginary), so complex and hyper-complex layers differentiate through their
real planes.  ``CTensor``, a bare (real, imag) pair of Tensors, is only the
type of the per-window ``.windows`` views of the spectra.

The elementwise ops take a non-Tensor operand as a constant, which receives
no gradient; ``matmul``, ``factored_matmul`` and ``lift_add_by_channel``
take Tensors only.  A difference is ``add(a, -b)``: IEEE 754 defines a - b
as a + (-b), so there is no separate subtraction op.

Inside ``no_tape()`` nothing is recorded: every new Tensor drops the parents
and closure its op hands it, so each op's intermediates are freed as soon as
nothing reads them.  Inference runs there (``train.predict``).

Training uses a second thread through ``side_by_side``: ``matmul``'s backward
computes its two gradients side by side when BLAS runs one thread, and
``train.Adam.step`` updates the parameters in blocks that both threads take
from one counter.  Each value comes from the same numpy calls on the same
operands as on one thread, so results are bit-identical.  The worker is
handed arrays only: it makes no Tensor and never reads the recording switch.
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
    # whichever thread takes first empties it, so that no lane, run or left in
    # the worker's queue, holds first or its arrays once first has returned
    job = [first]

    def lane():
        if claim.acquire(blocking=False):
            return context.run(job.pop())
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


class _Node:
    """A Tensor's place on the tape: its gradient, the nodes of the Tensors it
    was computed from, and the closure that sends its gradient to them.  It
    holds no value; the closure holds what its backward reads.  A leaf's
    ``sink``, set by ``train.Adam``, is where its gradient is written: the
    first is copied in (``matmul`` computes it there), later ones added."""

    __slots__ = ("grad", "sink", "_parents", "_backward", "__weakref__")

    def __init__(self, parents, backward):
        self.grad = self.sink = None
        self._parents, self._backward = parents, backward


class Tensor:
    """A float64 value and its graph node; ``grad``, ``_parents`` and
    ``_backward`` are the node's."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if _recording:
            self._node = _Node(tuple(t._node for t in parents), backward)
        else:
            self._node = _Node((), None)

    grad = property(lambda self: self._node.grad,
                    lambda self, g: setattr(self._node, "grad", g))
    _parents = property(lambda self: self._node._parents)
    _backward = property(lambda self: self._node._backward)

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
        root = self._node
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            node._backward(node.grad)
            node._backward, node._parents = _spent, ()
            if node is not root:
                node.grad = None

    # operator sugar; the constant side of a mixed add gets no gradient
    def __add__(self, other):
        return add(self, other)


def _node(x) -> _Node | None:
    """x's graph node, or None for a constant."""
    return x._node if isinstance(x, Tensor) else None


def _accum(node: _Node, g: np.ndarray) -> None:
    # g may be shared (add hands one array to both parents): keep, never write
    if node.grad is None:
        if node.sink is not None and g is not node.sink:
            np.copyto(node.sink, g)
            g = node.sink
        node.grad = g
    elif node.grad is node.sink:
        np.add(node.sink, g, out=node.sink)
    else:
        node.grad = node.grad + g


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
    na, nb, sa, sb = a._node, _node(b), a.data.shape, bd.shape

    def backward(g):
        _accum(na, _unbroadcast(g, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g, sb))

    return Tensor(a.data + bd, parents, backward)


def _tensors(rule: str, *operands) -> None:
    """Refuse operands that are not all Tensors, naming ``rule`` and their types."""
    if not all(isinstance(t, Tensor) for t in operands):
        raise ContractError(f"{rule}, got " + " and ".join(type(t).__name__ for t in operands))


def mul(a: Tensor, b) -> Tensor:
    ad, bd = a.data, _raw(b)
    parents = (a, b) if isinstance(b, Tensor) else (a,)
    na, nb, sa = a._node, _node(b), ad.shape
    out = ad * bd
    if nb is None:
        ad = None  # only b's gradient reads a's values

    def backward(g):
        _accum(na, _unbroadcast(g * bd, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g * ad, bd.shape))

    return Tensor(out, parents, backward)


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """a: (..., k) times w: (k, m), both Tensors.

    The leading axes are flattened so each product is one GEMM; numpy's
    stacked matmul would run one small GEMM per leading index.  w's gradient
    is computed in its sink when it has one.  When BLAS runs one thread, the
    backward's two GEMMs run side by side; a BLAS that runs more already
    keeps the CPUs busy.
    """
    _tensors("matmul multiplies two Tensors", a, w)
    ad, wd = a.data, w.data
    if wd.ndim != 2 or ad.shape[-1] != wd.shape[0]:
        raise ContractError(
            f"matmul shapes incompatible: {ad.shape} x {wd.shape}"
        )
    na, nw, sa = a._node, w._node, ad.shape
    k, m = wd.shape
    a2 = ad.reshape(-1, k)

    def backward(g):
        g2, sink = g.reshape(-1, m), nw.sink if nw.grad is None else None
        if _blas_threads() == 1:
            ga = np.empty(a2.shape)
            _, gw = side_by_side(lambda: np.matmul(g2, wd.T, out=ga),
                                 lambda: np.matmul(a2.T, g2, out=sink))
        else:
            ga, gw = g2 @ wd.T, np.matmul(a2.T, g2, out=sink)
        _accum(na, ga.reshape(sa))
        _accum(nw, gw)

    return Tensor((a2 @ wd).reshape(sa[:-1] + (m,)), (a, w), backward)


def factored_matmul(x: Tensor, coef: np.ndarray, basis: np.ndarray, w: Tensor) -> Tensor:
    """x @ w for a Tensor x: (..., n*E) whose every E-block is a combination of
    the K rows of ``basis`` (K, E): block i of x == coef block i (..., K) @ basis.

    The forward is coef @ V and the weight gradient basis^T (coef^T g), per
    E-block, with V the basis times each E-row block of w: K/E of the flops
    of x @ w and x^T g.  The gradient to x stays g @ w^T.  coef and basis are
    data, so whatever x was computed from gets its gradient through x alone.
    With coef = x and basis = eye(E) this is ``matmul``, bit for bit.
    """
    _tensors("factored_matmul multiplies two Tensors", x, w)
    xd, wd = x.data, w.data
    k, e = basis.shape
    blocks = xd.shape[-1] // e
    if (wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or blocks * e != xd.shape[-1]
            or coef.shape != xd.shape[:-1] + (blocks * k,)):
        raise ContractError(f"factored_matmul shapes incompatible: x {xd.shape} = coef "
                            f"{coef.shape} over basis {basis.shape}, times w {wd.shape}")
    nx, nw, sx = x._node, w._node, xd.shape
    m = wd.shape[1]
    c2 = coef.reshape(-1, blocks * k)

    def backward(g):
        g2 = g.reshape(-1, m)
        _accum(nx, (g2 @ wd.T).reshape(sx))
        cg = (c2.T @ g2).reshape(blocks, k, m)
        _accum(nw, np.matmul(basis.T, cg).reshape(blocks * e, m))

    v = np.matmul(basis, wd.reshape(blocks, e, m)).reshape(blocks * k, m)
    return Tensor((c2 @ v).reshape(sx[:-1] + (m,)), (x, w), backward)


def lift_columns(x: np.ndarray, u) -> np.ndarray:
    """The (..., 2) columns [x, u] of constant (..., 1) arrays x and u (u
    broadcasts to x): what ``lift`` multiplies by [scale; bias]."""
    cols = np.empty(x.shape[:-1] + (2,))
    cols[..., :1] = x
    cols[..., 1:] = u
    return cols


def lift(coef: np.ndarray, basis: Tensor) -> Tensor:
    """Constant coefficients (..., n*K) lifted by a (K, E) basis: each K-block
    of coef times the basis becomes an E-block of the (..., n*E) result.

    One (N*n, K) @ (K, E) GEMM writes the result; broadcasting (..., 1)
    against (E,) would run numpy's inner loop once per E entries.  Only the
    basis gets a gradient, coef^T g, so the closure keeps coef and not the
    basis's values.  With n = 1 this is ``coef @ basis.data`` bit for bit.
    """
    k, e = basis.shape
    c2 = coef.reshape(-1, k)
    nb = basis._node

    def backward(g):
        _accum(nb, c2.T @ g.reshape(-1, e))

    out = (c2 @ basis.data).reshape(coef.shape[:-1] + (coef.shape[-1] // k * e,))
    return Tensor(out, (basis,), backward)


def lift_add_by_channel(x: np.ndarray, basis: Tensor, rec: Tensor) -> Tensor:
    """Constant x (B, L, D) lifted by a (2, E) basis, as ``lift`` lifts the
    columns [x, 1], plus a (B, L, D, E) Tensor ``rec``, written channel-major
    and flattened per channel: (B, D, L*E).

    The lift is one GEMM over channel-major rows straight into a fresh
    (B, D, L, E) buffer, and rec is added into it in place, so the flat
    result is a reshape of that buffer; rec laid out channel-major is read
    contiguously.  rec gets a transposed view of the gradient, and the basis
    [x, 1]^T g, reduced over time-major rows as ``lift`` reduces them.
    """
    _tensors("lift_add_by_channel takes a Tensor basis and reconstruction", basis, rec)
    n, l, d = x.shape
    e = basis.shape[1]
    if basis.shape != (2, e) or rec.shape != (n, l, d, e):
        raise ContractError(f"lift_add_by_channel adds a (B, L, D, E) reconstruction to x "
                            f"(B, L, D) lifted by a (2, E) basis, got x {x.shape}, basis "
                            f"{basis.shape} and reconstruction {rec.shape}")
    nb, nr = basis._node, rec._node
    out = np.empty((n, d, l, e))
    np.matmul(lift_columns(x.transpose(0, 2, 1)[..., None], 1.0).reshape(-1, 2), basis.data,
              out=out.reshape(-1, e))
    np.add(out, rec.data.transpose(0, 2, 1, 3), out=out)

    def backward(g):
        gt = g.reshape(n, d, l, e).transpose(0, 2, 1, 3)
        _accum(nr, gt)
        _accum(nb, lift_columns(x[..., None], 1.0).reshape(-1, 2).T @ gt.reshape(-1, e))

    return Tensor(out.reshape(n, d, l * e), (basis, rec), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    na = a._node

    def backward(g):
        _accum(na, np.transpose(g, inverse))

    return Tensor(np.transpose(a.data, axes), (a,), backward)


def split(a: Tensor, idxs, shape=None, axes=None) -> list[Tensor]:
    """Disjoint basic-index parts of ``a`` viewed as ``shape`` (its own by
    default): ``view[idx]`` for each entry of ``idxs``, its axes permuted by
    ``axes`` when given.  Every part is a view of ``a``.  Their gradients
    fill one buffer, which a hub node hands to ``a`` after all of them ran.
    A buffer the parts cover is not zero-filled: the hub zeroes only the
    parts whose backward never ran."""
    buf: list[np.ndarray] = []
    na, own = a._node, a.data.shape
    shape = own if shape is None else tuple(shape)
    view = a.data.reshape(shape)

    def pick(arr, idx):
        return arr[idx] if axes is None else arr[idx].transpose(axes)

    covers = sum(pick(view, idx).size for idx in idxs) == view.size
    unwritten = set(range(len(idxs)))

    def collect(g):
        if buf:
            for i in unwritten:
                pick(buf[0], idxs[i])[...] = 0.0
            _accum(na, buf.pop().reshape(own))

    hub = Tensor(a.data, (a,), collect)

    def part(i, idx):
        def backward(g):
            if not buf:
                buf.append(np.empty(shape) if covers else np.zeros(shape))
            pick(buf[0], idx)[...] = g
            unwritten.discard(i)

        return Tensor(pick(view, idx), (hub,), backward)

    return [part(i, idx) for i, idx in enumerate(idxs)]


def stack(parts: list[Tensor], axis: int) -> Tensor:
    """Join equal-shaped tensors along a new axis."""
    nodes = [t._node for t in parts]

    def backward(g):
        for node, piece in zip(nodes, np.moveaxis(g, axis, 0)):
            _accum(node, piece)

    return Tensor(np.stack([t.data for t in parts], axis=axis), tuple(parts), backward)


def reshape(a: Tensor, shape) -> Tensor:
    """a's values as ``shape``; the gradient goes back in a's own shape."""
    na, own = a._node, a.data.shape

    def backward(g):
        _accum(na, g.reshape(own))

    return Tensor(a.data.reshape(shape), (a,), backward)


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


def block_matrix(parts: Tensor, layout: BlockLayout) -> Tensor:
    """Square matrix of grid x grid equal-sized square blocks from ``parts``
    (..., size, size), whose leading axes, flattened, number the parts the
    layout places; blocks no entry names are zero.

    The forward is one gather and one scatter.  The backward is one gather of
    every entry's block times its coef, then adds each later round into the
    first: a part's gradient is that of adding its blocks one by one, in
    table order.  A part the layout leaves unused gets a zero gradient.
    """
    own, grid = parts.data.shape, layout.grid
    size = own[-1]
    rows, cols, planes, coefs = layout.rows, layout.cols, layout.planes, layout.coefs
    flat = parts.data.reshape(-1, size, size)
    pieces = np.take(flat, planes, axis=0)
    pieces *= coefs
    out = np.zeros((grid, size, grid, size))
    out[rows, :, cols, :] = pieces
    used, count, node = planes[:len(planes) // layout.uses], len(flat), parts._node

    def backward(g):
        rounds = g.reshape(grid, size, grid, size)[rows, :, cols, :]
        rounds *= coefs
        rounds = rounds.reshape(layout.uses, len(used), size, size)
        # the parts' gradients are one array: it holds the first round
        for later in rounds[1:]:
            rounds[0] += later
        grad = rounds[0]
        if len(used) < count:
            grad = np.zeros((count, size, size))
            grad[used] = rounds[0]
        _accum(node, grad.reshape(own))

    return Tensor(out.reshape(grid * size, grid * size), (parts,), backward)


def _overlap_add(f: np.ndarray, starts, length: int) -> np.ndarray:
    """Sum window i of f (B, p, n, ...) in at starts[i] of a (B, length, ...) array
    laid out in memory as f's frames are; a reshape of f, and no copy, when the
    windows tile the length and each window's n axis follows the previous one's."""
    n = f.shape[2]
    if len(starts) * n == length and all(s == i * n for i, s in enumerate(starts)):
        return f.reshape((f.shape[0], length) + f.shape[3:])
    out = np.zeros_like(f[:, 0], shape=(f.shape[0], length) + f.shape[3:])
    for i, s in enumerate(starts):
        out[:, s:s + n] += f[:, i]
    return out


def windowed_frames(xd: np.ndarray, starts, n: int, window=None) -> np.ndarray:
    """The windows xd[:, s:s+n] for evenly spaced s in starts, stacked, (B, L, ...)
    -> (B, p, n, ...), each multiplied along its n axis by ``window`` (n,) when
    one is given.  Unwindowed frames are a read-only strided view of xd, as
    overlapping windows share samples; xd's own strides are kept."""
    hop = starts[1] - starts[0] if len(starts) > 1 else 0
    if (any(s != starts[0] + i * hop for i, s in enumerate(starts))
            or min(starts) < 0 or max(starts) + n > xd.shape[1]):
        raise ContractError(f"windows of {n} at {list(starts)} are not evenly spaced "
                            f"inside a length of {xd.shape[1]}")
    step = xd.strides[1]
    seg = np.lib.stride_tricks.as_strided(
        xd[:, starts[0]:], (xd.shape[0], len(starts), n) + xd.shape[2:],
        (xd.strides[0], hop * step, step) + xd.strides[2:], writeable=False)
    return seg if window is None else seg * np.reshape(window, (n,) + (1,) * (xd.ndim - 2))


def overlap_add(f: Tensor, starts, length: int) -> Tensor:
    """Adjoint of ``windowed_frames``: sum window i back in at starts[i],
    (B, p, n, ...) -> (B, L, ...)."""
    nf, n = f._node, f.data.shape[2]

    def backward(g):
        _accum(nf, windowed_frames(g, starts, n))

    return Tensor(_overlap_add(f.data, starts, length), (f,), backward)


def relu(a: Tensor) -> Tensor:
    na, mask = a._node, a.data > 0

    def backward(g):
        _accum(na, g * mask)

    return Tensor(np.maximum(a.data, 0.0), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    na, shape, n = a._node, a.data.shape, a.data.size

    def backward(g):
        _accum(na, np.full(shape, float(g) / n))

    return Tensor(a.data.mean(), (a,), backward)


def irfft_real(x: Tensor, n: int, axis: int = -1, index=None, out=None) -> Tensor:
    """Real synthesis from a one-sided spectrum whose plane axis is ``axis``
    (1/n normalised); with ``index``, from the kept bins it names; written
    into ``out`` when given (``fftkit.irfft_onesided``)."""
    out = fftkit.irfft_onesided(x.data, n, axis=axis, index=index, out=out)
    nx = x._node

    def backward(g):
        _accum(nx, fftkit.irfft_transpose(g, n, axis=axis, index=index))

    return Tensor(out, (x,), backward)


class CTensor:
    """Complex tensor as a (real, imag) pair of Tensors: the type of the
    spectra's per-window ``.windows`` views."""

    __slots__ = ("re", "im")

    def __init__(self, re: Tensor, im: Tensor):
        if re.data.shape != im.data.shape:
            raise ContractError(f"complex planes disagree: {re.data.shape} vs {im.data.shape}")
        self.re, self.im = re, im
