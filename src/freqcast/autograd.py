"""Reverse-mode differentiation over float64 numpy arrays.

A ``Tensor`` records the op that produced it as a backward closure, in the
micrograd style; ``Tensor.backward()`` topologically sorts the graph and
accumulates gradients into every node's ``.grad``.  Complex values never
appear on the tape: ``CTensor`` is just a (real, imag) pair of Tensors, so
complex and hyper-complex layers differentiate through their real planes.

Non-Tensor operands are treated as constants and receive no gradient.
"""

from __future__ import annotations

import numpy as np

from . import fftkit
from .errors import ContractError


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def backward(self):
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
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # operator sugar; the constant side of a mixed op gets no gradient
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return getitem(self, idx)


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

    A Tensor computed by earlier ops is refused: its history would be cut
    without a word, and no gradient would reach what it was computed from.
    """
    if isinstance(x, Tensor) and x._parents:
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


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, -g)

    return Tensor(-a.data, (a,), backward)


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
    stacked matmul would run one small GEMM per leading index.
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
        if isinstance(a, Tensor):
            _accum(a, (g2 @ wd.T).reshape(ad.shape))
        if isinstance(w, Tensor):
            _accum(w, a2.T @ g2)

    return Tensor((a2 @ wd).reshape(ad.shape[:-1] + (m,)), parents, backward)


def lift(x: np.ndarray, u, scale: Tensor, bias: Tensor) -> Tensor:
    """x * scale + u * bias for constant (..., 1) arrays x and u (u broadcasts
    to x) and (E,) Tensors: one (N, 2) @ (2, E) GEMM onto a last axis of E.

    Broadcasting (..., 1) against (E,) would run numpy's inner loop once per
    E entries; the GEMM writes the (..., E) result in one pass.
    """
    cols = np.empty(x.shape[:-1] + (2,))
    cols[..., :1] = x
    cols[..., 1:] = u
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


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing only."""

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accum(a, buf)

    return Tensor(a.data[idx], (a,), backward)


def split(a: Tensor, idxs) -> list[Tensor]:
    """Disjoint basic-index parts ``a[idx]``, one per entry of ``idxs``.  Their
    gradients fill one buffer, which a hub node hands to ``a`` after all of
    them ran; p ``getitem`` nodes would allocate p buffers."""
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


def block_matrix(entries: list[tuple[Tensor, int, int, float]], grid: int) -> Tensor:
    """Square matrix of grid x grid equal-sized square blocks.

    Each entry (t, row, col, coef) adds coef * t into block (row, col);
    blocks no entry names are zero.  A tensor may appear in many entries.
    """
    size = entries[0][0].data.shape[0]
    blocks = np.zeros((grid, grid, size, size))
    for t, row, col, coef in entries:
        blocks[row, col] += coef * t.data
    parents = tuple({id(t): t for t, _, _, _ in entries}.values())

    def backward(g):
        g = g.reshape(grid, size, grid, size)
        for t, row, col, coef in entries:
            _accum(t, coef * g[row, :, col, :])

    out = blocks.transpose(0, 2, 1, 3).reshape(grid * size, grid * size)
    return Tensor(out, parents, backward)


def _overlap_add(f: np.ndarray, starts, length: int) -> np.ndarray:
    out = np.zeros((f.shape[0], length) + f.shape[3:])
    for i, s in enumerate(starts):
        out[:, s:s + f.shape[2]] += f[:, i]
    return out


def windowed_frames(xd: np.ndarray, starts, n: int, window=None) -> np.ndarray:
    """The windows xd[:, s:s+n] for s in starts, stacked, (B, L, ...) -> (B, p, n, ...),
    each multiplied along its n axis by ``window`` (n,) when one is given."""
    seg = xd[:, np.add.outer(starts, np.arange(n))]
    return seg if window is None else seg * np.reshape(window, (n,) + (1,) * (xd.ndim - 2))


def frames(x: Tensor, starts, n: int, window=None) -> Tensor:
    """``windowed_frames`` of a Tensor; its adjoint is the windowed overlap-add."""
    length = x.data.shape[1]

    def backward(g):
        if window is not None:
            g = g * np.reshape(window, (n,) + (1,) * (g.ndim - 3))
        _accum(x, _overlap_add(g, starts, length))

    return Tensor(windowed_frames(x.data, starts, n, window), (x,), backward)


def overlap_add(f: Tensor, starts, length: int) -> Tensor:
    """Adjoint of ``frames``: sum window i back in at starts[i], (B, p, n, ...) -> (B, L, ...)."""
    idx = np.add.outer(starts, np.arange(f.data.shape[2]))

    def backward(g):
        _accum(f, g[:, idx])

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


def put_rows(a: Tensor, rows: np.ndarray, shape) -> Tensor:
    """Mirror of ``take_rows``: a zero tensor of ``shape`` with row rows[j] set to
    a[j], for a of shape rows.shape + (E,) and distinct rows."""
    e = a.data.shape[-1]
    if a.data.shape[:-1] != rows.shape or shape[-1] != e:
        raise ContractError(f"put_rows: {a.data.shape} values for {rows.shape} rows "
                            f"into shape {tuple(shape)}")
    out = np.zeros((int(np.prod(shape[:-1])), e))
    _check_rows(rows, out.shape[0])

    def backward(g):
        _accum(a, np.take(g.reshape(-1, e), rows, axis=0))

    out[rows.ravel()] = a.data.reshape(-1, e)
    return Tensor(out.reshape(shape), (a,), backward)


def rfft_pair(x: Tensor, axis: int = -1) -> tuple[Tensor, Tensor]:
    """One-sided DFT of a real tensor; returns (real, imag) plane Tensors."""
    n = x.data.shape[axis]
    re, im = fftkit.rfft_onesided(x.data, axis=axis)

    def backward_re(g):
        _accum(x, fftkit.rfft_transpose(g, np.zeros_like(g), n, axis=axis))

    def backward_im(g):
        _accum(x, fftkit.rfft_transpose(np.zeros_like(g), g, n, axis=axis))

    return Tensor(re, (x,), backward_re), Tensor(im, (x,), backward_im)


def irfft_real(re: Tensor, im: Tensor, n: int, axis: int = -1) -> Tensor:
    """Real synthesis from one-sided planes (1/n normalised)."""
    out = fftkit.irfft_onesided(re.data, im.data, n, axis=axis)

    def backward(g):
        gre, gim = fftkit.irfft_transpose(g, n, axis=axis)
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
