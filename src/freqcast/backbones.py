"""Frequency-domain mixing layers over compressed spectra.

Four interchangeable backbones, all mapping the p complex kept windows
(B, M, D, E), stacked as one (B, M, D, 2p*E) operand, to a same-shaped
operand by matrix products over the embedding axis:

* ``fd``    - each window through its own complex affine layer, no mixing.
* ``wm``    - each window mixes with neighbours up to a radius; neighbour
  weights enter conjugated by default (a flag restores plain weights).
* ``hc``    - the p windows are treated as one hyper-complex tensor of base
  2p (p in {2, 4, 8}) and pushed through a single hyper-complex affine map,
  needing only p complex weight matrices.
* ``basic`` - all-to-all mixing with a full p x p grid of weight matrices.

The backbones differ only in their block table: the entry
``(src, dst, weight, sign, conj_x, conj_w)`` adds
``sign * cx(x_src) @ cw(W_weight)`` to window ``dst``, where ``cx`` and
``cw`` conjugate when their flag is set.  A layer assembles its table into
one real (2pE x 2pE) matrix acting on the windows stacked as
``[re_0 .. re_{p-1}, im_0 .. im_{p-1}]``, so it is one matmul, one bias add
and one activation, which acts on the real and imaginary planes
independently.  Weights are E x E complex matrices shared over bins and
channels.

The matmul runs through the input's factors when it carries them: a lifted
spectrum is K = 2 coefficients per row times the basis [scale; bias], so the
forward and the weight gradient cost K/E of the dense products.  The
gradient to the operand stays dense, and reaches scale and bias through
top-M's lift of the kept rows and the basis that the analysis stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .autograd import BlockLayout, Tensor, block_matrix, factored_matmul, relu, reshape
from .compress import CompressedWindows
from .errors import ConfigError, ContractError
from .hypercomplex import component_product_table

BACKBONE_KINDS = ("fd", "wm", "hc", "basic")
HC_WINDOW_COUNTS = (2, 4, 8)
ACTIVATIONS = ("relu", "identity")
WEIGHT_MASKS = (None, "real", "imag")

# checkpoint name of window i's bias, after the "backbone.<kind>." prefix
_BIAS_NAMES = {"fd": "{}.b", "wm": "bias.{}", "hc": "b.{}", "basic": "bias.{}"}


@dataclass
class BackboneParams:
    """The complex E x E weights in block-table order, ``weights`` (2, n, E, E),
    and one complex length-E bias per window, ``biases`` (2, p, E); axis 0 is
    the plane (0 real, 1 imaginary).  So the weights viewed as (2n, E, E) are
    ``_layout``'s parts, and the flattened biases are in the operand's order.
    The checkpoint names each plane of each (``backbone_named_arrays``)."""

    weights: Tensor
    biases: Tensor
    radius: int = 1


def check_backbone(kind: str, window_count: int, radius: int) -> None:
    """Refuse a backbone kind, or a window count or radius that kind cannot use."""
    if kind not in BACKBONE_KINDS:
        raise ConfigError(f"unknown backbone kind {kind!r}; choose from {BACKBONE_KINDS}")
    if kind == "hc" and window_count not in HC_WINDOW_COUNTS:
        raise ConfigError(
            f"the hyper-complex backbone needs a window count (windows) in "
            f"{HC_WINDOW_COUNTS}, got {window_count}; use the window-mixing or basic "
            f"backbone instead"
        )
    # p == 1 is allowed and degenerates to the per-window layer
    if kind == "wm" and 1 < window_count <= radius:
        raise ConfigError(
            f"neighbor radius (radius) {radius} must be smaller than the "
            f"window count (windows) {window_count}"
        )


def check_radius(radius: int) -> None:
    if radius < 1:
        raise ConfigError(f"neighbor radius (radius) must be >= 1, got {radius}")


def check_activation(act: str) -> None:
    if act not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {act!r}; choose from {ACTIVATIONS}")


def block_table(kind: str, window_count: int, radius: int = 1,
                conjugate_neighbors: bool = True):
    """Weight names and blocks ``(src, dst, weight, sign, conj_x, conj_w)``.

    Weight indices follow the checkpoint name order; the first block that
    uses a weight fixes its place in the initialisation draw order.
    """
    p = window_count
    check_backbone(kind, p, radius)
    check_radius(radius)
    if kind == "fd":
        return [f"{i}.w" for i in range(p)], [(i, i, i, 1, False, False) for i in range(p)]
    if kind == "basic":
        pairs = [(src, dst) for src in range(p) for dst in range(p)]
        return ([f"{src}->{dst}" for src, dst in pairs],
                [(src, dst, n, 1, False, False) for n, (src, dst) in enumerate(pairs)])
    if kind == "hc":
        # output component k += sign * ca(x_i) * cb(w_j)
        return [f"w.{j}" for j in range(p)], [
            (i, k, j, sign, conj_x, conj_w)
            for k, i, j, sign, conj_x, conj_w in component_product_table(2 * p)
        ]
    pairs = [
        (src, dst)
        for dst in range(p)
        for off in range(1, radius + 1)
        for src in (dst - off, dst + off)
        if 0 <= src < p
    ]
    neighbors = sorted(pairs)
    names = [f"self.{i}" for i in range(p)] + [f"nbr.{s}->{d}" for s, d in neighbors]
    blocks = [(i, i, i, 1, False, False) for i in range(p)] + [
        (src, dst, p + neighbors.index((src, dst)), 1, False, conjugate_neighbors)
        for src, dst in pairs
    ]
    return names, blocks


def count_weight_matrices(kind: str, window_count: int, radius: int = 1) -> int:
    """Exact number of complex weight matrices a backbone instantiates, in
    closed form: the length of ``block_table``'s names, without building it."""
    p = window_count
    check_backbone(kind, p, radius)
    check_radius(radius)
    if kind == "basic":
        return p * p
    if kind == "wm":  # p self weights and the ordered pairs at distance 1..r
        r = min(radius, p - 1)
        return (2 * r + 1) * p - r * (r + 1)
    return p


def init_backbone(kind: str, rng, window_count: int, embed: int,
                  radius: int = 1) -> BackboneParams:
    """Weights uniform in +-1/sqrt(E), real plane drawn first, in the order
    the blocks first use them; zero biases."""
    names, blocks = block_table(kind, window_count, radius)
    scale = 1.0 / np.sqrt(embed)
    weights = np.empty((2, len(names), embed, embed))
    for w in dict.fromkeys(block[2] for block in blocks):
        weights[:, w] = rng.uniform(-scale, scale, size=(2, embed, embed))
    return BackboneParams(Tensor(weights), Tensor(np.zeros((2, window_count, embed))), radius)


@lru_cache(maxsize=None)
def _layout(kind: str, p: int, radius: int, conjugate_neighbors: bool,
            weight_mask: str | None) -> BlockLayout:
    """Where a block table puts the weights in the real (2pE x 2pE) matrix,
    as parts [w.re for w in weights] + [w.im for w in weights]: the weights
    Tensor viewed as (2n, E, E).

    A masked plane places no entries, so it contributes nothing and gets a
    zero gradient.
    """
    names, blocks = block_table(kind, p, radius, conjugate_neighbors)
    im = len(names)
    entries = []
    for src, dst, w, sign, conj_x, conj_w in blocks:
        sx = -1 if conj_x else 1
        sw = -1 if conj_w else 1
        if weight_mask != "real":
            entries += [(w, src, dst, sign), (w, p + src, p + dst, sign * sx)]
        if weight_mask != "imag":
            entries += [(im + w, src, p + dst, sign * sw),
                        (im + w, p + src, dst, -sign * sx * sw)]
    return BlockLayout.of(entries, 2 * p)


def backbone_forward(kind: str, c: CompressedWindows, params: BackboneParams,
                     act: str = "relu", radius: int = 1,
                     conjugate_neighbors: bool = True,
                     weight_mask: str | None = None) -> CompressedWindows:
    """One mixing layer: act(windows @ assembled matrix + bias), read from and
    written to the stacked (B, M, D, 2p*E) operand."""
    check_activation(act)
    if weight_mask not in WEIGHT_MASKS:
        raise ConfigError(f"unknown weight mask {weight_mask!r}")
    if kind == "wm" and radius != params.radius:
        raise ContractError(f"radius {radius} != parameter radius {params.radius}")
    p, e = c.window_count, c.embed
    n = count_weight_matrices(kind, p, radius)
    want, got = ((2, n, e, e), (2, p, e)), (params.weights.shape, params.biases.shape)
    if got != want:
        raise ContractError(f"{kind} over {p} windows of embedding {e} needs weights and "
                            f"biases shaped {want[0]} and {want[1]}, got {got[0]} and {got[1]}")
    mix = block_matrix(params.weights, _layout(kind, p, radius, conjugate_neighbors, weight_mask))
    f = c.factors
    coef, basis = (f.coef, f.basis.data) if f is not None else (c.stacked.data, np.eye(e))
    y = factored_matmul(c.stacked, coef, basis, mix) + reshape(params.biases, (-1,))
    if act == "relu":
        y = relu(y)
    return replace(c, stacked=y, factors=None)


def backbone_named_arrays(kind: str, params: BackboneParams) -> list[tuple[str, np.ndarray]]:
    """The checkpoint's listing: each plane of each weight and bias as a view,
    named ``backbone.<kind>.<name>.re``/``.im``; fd lists each window's weight
    and bias together."""
    names, _ = block_table(kind, params.biases.shape[1], params.radius)
    weights = list(zip(names, params.weights.data.swapaxes(0, 1)))
    biases = [(_BIAS_NAMES[kind].format(i), b)
              for i, b in enumerate(params.biases.data.swapaxes(0, 1))]
    order = [t for pair in zip(weights, biases) for t in pair] if kind == "fd" else weights + biases
    return [(f"backbone.{kind}.{name}.{plane}", planes[c])
            for name, planes in order for c, plane in enumerate(("re", "im"))]
