"""Full forecasting model: embed, analyse, compress, mix, synthesise, read out.

forward() maps a real (B, L, D) batch to (B, T, D):

    x -> embedding lift -> windowed spectra -> top-M compression
      -> backbone mixing -> position-aware padding -> overlap-add synthesis
      -> skip connection with the embedded input
      -> per-channel flatten (L*E) -> hidden -> horizon read-out head

The lift x * scale + bias is affine and the analysis linear, so the spectra
are computed from the raw input, analysed once per channel rather than once
per embedding dimension, and lifted in the spectral domain, where top-M
lifts only the rows it keeps.  Both lifts read the one basis [scale; bias]
that ``rstft`` stacks.  The embedded input itself is built only by the skip
connection (``embed``), lifted straight into the head's channel-major
(B, D, L*E) input, to which the reconstruction is added in place.

Masking modes (``config.MASK_PLANES``) zero the real or imaginary plane of the
spectra and/or of all backbone weight matrices, in training and inference
alike; biases are left alone.  The checkpoint format is documented in the
README: a magic string, a JSON header with the config and per-tensor
manifest, then raw little-endian float64 buffers.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import __version__
from .autograd import Tensor, as_data, lift_add_by_channel, matmul, relu, transpose
from .backbones import backbone_forward, backbone_named_arrays, init_backbone
from .compress import position_aware_pad, top_m_select
from .config import RunConfig, mask_planes
from .data import MAX_VALUES
from .errors import ConfigError, ContractError, open_input
from .spectral import SpectralWindows, istft, rstft

CHECKPOINT_MAGIC = b"FQCKPT01"


@dataclass
class ForecastParams:
    embed_scale: Tensor
    embed_bias: Tensor
    backbone_kind: str
    backbone: Any
    head_w1: Tensor
    head_b1: Tensor
    head_w2: Tensor
    head_b2: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every parameter Tensor by name, as the optimiser takes them."""
        kind = self.backbone_kind
        return [("embed.scale", self.embed_scale), ("embed.bias", self.embed_bias),
                (f"backbone.{kind}.weights", self.backbone.weights),
                (f"backbone.{kind}.biases", self.backbone.biases),
                ("head.w1", self.head_w1), ("head.b1", self.head_b1),
                ("head.w2", self.head_w2), ("head.b2", self.head_b2)]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """The checkpoint's listing: the values of ``named_tensors``, the
        backbone's two as the per-plane views of ``backbone_named_arrays``."""
        named = [(name, t.data) for name, t in self.named_tensors()]
        return named[:2] + backbone_named_arrays(self.backbone_kind, self.backbone) + named[4:]


def init_params(cfg: RunConfig, rng: np.random.Generator | None = None) -> ForecastParams:
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    e, h = cfg.embed, cfg.hidden
    flat = cfg.lookback * e
    params = ForecastParams(
        embed_scale=Tensor(rng.uniform(-1.0, 1.0, size=e)),
        embed_bias=Tensor(np.zeros(e)),
        backbone_kind=cfg.backbone,
        backbone=init_backbone(cfg.backbone, rng, cfg.windows, e, cfg.radius),
        head_w1=Tensor(rng.uniform(-1.0, 1.0, size=(flat, h)) / np.sqrt(flat)),
        head_b1=Tensor(np.zeros(h)),
        head_w2=Tensor(rng.uniform(-1.0, 1.0, size=(h, cfg.horizon)) / np.sqrt(h)),
        head_b2=Tensor(np.zeros(cfg.horizon)),
    )
    apply_weight_mask_to_data(params, cfg.mask_mode)
    return params


class _NoDraws:
    """Stands in for the random generator where only the shapes are wanted:
    every draw is zeros, so ``init_params`` allocates and draws nothing."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def apply_weight_mask_to_data(params: ForecastParams, mode: str) -> None:
    """Zero the masked weight plane in place so it starts (and stays) zero."""
    _, plane = mask_planes(mode)
    if plane is not None:
        params.backbone.weights.data[("real", "imag").index(plane)] = 0.0


def _mask_spectra(s: SpectralWindows, plane: str | None) -> SpectralWindows:
    """Zero one plane of lifted spectra: its coefficient plane, which lifts to
    a zero plane."""
    if plane is None:
        return s
    f = s.factors
    mask = np.array([plane != "real", plane != "imag"], dtype=np.float64).reshape(2, 1, 1, 1)
    return SpectralWindows(None, s.plan, factors=replace(f, coef=f.coef * mask))


def _batch(x, who: str) -> np.ndarray:
    """x as a (B, L, D) data array with at least one sample and one channel."""
    x = as_data(x, who)
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[2] == 0:
        raise ContractError(f"{who} expects (B, L, D) with B >= 1 and D >= 1, "
                            f"got shape {x.shape}")
    return x


def embed(x, basis: Tensor, rec: Tensor) -> Tensor:
    """The skip connection: the scalar-to-vector lift x[b,t,d] * scale[e] +
    bias[e] plus the (B, L, D, E) reconstruction ``rec``, as the head's
    per-channel input out[b, d, t*E + e] (``autograd.lift_add_by_channel``).

    ``basis`` is the (2, E) Tensor [scale; bias] that ``rstft`` stacked for
    the analysis (``LiftFactors.basis``), so both lifts send their gradients
    to scale and bias through one node.  x is data: gradients reach the basis
    only, and a Tensor computed by earlier ops is refused rather than
    silently cut from its history.
    """
    return lift_add_by_channel(_batch(x, "embed"), basis, rec)


def forward(x, params: ForecastParams, cfg: RunConfig,
            debug: dict | None = None) -> Tensor:
    """Run the whole pipeline on a (B, L, D) batch; returns (B, T, D).

    The batch is data, as in ``embed``: no gradient flows back to it.  The
    basis [scale; bias] is stacked once, by ``rstft``; the skip connection
    lifts by the same Tensor.  Each stage's output is let go once the next
    stage has read it, so past its stage only what a backward closure reads
    stays alive.  A ``debug`` dict, when given, keeps every stage output
    under its name.  A batch whose largest array would hold more than
    ``data.MAX_VALUES`` values is refused before anything is allocated.
    """
    x = _batch(x, "forward")
    if x.shape[1] != cfg.lookback:
        raise ContractError(
            f"forward: input length {x.shape[1]} != configured lookback {cfg.lookback}"
        )
    plan = cfg.plan()
    (b, _, d), p, e = x.shape, plan.window_count, cfg.embed
    # the synthesis frames (B, p, nfft, D, E), the analysis coefficients
    # (B, p, 2, bins, D, 2), top-M's operand (B, M, D, 2p*E) or the head's
    # (B, D, hidden) and (B, D, horizon); the windows cover the lookback, so the
    # frames are never smaller than the embedded input (B, L, D, E)
    largest = b * d * max(p * plan.nfft * e, p * 2 * plan.bins * 2, cfg.top_m * 2 * p * e,
                          cfg.hidden, cfg.horizon)
    if largest > MAX_VALUES:
        raise ConfigError(f"a batch would hold an array of {largest:,} values, above the cap "
                          f"of {MAX_VALUES:,}: it grows with batch={b}, lookback={cfg.lookback}, "
                          f"channels={d}, windows={p}, nfft={plan.nfft}, embed={e}, "
                          f"top_m={cfg.top_m}, hidden={cfg.hidden} and horizon={cfg.horizon}")
    spectral_plane, weight_plane = mask_planes(cfg.mask_mode)

    def stage(name: str, out):
        if debug is not None:
            debug[name] = out
        return out

    h = stage("spectra", _mask_spectra(
        rstft(x[..., None], plan, params.embed_scale, params.embed_bias),
        spectral_plane))
    basis = h.factors.basis  # [scale; bias], for the skip connection's lift too
    h = stage("compressed", top_m_select(h, cfg.top_m))
    h = stage("mixed", backbone_forward(
        cfg.backbone,
        h,
        params.backbone,
        act=cfg.activation,
        radius=cfg.radius,
        conjugate_neighbors=cfg.conjugate_neighbors,
        weight_mask=weight_plane,
    ))
    h = stage("padded", position_aware_pad(h))
    h = stage("reconstructed", istft(h))
    # the skip connection, (B, D, L*E); the embedded input is built here, so
    # that it is not alive through the spectral stages
    h = stage("skip", embed(x, basis, h))
    h = matmul(h, params.head_w1) + params.head_b1
    if cfg.activation == "relu":
        h = relu(h)
    h = matmul(h, params.head_w2) + params.head_b2
    return transpose(h, (0, 2, 1))


# --- checkpoints --------------------------------------------------------------

def save_checkpoint(path: str, params: ForecastParams, cfg: RunConfig,
                    norm_stats: dict | None = None) -> None:
    named = params.named_arrays()
    header = {
        "format": "freqcast-checkpoint",
        "version": 1,
        "package_version": __version__,
        "config": cfg.as_dict(),
        "norm_stats": norm_stats,
        "tensors": [
            {"name": name, "role": name.split(".", 1)[0], "shape": list(values.shape)}
            for name, values in named
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, values in named:
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ForecastParams, RunConfig, dict | None]:
    with open_input(path, "checkpoint", ContractError, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"{path} is not a freqcast checkpoint")
        raw = fh.read(8)
        hlen = int.from_bytes(raw, "little")
        if len(raw) != 8 or hlen > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ContractError(f"checkpoint {path} is truncated inside its header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as e:  # not UTF-8 or not JSON
            raise ContractError(f"checkpoint {path} header is not JSON: {e}") from e
        missing = [key for key in ("version", "config", "tensors")
                   if not isinstance(header, dict) or key not in header]
        if missing:
            raise ContractError(f"checkpoint {path} header lacks {missing}")
        if header["version"] != 1:
            raise ContractError(f"unsupported checkpoint version {header['version']}")
        try:
            cfg = RunConfig.from_dict(header["config"]).validate()
        except ConfigError as e:  # init_params would fail on it with a bare numpy error
            raise ContractError(f"checkpoint {path} field 'config': {e}") from e
        params = init_params(cfg, _NoDraws())  # the shapes and names; the file has the values
        named = dict(params.named_arrays())
        if not isinstance(header["tensors"], list):
            raise ContractError(f"checkpoint {path} field 'tensors' must be a list, "
                                f"got {header['tensors']!r}")
        for i, e in enumerate(header["tensors"]):
            lacking = [k for k in ("name", "shape") if not isinstance(e, dict) or k not in e]
            if lacking:
                raise ContractError(f"checkpoint {path} tensor entry {i} lacks {lacking}")
            if not isinstance(e["name"], str):
                raise ContractError(f"checkpoint {path} tensor entry {i} field 'name' must "
                                    f"be a string, got {e['name']!r}")
            if not (isinstance(e["shape"], list) and all(
                    type(n) is int and n >= 0 for n in e["shape"])):
                raise ContractError(f"checkpoint {path} tensor entry {i} field 'shape' must "
                                    f"be a list of sizes, got {e['shape']!r}")
        listed = [entry["name"] for entry in header["tensors"]]
        missing = [name for name in named if name not in listed]
        unknown = [name for name in listed if name not in named]
        if missing or unknown:
            raise ContractError(
                f"checkpoint tensors do not match this model: missing {missing}, "
                f"unknown {unknown}"
            )
        if len(listed) != len(named):
            raise ContractError("checkpoint lists a model tensor more than once")
        for entry in header["tensors"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if named[name].shape != shape:
                raise ContractError(
                    f"checkpoint tensor {name!r} has shape {shape}, "
                    f"model expects {named[name].shape}"
                )
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ContractError(f"checkpoint truncated while reading {name!r}")
            values = np.frombuffer(buf, dtype="<f8").reshape(shape)
            if not np.isfinite(values).all():
                raise ContractError(f"checkpoint {path} tensor {name!r} holds non-finite values")
            named[name][...] = values
        if fh.read(1):
            raise ContractError(f"checkpoint has trailing bytes after {listed[-1]!r}")
    return params, cfg, header.get("norm_stats")
