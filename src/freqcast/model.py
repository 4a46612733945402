"""Full forecasting model: embed, analyse, compress, mix, synthesise, read out.

forward() maps a real (B, L, D) batch to (B, T, D):

    x -> embedding lift -> windowed spectra -> top-M compression
      -> backbone mixing -> position-aware padding -> overlap-add synthesis
      -> skip connection with the embedded input
      -> per-channel flatten (L*E) -> hidden -> horizon read-out head

The lift x * scale + bias is affine and the analysis linear, so the spectra
are computed from the raw input, analysed once per channel rather than once
per embedding dimension, and lifted in the spectral domain; the embedded
input itself is built only for the skip connection.

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
from .autograd import Tensor, as_data, lift, lift_columns, matmul, relu, reshape, transpose
from .backbones import (
    backbone_forward,
    backbone_named_tensors,
    init_backbone,
)
from .compress import position_aware_pad, top_m_select
from .config import RunConfig, mask_planes
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
        named = [
            ("embed.scale", self.embed_scale),
            ("embed.bias", self.embed_bias),
        ]
        named += backbone_named_tensors(self.backbone_kind, self.backbone)
        named += [
            ("head.w1", self.head_w1),
            ("head.b1", self.head_b1),
            ("head.w2", self.head_w2),
            ("head.b2", self.head_b2),
        ]
        return named


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
    if plane is None:
        return
    for w in params.backbone.weights:
        (w.re if plane == "real" else w.im).data[...] = 0.0


def _mask_spectra(s: SpectralWindows, plane: str | None) -> SpectralWindows:
    """Zero one plane of the spectra, and the same plane of their factors."""
    f = s.factors
    if plane == "real":
        return SpectralWindows(s.re * 0.0, s.im, s.plan,
                               factors=None if f is None else replace(f, re=f.re * 0.0))
    if plane == "imag":
        return SpectralWindows(s.re, s.im * 0.0, s.plan,
                               factors=None if f is None else replace(f, im=f.im * 0.0))
    return s


def _batch(x, who: str) -> np.ndarray:
    """x as a (B, L, D) data array with at least one sample and one channel."""
    x = as_data(x, who)
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[2] == 0:
        raise ContractError(f"{who} expects (B, L, D) with B >= 1 and D >= 1, "
                            f"got shape {x.shape}")
    return x


def embed(x, params: ForecastParams) -> Tensor:
    """Scalar-to-vector lift: out[b,t,d,e] = x[b,t,d] * scale[e] + bias[e].

    x is data: gradients reach scale and bias only, and a Tensor computed by
    earlier ops is refused rather than silently cut from its history.
    """
    x = _batch(x, "embed")
    return lift(lift_columns(x[..., None], 1.0), params.embed_scale, params.embed_bias)


def forward(x, params: ForecastParams, cfg: RunConfig,
            debug: dict | None = None) -> Tensor:
    """Run the whole pipeline on a (B, L, D) batch; returns (B, T, D).

    The batch is data, as in ``embed``: no gradient flows back to it.
    """
    x = _batch(x, "forward")
    if x.shape[1] != cfg.lookback:
        raise ContractError(
            f"forward: input length {x.shape[1]} != configured lookback {cfg.lookback}"
        )
    spectral_plane, weight_plane = mask_planes(cfg.mask_mode)

    x_e = embed(x, params)
    plan = cfg.plan()
    spectra = _mask_spectra(rstft(x[..., None], plan, params.embed_scale, params.embed_bias),
                            spectral_plane)
    compressed = top_m_select(spectra, cfg.top_m)
    mixed = backbone_forward(
        cfg.backbone,
        compressed,
        params.backbone,
        act=cfg.activation,
        radius=cfg.radius,
        conjugate_neighbors=cfg.conjugate_neighbors,
        weight_mask=weight_plane,
    )
    padded = position_aware_pad(mixed)
    x_rec = istft(padded)
    skip = x_rec + x_e

    b, l, d, e = skip.shape
    flat = reshape(transpose(skip, (0, 2, 1, 3)), (b, d, l * e))
    hid = matmul(flat, params.head_w1) + params.head_b1
    if cfg.activation == "relu":
        hid = relu(hid)
    out = matmul(hid, params.head_w2) + params.head_b2
    pred = transpose(out, (0, 2, 1))

    if debug is not None:
        debug.update(
            embedded=x_e, spectra=spectra, compressed=compressed,
            mixed=mixed, padded=padded, reconstructed=x_rec,
        )
    return pred


# --- checkpoints --------------------------------------------------------------

def save_checkpoint(path: str, params: ForecastParams, cfg: RunConfig,
                    norm_stats: dict | None = None) -> None:
    named = params.named_tensors()
    header = {
        "format": "freqcast-checkpoint",
        "version": 1,
        "package_version": __version__,
        "config": cfg.as_dict(),
        "norm_stats": norm_stats,
        "tensors": [
            {"name": name, "role": name.split(".", 1)[0], "shape": list(t.data.shape)}
            for name, t in named
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


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
        named = dict(params.named_tensors())
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
            if named[name].data.shape != shape:
                raise ContractError(
                    f"checkpoint tensor {name!r} has shape {shape}, "
                    f"model expects {named[name].data.shape}"
                )
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ContractError(f"checkpoint truncated while reading {name!r}")
            values = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(values).all():
                raise ContractError(f"checkpoint {path} tensor {name!r} holds non-finite values")
            named[name].data = values
        if fh.read(1):
            raise ContractError(f"checkpoint has trailing bytes after {listed[-1]!r}")
    return params, cfg, header.get("norm_stats")
