"""Run configuration: defaults, file/flag parsing, validation, hashing.

Config files are flat ``key = value`` text; values are parsed as JSON
literals where possible and kept as strings otherwise.  Command-line
overrides use the same ``key=value`` form and win over file values.  The
merged mapping is what lands in the run manifest, so a manifest alone
reproduces a run.

Validation states each rule once: a rule that a component enforces is checked
by the component's own function, so ``validate()`` gives its message.  Only the
synthetic-corpus rules are restated, as ``synth_corpus`` words them by flag.
Sizes are capped before anything is allocated: neither the parameter count,
a synthetic corpus nor the plan's DFT operators may exceed ``data.MAX_VALUES``
float64 values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .backbones import check_activation, check_backbone, check_radius, count_weight_matrices
from .compress import check_top_m
from .data import MAX_VALUES, SYNTH_KINDS
from .errors import ConfigError, open_text
from .spectral import StftPlan, plan_stft

# mask_mode -> (plane of the input spectra, plane of the backbone weights) it zeroes
MASK_PLANES = {
    "none": (None, None),
    "x_real": ("real", None),
    "x_imag": ("imag", None),
    "w_real": (None, "real"),
    "w_imag": (None, "imag"),
    "w_imag+x_imag": ("imag", "imag"),
    "w_real+x_real": ("real", "real"),
}


def mask_planes(mode: str) -> tuple[str | None, str | None]:
    if mode not in MASK_PLANES:
        raise ConfigError(f"unknown mask_mode {mode!r}; choose from {tuple(MASK_PLANES)}")
    return MASK_PLANES[mode]


@dataclass
class RunConfig:
    # data source: a CSV path, or "synth:<kind>"
    data: str = "synth:sinusoid_mix"
    synth_length: int = 2000
    synth_channels: int = 2
    synth_noise: float = 0.1

    # task geometry
    lookback: int = 96
    horizon: int = 96

    # model
    embed: int = 16
    windows: int = 4
    nfft: int = 24
    top_m: int = 4
    hidden: int = 256
    backbone: str = "hc"
    radius: int = 1
    window_fn: str = "rectangular"
    conjugate_neighbors: bool = True
    activation: str = "relu"
    mask_mode: str = "none"

    # training
    epochs: int = 10
    batch: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.9
    seed: int = 0
    stride: int = 1

    def plan(self) -> StftPlan:
        return plan_stft(self.lookback, self.windows, self.nfft, self.window_fn)

    def parameter_count(self) -> int:
        """The float64 values ``model.init_params`` allocates, in closed form."""
        e, h = self.embed, self.hidden
        weights = count_weight_matrices(self.backbone, self.windows, self.radius)
        return (2 * e + 2 * weights * e * e + 2 * self.windows * e
                + self.lookback * e * h + h + h * self.horizon + self.horizon)

    def problems(self) -> list[str]:
        """Collect every validation failure; empty list means valid."""
        out = []

        def check(rule, *args):
            try:
                return rule(*args)
            except ConfigError as e:
                out.append(str(e))

        plan = check(self.plan)
        check(check_backbone, self.backbone, self.windows, self.radius)
        check(check_radius, self.radius)
        if plan is not None:
            check(check_top_m, self.top_m, plan)
        check(mask_planes, self.mask_mode)
        check(check_activation, self.activation)
        if self.data.startswith("synth:"):
            kind = self.data.split(":", 1)[1]
            if kind not in SYNTH_KINDS:
                out.append(f"unknown synthetic corpus {kind!r} in data={self.data!r}; "
                           f"choose from {SYNTH_KINDS}")
            if self.synth_length < 256:
                out.append(f"synth_length must be >= 256, got {self.synth_length}")
            if self.synth_channels < 1:
                out.append(f"synth_channels must be >= 1, got {self.synth_channels}")
            if not 0 <= self.synth_noise < math.inf:
                out.append(f"synth_noise must be finite and >= 0, got {self.synth_noise}")
            if self.synth_length * self.synth_channels > MAX_VALUES:
                out.append(f"synth_length * synth_channels = {self.synth_length:,} * "
                           f"{self.synth_channels:,} values is above the cap of {MAX_VALUES:,}")
        if self.seed < 0:
            out.append(f"seed must be >= 0, got {self.seed}")
        for name in ("lookback", "horizon", "embed", "hidden", "epochs", "batch", "stride"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            out.append(f"lr must be positive and finite, got {self.lr}")
        if not 0 < self.lr_decay <= 1:
            out.append(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        count = self.parameter_count() if not out else 0  # the count needs valid sizes
        if count > MAX_VALUES:
            out.append(f"the model would hold {count:,} parameters, above the cap of "
                       f"{MAX_VALUES:,}: they grow with backbone={self.backbone!r}, "
                       f"windows={self.windows}, radius={self.radius}, embed={self.embed}, "
                       f"lookback={self.lookback}, hidden={self.hidden} and "
                       f"horizon={self.horizon}")
        return out

    def validate(self) -> "RunConfig":
        problems = self.problems()
        if problems:
            raise ConfigError(
                "invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems)
            )
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a configuration must be a mapping, got {type(d).__name__}")
        known = set(cls.field_names())
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
        merged = {f.name: d.get(f.name, getattr(cls(), f.name)) for f in dataclasses.fields(cls)}
        coerced = {}
        for f in dataclasses.fields(cls):
            v = merged[f.name]
            try:
                if f.type in ("int", int):
                    # int() would silently drop a fraction, and make a bool 0 or 1
                    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
                        raise ValueError(v)
                    coerced[f.name] = int(v)
                elif f.type in ("float", float):
                    if isinstance(v, bool):  # float() would make it 0.0 or 1.0
                        raise ValueError(v)
                    coerced[f.name] = float(v)
                elif f.type in ("bool", bool):
                    coerced[f.name] = _as_bool(v)
                else:
                    coerced[f.name] = str(v)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {f.name}: {v!r}")
        return cls(**coerced)


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)) and v in (0, 1):
        return bool(v)
    if isinstance(v, str):
        if v.lower() in ("true", "1", "yes", "on"):
            return True
        if v.lower() in ("false", "0", "no", "off"):
            return False
    raise ValueError(v)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_config_file(path: str) -> dict:
    """Read flat ``key = value`` lines; '#' starts a comment."""
    out: dict = {}
    with open_text(path, "config file", ConfigError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = _parse_value(value.strip())
    return out


def apply_overrides(base: dict, overrides: list[str]) -> dict:
    out = dict(base)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = _parse_value(value.strip())
    return out


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.as_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:10]
