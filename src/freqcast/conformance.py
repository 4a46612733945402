"""Conformance report: published formulas vs the recursion; synthesis round trips.

The package's hyper-complex product is the Cayley-Dickson recursion.  The
hand-expanded component displays found in print use conjugation patterns
that are not mutually consistent, so each display is evaluated verbatim on
random inputs and compared row by row against the recursion.  Rows that
disagree are *reported*, never silently adopted; downstream tests may treat
deviations as acceptable only on rows flagged here.

The second half of the report drives analysis/synthesis round trips over the
benchmark-style plan presets (skipping layouts whose hop does not divide)
plus a batch of randomly generated valid plans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .autograd import Tensor
from .errors import ConfigError
from .hypercomplex import (
    PRINTED_LAYER_ROWS,
    VALID_BASES,
    cd_multiply_components,
    evaluate_rows,
    printed_product,
)
from .spectral import StftPlan, istft, plan_stft, rstft

ALGEBRA_TOL = 1e-12
ROUNDTRIP_TOL = 1e-6

# benchmark-style presets: (lookback, window count, nfft)
BENCHMARK_PLANS = {
    "weather": (96, 7, 16),
    "traffic": (48, 13, 32),
    "electricity": (96, 13, 32),
    "etth1": (96, 33, 6),
    "ettm1": (96, 4, 48),
    "exchange": (96, 13, 32),
}


@dataclass
class RowStatus:
    base: int
    display: str  # "product" or "layer"
    row: int
    max_abs_deviation: float
    matches: bool


def _random_components(rng: np.random.Generator, p: int, samples: int):
    return tuple(
        rng.uniform(-1, 1, size=samples) + 1j * rng.uniform(-1, 1, size=samples)
        for _ in range(p)
    )


@lru_cache(maxsize=None)
def algebra_rows(seed: int = 0, samples: int = 500) -> tuple[RowStatus, ...]:
    """Row-by-row deviation of every printed display from the recursion."""
    rng = np.random.default_rng(seed)
    rows: list[RowStatus] = []
    displays = [("product", base, partial(printed_product, base)) for base in VALID_BASES]
    displays += [("layer", base, partial(evaluate_rows, table))
                 for base, table in sorted(PRINTED_LAYER_ROWS.items())]
    for display, base, printed_fn in displays:
        p = base // 2
        a = _random_components(rng, p, samples)
        b = _random_components(rng, p, samples)
        ref = cd_multiply_components(a, b)
        printed = printed_fn(a, b)
        for k in range(p):
            dev = float(np.abs(ref[k] - printed[k]).max())
            rows.append(RowStatus(base, display, k, dev, dev < ALGEBRA_TOL))
    return tuple(rows)


@dataclass
class PlanStatus:
    name: str
    lookback: int
    windows: int
    nfft: int
    window_fn: str
    valid: bool
    reason: str
    max_rel_error: float | None
    passes: bool | None


def _roundtrip_error(plan: StftPlan, rng: np.random.Generator) -> float:
    x = rng.normal(size=(2, plan.lookback, 2, 2))
    recon = istft(rstft(Tensor(x), plan)).data
    return float(np.abs(recon - x).max() / np.abs(x).max())


def benchmark_plan_statuses(rng: np.random.Generator) -> list[PlanStatus]:
    out = []
    for name, (lookback, windows, nfft) in BENCHMARK_PLANS.items():
        try:
            plan = plan_stft(lookback, windows, nfft)
        except ConfigError as e:
            out.append(PlanStatus(name, lookback, windows, nfft, "rectangular",
                                  False, str(e), None, None))
            continue
        err = _roundtrip_error(plan, rng)
        out.append(PlanStatus(name, lookback, windows, nfft, "rectangular",
                              True, "", err, err < ROUNDTRIP_TOL))
    return out


def random_valid_plans(rng: np.random.Generator, count: int = 20) -> list[StftPlan]:
    plans = []
    nffts = (4, 6, 8, 12, 16, 24, 32)
    while len(plans) < count:
        nfft = int(rng.choice(nffts))
        hop = int(rng.integers(1, nfft + 1))
        p = int(rng.integers(2, 9))
        window_fn = "hann" if len(plans) % 2 else "rectangular"
        plans.append(plan_stft(nfft + (p - 1) * hop, p, nfft, window_fn))
    return plans


def random_plan_statuses(rng: np.random.Generator, count: int = 20) -> list[PlanStatus]:
    out = []
    for i, plan in enumerate(random_valid_plans(rng, count)):
        err = _roundtrip_error(plan, rng)
        out.append(PlanStatus(f"random-{i}", plan.lookback, plan.window_count,
                              plan.nfft, plan.window_fn, True, "", err,
                              err < ROUNDTRIP_TOL))
    return out


def full_report(seed: int = 0, samples: int = 500, random_plans: int = 20) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "algebra_tolerance": ALGEBRA_TOL,
        "roundtrip_tolerance": ROUNDTRIP_TOL,
        "algebra": [asdict(r) for r in algebra_rows(seed, samples)],
        "roundtrip": [
            asdict(p)
            for p in benchmark_plan_statuses(rng) + random_plan_statuses(rng, random_plans)
        ],
    }


def format_report(report: dict) -> str:
    lines = ["published-formula conformance (reference: Cayley-Dickson recursion)"]
    lines.append(f"  tolerance: {report['algebra_tolerance']:g} absolute")
    for r in report["algebra"]:
        status = "matches " if r["matches"] else "DEVIATES"
        lines.append(
            f"  base {r['base']:>2} {r['display']:<7} row {r['row']}: {status} "
            f"(max |dev| = {r['max_abs_deviation']:.3e})"
        )
    lines.append("")
    lines.append("analysis/synthesis round trips")
    lines.append(f"  tolerance: {report['roundtrip_tolerance']:g} max relative error")
    for p in report["roundtrip"]:
        geom = (f"L={p['lookback']} p={p['windows']} nfft={p['nfft']} "
                f"window={p['window_fn']}")
        if not p["valid"]:
            lines.append(f"  {p['name']:<12} {geom}: INVALID PLAN ({p['reason']})")
        else:
            status = "pass" if p["passes"] else "FAIL"
            lines.append(
                f"  {p['name']:<12} {geom}: {status} "
                f"(max rel err = {p['max_rel_error']:.3e})"
            )
    return "\n".join(lines)
