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

from functools import partial

import numpy as np

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


def _random_components(rng: np.random.Generator, p: int, samples: int):
    return tuple(
        rng.uniform(-1, 1, size=samples) + 1j * rng.uniform(-1, 1, size=samples)
        for _ in range(p)
    )


def algebra_rows(seed: int = 0, samples: int = 500) -> list[dict]:
    """Row-by-row deviation of every printed display ("product" or "layer")
    from the recursion, as the report's rows."""
    rng = np.random.default_rng(seed)
    rows = []
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
            rows.append({"base": base, "display": display, "row": k,
                         "max_abs_deviation": dev, "matches": dev < ALGEBRA_TOL})
    return rows


def _roundtrip_error(plan: StftPlan, rng: np.random.Generator) -> float:
    x = rng.normal(size=(2, plan.lookback, 2, 2))
    recon = istft(rstft(x, plan)).data
    return float(np.abs(recon - x).max() / np.abs(x).max())


def _plan_row(name: str, lookback: int, windows: int, nfft: int, window_fn: str,
              err: float | None, reason: str = "") -> dict:
    """One round-trip row of the report; ``err`` None marks an invalid plan."""
    valid = err is not None
    return {"name": name, "lookback": lookback, "windows": windows, "nfft": nfft,
            "window_fn": window_fn, "valid": valid, "reason": reason,
            "max_rel_error": err, "passes": err < ROUNDTRIP_TOL if valid else None}


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


def plan_statuses(rng: np.random.Generator, random_plans: int = 20) -> list[dict]:
    """Round-trip rows of the benchmark presets, each valid one drawing its
    input from ``rng`` in turn, then of ``random_plans`` random valid plans,
    all drawn before their inputs."""
    rows = []
    for name, (lookback, windows, nfft) in BENCHMARK_PLANS.items():
        try:
            plan = plan_stft(lookback, windows, nfft)
        except ConfigError as e:
            rows.append(_plan_row(name, lookback, windows, nfft, "rectangular", None, str(e)))
        else:
            rows.append(_plan_row(name, lookback, windows, nfft, "rectangular",
                                  _roundtrip_error(plan, rng)))
    for i, plan in enumerate(random_valid_plans(rng, random_plans)):
        rows.append(_plan_row(f"random-{i}", plan.lookback, plan.window_count, plan.nfft,
                              plan.window_fn, _roundtrip_error(plan, rng)))
    return rows


def full_report(seed: int = 0, samples: int = 500, random_plans: int = 20) -> dict:
    return {
        "algebra_tolerance": ALGEBRA_TOL,
        "roundtrip_tolerance": ROUNDTRIP_TOL,
        "algebra": algebra_rows(seed, samples),
        "roundtrip": plan_statuses(np.random.default_rng(seed), random_plans),
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
