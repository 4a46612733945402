"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10 is informational: its threshold reflects the expected
asymptotic scaling, and a miss on exotic hardware warrants investigation
rather than rejection.
"""

import time

import numpy as np
import pytest

from freqcast import data as data_io
from freqcast.autograd import Tensor
from freqcast.backbones import count_weight_matrices
from freqcast.cli import prepare_splits, run_training
from freqcast.compress import position_aware_pad, top_m_select
from freqcast.conformance import algebra_rows, plan_statuses, random_valid_plans
from freqcast.config import MASK_PLANES, RunConfig
from freqcast.hypercomplex import cd_multiply_components, printed_product
from freqcast.model import forward, init_params
from freqcast.spectral import istft, rstft
from freqcast.train import backward, fit, mse_loss

from conftest import cvalue, max_rel_err, numeric_gradient, rand_hc


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_c01_algebra_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for base in (2, 4, 8, 16):
        flagged = {r["row"] for r in algebra_rows()
                   if (r["base"], r["display"]) == (base, "product") and not r["matches"]}
        for _ in range(1000):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            rec = cd_multiply_components(a, b)
            exp = printed_product(base, a, b)
            for row, (x, y) in enumerate(zip(rec, exp)):
                if abs(x - y) > 1e-12:
                    assert row in flagged, (
                        f"base {base} row {row}: deviation {abs(x - y):.3e} "
                        f"not covered by the conformance report"
                    )
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(1, ok, f"{checked} products checked against the published displays; "
                  f"deviations confined to flagged rows; {elapsed:.2f}s (< 5s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds 5s"


def test_c02_norm_multiplicativity_and_zero_divisor():
    rng = np.random.default_rng(202)
    norm = np.linalg.norm  # sqrt of the components' summed squared magnitudes
    worst = 0.0
    for base in (2, 4, 8):
        for _ in range(1000):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            denom = norm(a) * norm(b)
            worst = max(worst, abs(norm(cd_multiply_components(a, b)) - denom) / denom)
    assert worst < 1e-9, f"norm multiplicativity broke: rel err {worst:.3e}"
    # (u1 + u10) * (u4 - u15); u_i is component i // 2, real for even i, imaginary for odd
    a = (1j, 0j, 0j, 0j, 0j, 1 + 0j, 0j, 0j)
    b = (0j, 0j, 1 + 0j, 0j, 0j, 0j, 0j, -1j)
    prod_norm = norm(cd_multiply_components(a, b))
    ok = norm(a) > 0 and norm(b) > 0 and prod_norm < 1e-9
    report(2, ok, f"bases 2/4/8 multiplicative to {worst:.2e}; base-16 zero "
                  f"divisor with |a|={norm(a):.3f}, |b|={norm(b):.3f}, "
                  f"|ab|={prod_norm:.2e}")
    assert ok


def test_c03_synthesis_round_trips():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    tested = 0
    for status in plan_statuses(rng, 0):
        if status["valid"]:
            assert status["passes"], f"{status['name']}: rel err {status['max_rel_error']:.2e}"
            worst = max(worst, status["max_rel_error"])
            tested += 1
    for plan in random_valid_plans(rng, 20):
        x = rng.normal(size=(2, plan.lookback, 2, 2))
        err = float(np.abs(istft(rstft(Tensor(x), plan)).data - x).max()
                    / np.abs(x).max())
        assert err < 1e-6, f"plan {plan}: rel err {err:.2e}"
        worst = max(worst, err)
        tested += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(3, ok, f"{tested} plans reconstruct within 1e-6 (worst {worst:.2e}); "
                  f"{elapsed:.2f}s (< 10s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds 10s"


def test_c04_top_m_identity_and_ordering():
    rng = np.random.default_rng(404)
    from freqcast.spectral import plan_stft

    plan = plan_stft(24, 3, 8)
    x = rng.normal(size=(10, 24, 5, 2))
    spectra = rstft(Tensor(x), plan)
    padded = position_aware_pad(top_m_select(spectra, plan.bins))
    for orig, back in zip(spectra.windows, padded.windows):
        assert np.array_equal(orig.re.data, back.re.data)
        assert np.array_equal(orig.im.data, back.im.data)

    rows = 0
    for m in (1, 2, 4):
        comp = top_m_select(spectra, m)
        for c, idx in zip(spectra.windows, comp.indices):
            score = (np.abs(cvalue(c)) ** 2).sum(axis=3)
            for b in range(score.shape[0]):
                for d in range(score.shape[2]):
                    order = sorted(range(score.shape[1]),
                                   key=lambda j: (-score[b, j, d], j))
                    assert set(idx[b, :, d]) == set(order[:m])
                    rows += 1
    report(4, True, f"full retention is bit-exact; {rows} kept sets match the "
                    f"exhaustive-sort oracle for M in {{1,2,4}}")


GRAD_VARIANTS = [
    ("tiny-hc-p2", dict(lookback=8, horizon=4, embed=4, windows=2, nfft=4,
                        top_m=3, hidden=8, backbone="hc", seed=11)),
    ("hc-p4", dict(lookback=16, horizon=4, embed=4, windows=4, nfft=4,
                   top_m=3, hidden=8, backbone="hc", seed=12)),
    ("wm-p4", dict(lookback=16, horizon=4, embed=4, windows=4, nfft=4,
                   top_m=3, hidden=8, backbone="wm", seed=13)),
    ("basic-p4", dict(lookback=16, horizon=4, embed=4, windows=4, nfft=4,
                      top_m=3, hidden=8, backbone="basic", seed=14)),
]


def test_c05_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    for name, kw in GRAD_VARIANTS:
        cfg = RunConfig(**kw).validate()
        rng = np.random.default_rng(cfg.seed)
        params = init_params(cfg, rng)
        x = rng.normal(size=(1, cfg.lookback, 1))
        y = rng.normal(size=(1, cfg.horizon, 1))

        loss = mse_loss(forward(x, params, cfg), y)
        backward(loss)
        grads = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                 for n, t in params.named_tensors()}

        def loss_value():
            return float(mse_loss(forward(x, params, cfg), y).data)

        for pname, tensor in params.named_tensors():
            numeric = numeric_gradient(loss_value, tensor, h=1e-5)
            rel = max_rel_err(grads[pname], numeric)
            assert rel < 1e-4, f"{name}/{pname}: rel err {rel:.3e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(5, ok, f"all parameter groups in {len(GRAD_VARIANTS)} variants match "
                  f"central differences (worst rel err {worst:.2e}); "
                  f"{elapsed:.1f}s (< 60s)")
    assert ok, f"runtime {elapsed:.1f}s exceeds 60s"


def test_c06_parameter_count_claims():
    hc4 = count_weight_matrices("hc", 4)
    wm4 = count_weight_matrices("wm", 4, radius=1)
    basic4 = count_weight_matrices("basic", 4)
    ok = (hc4, wm4, basic4) == (4, 10, 16)
    report(6, ok, f"complex weight matrices at p=4: hyper-complex {hc4}, "
                  f"window-mixing {wm4}, all-to-all {basic4}")
    assert ok


def test_c07_desk_scale_learning():
    t0 = time.perf_counter()
    ds = data_io.synth_corpus("sinusoid_mix", seed=7, length=2000, channels=2)
    train_raw, val_raw, _ = data_io.split_chronological(ds)
    stats = data_io.fit_norm_stats(train_raw)
    train_n = data_io.normalize(train_raw, stats)
    val_n = data_io.normalize(val_raw, stats)

    cfg = RunConfig(data="synth:sinusoid_mix", lookback=96, horizon=96,
                    embed=16, windows=4, nfft=24, top_m=4, hidden=128,
                    backbone="hc", epochs=10, batch=32, seed=7).validate()
    result = fit(train_n, val_n, cfg)

    x_val, y_val = data_io.make_windows(val_n, cfg.lookback, cfg.horizon)
    baseline = data_io.metrics(
        data_io.persistence_forecast(x_val, cfg.horizon), y_val
    )
    elapsed = time.perf_counter() - t0
    ratio = result.best_val_mae / baseline["mae"]
    ok = ratio < 0.7 and elapsed < 300.0
    report(7, ok, f"val MAE {result.best_val_mae:.4f} vs persistence "
                  f"{baseline['mae']:.4f} (ratio {ratio:.3f}, need < 0.7); "
                  f"{elapsed:.0f}s (< 300s)")
    assert ratio < 0.7, f"MAE ratio {ratio:.3f} not 30% below persistence"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


MASK_CFG = dict(data="synth:sinusoid_mix", synth_length=320, synth_channels=2,
                lookback=16, horizon=4, embed=4, windows=2, nfft=8, top_m=4,
                hidden=8, epochs=3, batch=16, seed=8)


def test_c08_masking_robustness():
    ds = data_io.synth_corpus("sinusoid_mix", 8, 320, 2)
    train_raw, val_raw, _ = data_io.split_chronological(ds)
    stats = data_io.fit_norm_stats(train_raw)
    train_n = data_io.normalize(train_raw, stats)
    val_n = data_io.normalize(val_raw, stats)
    probe = data_io.make_windows(val_n, 16, 4)[0][:2]

    for mode, (splane, plane) in MASK_PLANES.items():
        cfg = RunConfig(**MASK_CFG, mask_mode=mode).validate()
        result = fit(train_n, val_n, cfg)
        for record in result.log:
            values = [record.train_loss, record.val_mae, record.val_rmse]
            assert np.isfinite(values).all(), f"{mode}: non-finite metric {values}"
        if plane is not None:
            for w in result.params.backbone.weights.data.swapaxes(0, 1):
                masked = w[0] if plane == "real" else w[1]
                assert np.abs(masked).max() == 0.0, f"{mode}: weight plane drifted"
        debug = {}
        forward(probe, result.params, cfg, debug=debug)
        if splane is not None:
            for c in debug["spectra"].windows:
                masked = c.re.data if splane == "real" else c.im.data
                assert np.abs(masked).max() == 0.0, f"{mode}: spectra plane leaked"
    report(8, True, f"all {len(MASK_PLANES)} mask modes trained 3 epochs without "
                    f"NaN; masked planes stayed exactly zero")


def test_c09_determinism(tmp_path):
    cfg = RunConfig(**MASK_CFG).validate()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir(), dir_b.mkdir()
    run_training(cfg, str(dir_a), prepare_splits(cfg))
    run_training(cfg, str(dir_b), prepare_splits(cfg))
    bytes_a = (dir_a / "metrics.csv").read_bytes()
    bytes_b = (dir_b / "metrics.csv").read_bytes()
    ok = bytes_a == bytes_b
    report(9, ok, "two runs from one config produce bit-identical metrics logs")
    assert ok


def test_c10_forward_scaling_informational():
    sizes = (128, 256, 512, 1024)
    times = []
    for lookback in sizes:
        cfg = RunConfig(lookback=lookback, horizon=32, embed=8, windows=4,
                        nfft=lookback // 4, top_m=4, hidden=64,
                        backbone="hc").validate()
        params = init_params(cfg)
        x = np.random.default_rng(0).normal(size=(8, lookback, 2))
        forward(x, params, cfg)  # warm-up
        best = min(
            _timed(lambda: forward(x, params, cfg)) for _ in range(3)
        )
        times.append(best)
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    ok = slope < 1.5
    detail = (f"forward wall time exponent {slope:.2f} over L={sizes} "
              f"(informational tolerance < 1.5); times "
              f"{['%.1fms' % (t * 1e3) for t in times]}")
    report(10, ok, detail)
    assert ok, f"scaling exponent {slope:.2f} >= 1.5: investigate before shipping"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
