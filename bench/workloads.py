"""The benchmark's workloads: their inputs, set-up, measured passes and checks.

Every workload is a closed loop with one caller: each batch starts only when
the previous one has returned.  A pass is one ``train.fit`` (train
workloads) or one ``train.predict`` over the held-out windows (predict
workloads); a run repeats passes until its time is up.  All inputs derive
from the workload seed, and the package receives only the generated arrays.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import freqcast.data as data
import freqcast.model as model
import freqcast.spectral as spectral
import freqcast.train as train
from freqcast.autograd import CTensor, Tensor, mean_all, mul
from freqcast.backbones import BACKBONE_KINDS
from freqcast.compress import CompressedWindows
from freqcast.config import RunConfig

from probe import Probe, Region

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "train" or "predict"
    corpus: str
    length: int
    channels: int
    config: dict
    chunk: int = 32

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(data=f"synth:{self.corpus}", seed=seed, **self.config).validate()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-hc-default",
        why="train.fit at RunConfig defaults (hc, p=4, nfft=24 matrix DFT): the paper's "
            "headline config; head and spectral stages dominate a step",
        mode="train", corpus="sinusoid_mix", length=2000, channels=2,
        # RunConfig defaults (hc, B=32, L=96, H=96, p=4, nfft=24, E=16, M=4,
        # hidden=256); one epoch per fit so a run holds several fits
        config=dict(epochs=1),
    ),
    Workload(
        name="train-basic-p8",
        why="train.fit with the basic backbone at p=8 (64 complex weight matrices): "
            "backbone-heavy step and tape; regime shifts vary top-M",
        mode="train", corpus="piecewise_stationary", length=2000, channels=2,
        config=dict(backbone="basic", windows=8, lookback=96, horizon=24, nfft=26,
                    embed=32, top_m=8, hidden=64, epochs=1),
    ),
    Workload(
        name="predict-long",
        why="train.predict only, L=512, nfft=128 radix-2: rstft/istft dominate, no "
            "backward or Adam, so train-only layers are the control",
        mode="predict", corpus="trend_plus_season", length=6000, channels=4,
        config=dict(backbone="wm", lookback=512, horizon=96, windows=4, nfft=128,
                    embed=8, top_m=8, hidden=64),
    ),
)}

# Small geometry for the self-test; same backbones, plan paths and corpora.
TINY = {
    "train-hc-default": dict(length=600, config=dict(
        epochs=1, lookback=32, horizon=8, nfft=8, embed=4, top_m=2, hidden=8)),
    "train-basic-p8": dict(length=600, config=dict(
        backbone="basic", windows=8, lookback=32, horizon=8, nfft=11,
        embed=4, top_m=2, hidden=8, epochs=1)),
    "predict-long": dict(length=600, chunk=8, config=dict(
        backbone="wm", lookback=64, horizon=8, windows=4, nfft=16,
        embed=4, top_m=2, hidden=8)),
}


def tiny(w: Workload) -> Workload:
    return replace(w, **TINY[w.name])


def ms(seconds: float) -> float:
    return seconds * 1e3


@dataclass
class State:
    workload: Workload
    cfg: RunConfig
    train_split: np.ndarray
    val_split: np.ndarray
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    params: model.ForecastParams
    stats: data.NormStats
    batches_per_pass: int
    samples_per_pass: int
    timings_ms: dict


def checkpoint_round_trip(params, cfg, stats, tmpdir: str, timings: dict):
    path = os.path.join(tmpdir, "model.ckpt")
    t0 = perf()
    model.save_checkpoint(path, params, cfg, stats.as_dict())
    t1 = perf()
    loaded, _, _ = model.load_checkpoint(path)
    t2 = perf()
    os.remove(path)
    timings["model.save_checkpoint_ms"] = ms(t1 - t0)
    timings["model.load_checkpoint_ms"] = ms(t2 - t1)
    return loaded


def setup(w: Workload, seed: int, tmpdir: str) -> State:
    """Everything before the first measured batch, ending with one warm-up batch."""
    cfg = w.run_config(seed)
    timings: dict[str, float] = {}
    t0 = perf()
    ds = data.synth_corpus(w.corpus, seed, w.length, w.channels)
    t1 = perf()
    train_split, val_split, test_split = data.split_chronological(ds)
    stats = data.fit_norm_stats(train_split)
    train_split, val_split, test_split = (
        data.normalize(s, stats) for s in (train_split, val_split, test_split))
    t2 = perf()
    x_test, y_test = data.make_windows(test_split, cfg.lookback, cfg.horizon, cfg.stride)
    if w.mode == "train":
        x_train, y_train = data.make_windows(train_split, cfg.lookback, cfg.horizon,
                                             cfg.stride)
    else:
        # whole chunks only, so every timed predict batch has the same size
        keep = x_test.shape[0] // w.chunk * w.chunk
        x_test, y_test = x_test[:keep], y_test[:keep]
        x_train, y_train = x_test[:0], y_test[:0]
    t3 = perf()
    params = model.init_params(cfg)
    t4 = perf()
    timings.update({
        "data.synth_corpus_ms": ms(t1 - t0),
        "data.normalize_ms": ms(t2 - t1),
        "data.make_windows_ms": ms(t3 - t2),
        "model.init_params_ms": ms(t4 - t3),
    })
    if w.mode == "train":
        optim = train.Adam(params.named_tensors(), lr=cfg.lr)
        optim.zero_grads()
        loss = train.mse_loss(model.forward(x_train[:cfg.batch], params, cfg),
                              y_train[:cfg.batch])
        train.backward(loss)
        optim.step()
        batches = -(-x_train.shape[0] // cfg.batch) * cfg.epochs
        samples = x_train.shape[0] * cfg.epochs
    else:
        params = checkpoint_round_trip(params, cfg, stats, tmpdir, timings)
        train.predict(params, cfg, x_test[:w.chunk], chunk=w.chunk)
        batches = x_test.shape[0] // w.chunk
        samples = x_test.shape[0]
    return State(w, cfg, train_split, val_split, x_train, y_train, x_test, y_test,
                 params, stats, batches, samples, timings)


@dataclass
class PassLog:
    """What the measured passes of a run did, and what went wrong."""

    seconds: list[float] = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    first: object = None
    problems: list[str] = field(default_factory=list)
    traced_counts: list[dict] = field(default_factory=list)


def one_pass(state: State, probe: Probe, log: PassLog) -> None:
    w, cfg = state.workload, state.cfg
    before_batches = len(probe.batch_ms)
    before_counts = dict(probe.batches.counts)
    t0 = perf()
    log.attempted += state.batches_per_pass
    try:
        if w.mode == "train":
            fit = train.fit(state.train_split, state.val_split, cfg)
            out = (fit.best_val_mae, [r.train_loss for r in fit.log], fit.params)
        else:
            out = train.predict(state.params, cfg, state.x_test, chunk=w.chunk)
    except Exception:  # a failed operation is counted, not fatal to the run
        log.seconds.append(perf() - t0)
        log.failed += state.batches_per_pass - (len(probe.batch_ms) - before_batches)
        log.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        return
    log.seconds.append(perf() - t0)
    log.samples += state.samples_per_pass
    if probe.traced:
        log.traced_counts.append({k: v - before_counts.get(k, 0)
                                  for k, v in probe.batches.counts.items()})
    if w.mode == "predict":
        chunks = out.reshape(-1, w.chunk, *out.shape[1:])
        log.failed += int((~np.isfinite(chunks).all(axis=(1, 2, 3))).sum())
        same = log.first is None or np.array_equal(out, log.first)
    else:
        same = log.first is None or out[:2] == log.first[:2]
    if log.first is None:
        log.first = out
    elif not same:
        log.problems.append(f"pass {len(log.seconds)} differs from the first pass "
                            "on the same seed")


def measure(state: State, probe: Probe, log: PassLog, seconds: float,
            min_passes: int, min_batches: int) -> None:
    """Repeat passes until both minimums are met and the time is up.

    A pass starts only if it can be expected to end by the deadline, give or
    take half a pass, so that a run lasts about ``seconds``.
    """
    start, t0 = len(log.seconds), perf()
    with probe:
        while True:
            done, elapsed = len(log.seconds) - start, perf() - t0
            if (done >= min_passes and len(probe.batch_ms) >= min_batches
                    and elapsed + 0.5 * elapsed / done >= seconds):
                return
            one_pass(state, probe, log)


def fitted_params(state: State, log: PassLog) -> model.ForecastParams:
    """The first pass's trained parameters; the loaded ones for predict."""
    if state.workload.mode == "train" and log.first is not None:
        return log.first[2]
    return state.params


def mae_ratio(state: State, params) -> float:
    """Held-out MAE over the persistence forecast's MAE on the same windows."""
    pred = train.predict(params, state.cfg, state.x_test, chunk=state.workload.chunk)
    base = data.persistence_forecast(state.x_test, state.cfg.horizon)
    return float(np.mean(np.abs(pred - state.y_test)) / np.mean(np.abs(base - state.y_test)))


def output_checks(state: State, params, seed: int) -> list[str]:
    """Predictions are finite, predict matches forward bit for bit, synthesis inverts."""
    problems = []
    cfg, chunk = state.cfg, state.workload.chunk
    x = state.x_test[:chunk]
    pred = train.predict(params, cfg, x, chunk=chunk)
    if not np.isfinite(pred).all():
        problems.append("predict produced non-finite values")
    if not np.array_equal(pred, model.forward(x, params, cfg).data):
        problems.append("predict differs from forward(...).data on the same chunk")
    rng = np.random.default_rng([seed, 0xB7])
    sig = rng.normal(size=(4, cfg.lookback, x.shape[2], cfg.embed))
    plan = cfg.plan()
    err = float(np.abs(spectral.istft(spectral.rstft(sig, plan)).data - sig).max())
    if not err < 1e-6:
        problems.append(f"istft(rstft(x)) round trip error {err:.3g} >= 1e-6")
    return problems


def train_steps(state: State, steps: int) -> None:
    """Train steps of the workload's model on test chunks, then one evaluation.

    A forward-only workload never runs backward, the loss, Adam or
    evaluation; run under a traced probe, this times them for its model.
    """
    cfg, chunk = state.cfg, state.workload.chunk
    params = model.init_params(cfg)
    optim = train.Adam(params.named_tensors(), lr=cfg.lr)
    for i in range(steps):
        lo = i * chunk % (state.x_test.shape[0] - chunk + 1)
        optim.zero_grads()
        loss = train.mse_loss(train.forward(state.x_test[lo:lo + chunk], params, cfg),
                              state.y_test[lo:lo + chunk])
        train.backward(loss)
        optim.step()
    train.evaluate(params, cfg, state.x_test, state.y_test)


def backbone_table(seed: int, probe: Probe, reps: int) -> dict[str, float]:
    """Forward and backward ms of each backbone at the default config (traced)."""
    out = {}
    corpus = data.synth_corpus("sinusoid_mix", seed, 2000, 2)
    base = RunConfig(seed=seed)
    x, _ = data.make_windows(corpus.values[:base.lookback + base.horizon + base.batch],
                             base.lookback, base.horizon)
    x = x[:base.batch]
    for kind in BACKBONE_KINDS:
        cfg = RunConfig(backbone=kind, seed=seed).validate()
        params = model.init_params(cfg)
        debug: dict = {}
        model.forward(x, params, cfg, debug=debug)
        comp = debug["compressed"]
        fwd, bwd = [], []
        for _ in range(reps):
            leaves = CompressedWindows(
                [CTensor(Tensor(c.re.data), Tensor(c.im.data)) for c in comp.windows],
                comp.indices, comp.bins_total, comp.plan)
            for _, t in params.named_tensors():
                t.grad = None
            with probe.region(Region()) as region:
                mixed = model.backbone_forward(kind, leaves, params.backbone,
                                               act=cfg.activation, radius=cfg.radius,
                                               conjugate_neighbors=cfg.conjugate_neighbors)
                loss = None
                for c in mixed.windows:
                    term = mean_all(mul(c.re, c.re)) + mean_all(mul(c.im, c.im))
                    loss = term if loss is None else loss + term
                loss.backward()
            fwd.append(ms(region.times["backbones"]))
            bwd.append(ms(region.times["backbones.bwd"]))
        out[f"backbones.{kind}.fwd_ms"] = statistics.median(fwd)
        out[f"backbones.{kind}.bwd_ms"] = statistics.median(bwd)
    return out
