"""Print one sha256 per config over the values a refactor must keep bit for bit.

Each digest covers, for one run configuration: the initial parameters, a
save/load round trip, three training steps (the forward output, every
parameter gradient and the parameters after each Adam step), ``predict`` on
the held-out windows, and a two-epoch ``fit`` (its parameters and epoch
log).  Parameters and gradients are hashed as checkpoint bytes, so the
digest reads only the public API and the checkpoint writer, and one script
compares any two trees whose checkpoint format agrees:

    PYTHONPATH=src python tools/digest.py

Run as a script, it pins BLAS to one thread unless OPENBLAS_NUM_THREADS is
set.  The bits depend on the BLAS build and the CPU kernel it picks, so
digests compare trees on one machine; they are not a committed reference.
"""

import os

if __name__ == "__main__":  # BLAS reads its thread count when numpy loads it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import dataclasses
import hashlib
import tempfile

import numpy as np

from freqcast import data
from freqcast.config import RunConfig
from freqcast.model import forward, init_params, load_checkpoint, save_checkpoint
from freqcast.train import Adam, backward, fit, mse_loss, predict

STEPS = 3
FIT_EPOCHS = 2

# the bench's three workloads on shorter corpora, then every backbone kind
# through the masks, window functions and flags a layout change could break
CONFIGS = {
    "hc-default": dict(synth_length=1400, stride=4),
    "basic-p8": dict(data="synth:piecewise_stationary", synth_length=900, stride=2,
                     backbone="basic", windows=8, lookback=96, horizon=24, nfft=26,
                     embed=32, top_m=8, hidden=64),
    "wm-long": dict(data="synth:trend_plus_season", synth_length=4200, synth_channels=4,
                    stride=16, backbone="wm", lookback=512, horizon=96, windows=4,
                    nfft=128, embed=8, top_m=8, hidden=64),
    "fd-w_real-hann": dict(synth_length=300, backbone="fd", windows=3, lookback=24,
                           horizon=8, nfft=8, embed=4, top_m=3, hidden=16,
                           window_fn="hann", mask_mode="w_real"),
    "wm-r2-plain-w_imag": dict(synth_length=300, backbone="wm", windows=5, radius=2,
                               conjugate_neighbors=False, lookback=30, horizon=8, nfft=6,
                               embed=4, top_m=2, hidden=16, mask_mode="w_imag"),
    "hc-p8-x_imag": dict(synth_length=300, windows=8, lookback=32, horizon=8, nfft=4,
                         embed=4, top_m=2, hidden=16, mask_mode="x_imag"),
    "basic-p3-overlap-w_real+x_real": dict(synth_length=300, backbone="basic", windows=3,
                                           lookback=20, horizon=8, nfft=10, embed=3,
                                           top_m=4, hidden=16, mask_mode="w_real+x_real"),
    "hc-p2-identity": dict(synth_length=300, windows=2, lookback=16, horizon=8, nfft=8,
                           embed=5, top_m=3, hidden=16, activation="identity"),
}


def config(name: str) -> RunConfig:
    """The named config, at batch 16 and seed 3."""
    return RunConfig(batch=16, seed=3, **CONFIGS[name]).validate()


def _update(h, values) -> None:
    values = np.ascontiguousarray(values, dtype=np.float64)
    h.update(repr(values.shape).encode())
    h.update(values.tobytes())


def digest(cfg: RunConfig, params=None) -> str:
    """sha256 over ``cfg``'s run from ``params`` (``init_params(cfg)`` when
    None), which is left unchanged: training starts from a loaded copy."""
    h = hashlib.sha256()
    kind = cfg.data.split(":", 1)[1]
    ds = data.synth_corpus(kind, cfg.seed, cfg.synth_length, cfg.synth_channels,
                           cfg.synth_noise)
    raw = data.split_chronological(ds)
    stats = data.fit_norm_stats(raw[0])
    train, val, test = (data.normalize(split, stats) for split in raw)
    x, y = data.make_windows(train, cfg.lookback, cfg.horizon, cfg.stride)
    x_test, _ = data.make_windows(test, cfg.lookback, cfg.horizon, cfg.stride)
    params = init_params(cfg) if params is None else params

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.ckpt")

        def checkpoint(p) -> bytes:
            save_checkpoint(path, p, cfg, stats.as_dict())
            with open(path, "rb") as fh:
                return fh.read()

        h.update(checkpoint(params))
        params, _, _ = load_checkpoint(path)
        h.update(checkpoint(params))

        optim = Adam(params.named_tensors(), lr=cfg.lr)
        grads = init_params(cfg)  # a holder whose values are the gradients
        for step in range(STEPS):
            lo = step * cfg.batch % (x.shape[0] - cfg.batch + 1)
            optim.zero_grads()
            out = forward(x[lo:lo + cfg.batch], params, cfg)
            _update(h, out.data)
            backward(mse_loss(out, y[lo:lo + cfg.batch]))
            for (_, g), (_, t) in zip(grads.named_tensors(), params.named_tensors()):
                g.data = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
            h.update(checkpoint(grads))
            optim.step()
            h.update(checkpoint(params))

        _update(h, predict(params, cfg, x_test))
        result = fit(train, val, dataclasses.replace(cfg, epochs=FIT_EPOCHS))
        h.update(checkpoint(result.params))
        h.update(repr(result.log).encode())
    return h.hexdigest()


def main() -> int:
    for name in CONFIGS:
        print(f"{digest(config(name))}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
