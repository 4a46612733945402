"""``model.forward`` against the slow reference forward of tests/reference.py."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freqcast.backbones import ACTIVATIONS
from freqcast.config import MASK_PLANES, RunConfig
from freqcast.model import forward, init_params
from freqcast.spectral import WINDOW_FNS

from conftest import plan_geometry
from reference import reference_forward


def nonzero(rng, size):
    """Values of magnitude in [0.1, 1), of random sign."""
    return rng.uniform(0.1, 1.0, size=size) * rng.choice([-1.0, 1.0], size=size)


@st.composite
def forward_cases(draw):
    """A valid config over every backbone kind, window function, mask mode
    and activation, with its parameters and a batch.  The lift's scale and
    bias and every other bias are drawn non-zero."""
    kind = draw(st.sampled_from(["fd", "wm", "hc", "basic"]))
    if kind == "hc":
        p, nfft = draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 8))
        hop = draw(st.integers(1, nfft))
    else:
        p, nfft, hop = draw(plan_geometry(4, 12))
    cfg = RunConfig(backbone=kind, windows=p, nfft=nfft, lookback=nfft + (p - 1) * hop,
                    horizon=draw(st.integers(1, 4)), embed=draw(st.integers(1, 4)),
                    top_m=draw(st.integers(1, nfft // 2 + 1)),
                    hidden=draw(st.integers(1, 6)),
                    radius=draw(st.integers(1, max(1, p - 1))),
                    conjugate_neighbors=draw(st.booleans()),
                    window_fn=draw(st.sampled_from(WINDOW_FNS)),
                    mask_mode=draw(st.sampled_from(sorted(MASK_PLANES))),
                    activation=draw(st.sampled_from(ACTIVATIONS))).validate()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(cfg, rng)
    e = cfg.embed
    params.embed_scale.data[:] = nonzero(rng, e)
    params.embed_bias.data[:] = nonzero(rng, e)
    params.backbone.biases.data[:] = nonzero(rng, params.backbone.biases.shape)
    params.head_b1.data[:] = nonzero(rng, cfg.hidden)
    params.head_b2.data[:] = nonzero(rng, cfg.horizon)
    x = rng.normal(size=(draw(st.integers(1, 2)), cfg.lookback, draw(st.integers(1, 2))))
    return cfg, params, x


@settings(max_examples=150, deadline=None)
@given(case=forward_cases())
def test_forward_matches_the_reference_forward(case):
    """forward equals the definition within 1e-10 of the output's largest
    magnitude.  A draw whose M-th and (M+1)-th scores are within 1e-9
    relative is skipped: round-off may pick either bin there."""
    cfg, params, x = case
    want, gap, _ = reference_forward(x, params, cfg)
    if not gap > 1e-9:
        event("M-th and (M+1)-th scores too close to call")
        return
    event(f"{cfg.backbone} {cfg.activation} {cfg.window_fn}")
    got = forward(x, params, cfg).data
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
