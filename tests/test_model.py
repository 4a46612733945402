"""Whole-model contracts: embedding, shapes, skip path, masking, checkpoints."""

import dataclasses
import json
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from freqcast import autograd, fftkit, model
from freqcast.autograd import Tensor, mean_all, mul, stack
from freqcast.backbones import ACTIVATIONS, BACKBONE_KINDS, block_table
from freqcast.compress import top_m_select
from freqcast.config import MASK_PLANES, RunConfig, mask_planes
from freqcast.errors import ConfigError, ContractError
from freqcast.model import (
    apply_weight_mask_to_data,
    embed,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from freqcast.spectral import WINDOW_FNS, plan_stft, rstft
from freqcast.train import backward as train_backward
from freqcast.train import mse_loss

from conftest import identity_lifted, max_rel_err, traced_peaks
from reference import reference_forward

TINY = dict(lookback=8, horizon=4, embed=4, windows=2, nfft=4, top_m=3, hidden=8,
            batch=2, epochs=2)


def tiny_cfg(**overrides):
    kw = {**TINY, **overrides}
    return RunConfig(**kw).validate()


def make_identity_backbone(params, kind, embed_dim):
    """Identity on weights whose blocks all lie on the diagonal, zero elsewhere."""
    _, blocks = block_table(kind, params.backbone.biases.shape[1], params.backbone.radius)
    off_diagonal = {w for src, dst, w, *_ in blocks if src != dst}
    weights = params.backbone.weights.data
    for i in range(weights.shape[1]):
        weights[0, i] = 0.0 if i in off_diagonal else np.eye(embed_dim)
        weights[1, i] = 0.0


def basis(params) -> Tensor:
    """The (2, E) basis [scale; bias] that ``embed`` lifts by, as ``rstft``
    stacks it."""
    return stack([params.embed_scale, params.embed_bias], axis=0)


def embedded(x, params) -> np.ndarray:
    """``embed`` of a (B, L, D) x onto a zero reconstruction, read back as the
    (B, L, D, E) embedded input."""
    b, length, d = np.shape(x)
    e = params.embed_scale.shape[0]
    out = embed(x, basis(params), Tensor(np.zeros((b, length, d, e)))).data
    return out.reshape(b, d, length, e).transpose(0, 2, 1, 3)


class TestEmbed:
    def test_unit_scale_broadcasts(self, rng):
        cfg = tiny_cfg()
        params = init_params(cfg)
        params.embed_scale.data[:] = 1.0
        params.embed_bias.data[:] = 0.0
        x = rng.normal(size=(2, 8, 3))
        out = embedded(Tensor(x), params)
        np.testing.assert_allclose(out, np.repeat(x[..., None], 4, axis=3))

    def test_zero_input_gives_bias(self, rng):
        cfg = tiny_cfg()
        params = init_params(cfg)
        params.embed_bias.data[:] = rng.normal(size=4)
        out = embedded(Tensor(np.zeros((1, 8, 2))), params)
        np.testing.assert_allclose(out, np.broadcast_to(params.embed_bias.data, out.shape))

    def test_matches_direct_formula(self, rng):
        cfg = tiny_cfg(embed=2)
        params = init_params(cfg)
        x = rng.normal(size=(2, 8, 2))
        out = embedded(Tensor(x), params)
        want = x[..., None] * params.embed_scale.data + params.embed_bias.data
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_rank_checked(self):
        cfg = tiny_cfg()
        with pytest.raises(ContractError, match=re.escape("got shape (8, 2)")):
            embed(Tensor(np.zeros((8, 2))), basis(init_params(cfg)), Tensor(np.zeros((8, 2, 4))))

    def test_input_is_data(self, rng):
        """A leaf input gets no gradient; one computed by earlier ops is refused."""
        cfg = tiny_cfg()
        params = init_params(cfg)
        x = Tensor(rng.normal(size=(2, 8, 3)))
        zero = Tensor(np.zeros((2, 8, 3, 4)))
        mean_all(embed(x, basis(params), zero)).backward()
        assert x.grad is None and params.embed_scale.grad is not None
        with pytest.raises(ContractError, match="computed by earlier ops"):
            embed(mul(x, 2.0), basis(params), zero)
        with pytest.raises(ContractError, match="computed by earlier ops"):
            forward(mul(x, 2.0), params, cfg)
        with pytest.raises(ContractError, match="computed by earlier ops"):
            rstft(mul(Tensor(x.data[..., None]), 2.0), cfg.plan(),
                  params.embed_scale, params.embed_bias)


class TestForward:
    def test_shape_contract_tiny_instance(self, rng):
        cfg = tiny_cfg()
        out = forward(rng.normal(size=(1, 8, 1)), init_params(cfg), cfg)
        assert out.shape == (1, 4, 1)

    @pytest.mark.parametrize("kind,p", [("fd", 3), ("wm", 3), ("hc", 4), ("basic", 3)])
    def test_shape_contract_other_backbones(self, rng, kind, p):
        cfg = tiny_cfg(lookback=12, windows=p, nfft=12 - (p - 1) * 2, top_m=2,
                       backbone=kind)
        out = forward(rng.normal(size=(3, 12, 2)), init_params(cfg), cfg)
        assert out.shape == (3, 4, 2)

    def test_zero_input_zero_output(self, rng):
        cfg = tiny_cfg()
        out = forward(np.zeros((2, 8, 2)), init_params(cfg), cfg)
        assert np.abs(out.data).max() == 0.0

    @pytest.mark.parametrize("kind", ["fd", "wm", "hc", "basic"])
    def test_identity_backbone_reconstructs_embedding(self, rng, kind):
        cfg = tiny_cfg(lookback=16, windows=2, nfft=8, top_m=5, backbone=kind,
                       activation="identity")
        params = init_params(cfg)
        make_identity_backbone(params, kind, cfg.embed)
        debug = {}
        x = rng.normal(size=(2, 16, 2))
        forward(x, params, cfg, debug=debug)
        x_e = x[..., None] * params.embed_scale.data + params.embed_bias.data
        x_rec = debug["reconstructed"].data
        assert np.abs(x_rec - x_e).max() < 1e-6 * np.abs(x_e).max()

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_the_head_is_two_affine_maps_around_the_activation(self, activation):
        """The output is the head on the skip sum, bit for bit:
        act(skip @ w1 + b1) @ w2 + b2, with the horizon before the channel.
        The seed gives pre-activations of both signs, so a ReLU left out (or
        added to the identity head) fails here."""
        cfg = tiny_cfg(activation=activation)
        params = init_params(cfg)
        rng = np.random.default_rng(7)
        params.head_b1.data[:] = rng.normal(size=cfg.hidden)
        params.head_b2.data[:] = rng.normal(size=cfg.horizon)
        x, debug = rng.normal(size=(3, cfg.lookback, 2)), {}
        out = forward(x, params, cfg, debug=debug).data
        skip = debug["skip"].data
        pre = skip.reshape(-1, skip.shape[-1]) @ params.head_w1.data + params.head_b1.data
        assert (pre < 0).any() and (pre > 0).any()
        hidden = np.maximum(pre, 0.0) if activation == "relu" else pre
        head = hidden @ params.head_w2.data + params.head_b2.data
        want = head.reshape(skip.shape[:2] + (cfg.horizon,)).transpose(0, 2, 1)
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("fields", [
        dict(lookback=16, windows=2, nfft=8),  # tiling
        dict(lookback=30, windows=8, nfft=9),  # overlapping: hop 3
        dict(lookback=16, windows=2, nfft=8, window_fn="hann"),
    ])
    def test_synthesis_and_the_skip_sum_keep_the_heads_channel_major_layout(
            self, rng, monkeypatch, fields):
        """Kept-bin synthesis writes channel-major frames, the (B, L, D, E)
        reconstruction lies in channel-major memory (in those frames, where a
        rectangular plan tiles), and the head reads the skip sum's own buffer,
        the one (B, D, L, E) array the skip connection allocates: a copy or a
        transposed write anywhere on that path fails here."""
        frames, head_inputs = [], []
        kernel, head = fftkit.irfft_onesided, model.matmul

        def synthesis(*args, **kwargs):
            frames.append(kwargs["out"])
            return kernel(*args, **kwargs)

        def first_head_product(a, w):
            head_inputs.append(a.data)
            return head(a, w)

        monkeypatch.setattr(fftkit, "irfft_onesided", synthesis)
        monkeypatch.setattr(model, "matmul", first_head_product)
        cfg = tiny_cfg(top_m=3, embed=16, **fields)
        plan, params = cfg.plan(), init_params(cfg)
        x, debug = rng.normal(size=(32, cfg.lookback, 2)), {}
        forward(x, params, cfg, debug=debug)
        [f], rec, skip = frames, debug["reconstructed"].data, debug["skip"].data
        assert f.transpose(0, 3, 1, 2, 4).flags.c_contiguous
        assert rec.transpose(0, 2, 1, 3).flags.c_contiguous
        tiles = plan.window_count * plan.nfft == plan.lookback
        assert np.shares_memory(rec, f) == (tiles and plan.window_fn == "rectangular")
        buffer = skip.base
        assert buffer.shape == (32, 2, cfg.lookback, cfg.embed) and buffer.flags.c_contiguous
        assert head_inputs[0] is skip and np.shares_memory(skip, buffer)
        # the buffer and the [x, 1] columns, an eighth of it at E = 16
        [peak] = traced_peaks(lambda: embed(x, basis(params), debug["reconstructed"]))
        assert peak * 2**20 < 1.5 * buffer.nbytes, (peak, buffer.nbytes)

    def test_wrong_lookback_rejected(self, rng):
        cfg = tiny_cfg()
        with pytest.raises(ContractError):
            forward(np.zeros((1, 9, 1)), init_params(cfg), cfg)

    @pytest.mark.parametrize("shape", [(0, 8, 2), (4, 8, 0)])
    def test_empty_batch_or_channels_rejected(self, shape):
        """No sample or no channel is refused with the shape named, not a bare
        numpy error from a reduction or reshape deep inside the pipeline."""
        cfg = tiny_cfg()
        params = init_params(cfg)
        for run in (lambda x: forward(x, params, cfg),
                    lambda x: embed(x, basis(params), Tensor(np.zeros(shape + (cfg.embed,))))):
            with pytest.raises(ContractError,
                               match=re.escape(f"B >= 1 and D >= 1, got shape {shape}")):
                run(np.zeros(shape))

    @pytest.mark.parametrize("fields, d, most", [
        # synthesis frames of tiling windows: 2 windows * nfft 8 * E 64 values a sample
        (dict(windows=2, embed=64), 1, 97_656),
        # synthesis frames of overlapping windows: 3 * 8 * 32
        (dict(windows=3, embed=32), 1, 130_208),
        # analysis coefficients at E = 1: 2 windows * 2 planes * 5 bins * 4 channels * 2
        (dict(windows=2, embed=1), 4, 625_000),
        # top-M's operand when M = bins: 5 kept * 2 planes * 2 windows * 64
        (dict(windows=2, embed=64, top_m=5), 1, 78_125),
        # the head's hidden activations and its output
        (dict(windows=2, embed=1, hidden=1000), 1, 100_000),
        (dict(windows=2, embed=1, horizon=2000), 1, 50_000),
    ])
    def test_batch_above_the_cap_refused_before_allocating(self, monkeypatch, fields, d, most):
        """The largest batch whose biggest array holds at most data.MAX_VALUES
        values reaches the analysis; one sample more is refused, naming what
        the size grows with, before anything is allocated."""
        class Analysed(Exception):
            pass

        def analyse(*args, **kwargs):
            raise Analysed

        monkeypatch.setattr(model, "rstft", analyse)
        cfg = tiny_cfg(**dict(lookback=16, nfft=8, top_m=1, backbone="fd", hidden=1,
                              horizon=1) | fields)
        params = init_params(cfg)
        tracemalloc.start()
        try:
            with pytest.raises(Analysed):
                forward(np.broadcast_to(0.0, (most, 16, d)), params, cfg)
            with pytest.raises(ConfigError, match="above the cap of 100,000,000") as err:
                forward(np.broadcast_to(0.0, (most + 1, 16, d)), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for named in (f"batch={most + 1}", "lookback=16", f"channels={d}",
                      f"windows={cfg.windows}", "nfft=8", f"embed={cfg.embed}",
                      f"top_m={cfg.top_m}", f"hidden={cfg.hidden}", f"horizon={cfg.horizon}"):
            assert named in str(err.value)
        assert peak < 2**20, peak

    def test_horizon_may_exceed_flattened_width(self, rng):
        cfg = tiny_cfg(horizon=40)  # > lookback * embed = 32
        out = forward(rng.normal(size=(2, 8, 1)), init_params(cfg), cfg)
        assert out.shape == (2, 40, 1)

    def test_forward_is_deterministic(self, rng):
        cfg = tiny_cfg()
        x = rng.normal(size=(2, 8, 2))
        p1, p2 = init_params(cfg), init_params(cfg)
        for (n1, t1), (n2, t2) in zip(p1.named_tensors(), p2.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        assert np.array_equal(forward(x, p1, cfg).data, forward(x, p2, cfg).data)

    def test_forward_analyses_the_raw_input_once(self, monkeypatch, rng):
        """One analysis per forward, of the un-lifted input: trailing axis 1, not E."""
        cfg = tiny_cfg(embed=4)
        params, x = init_params(cfg), rng.normal(size=(2, 8, 3))
        forward(x, params, cfg)  # warm-up: caches the plan's constant-one spectrum
        shapes = []
        kernel = fftkit.rfft_onesided
        monkeypatch.setattr(fftkit, "rfft_onesided",
                            lambda a, axis=-1: shapes.append(np.shape(a)) or kernel(a, axis))
        forward(x, params, cfg)
        assert shapes == [(2, cfg.windows, cfg.nfft, 3, 1)]

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_synthesis_reads_only_the_kept_bins(self, monkeypatch, rng, kind):
        """Forward and backward hand the synthesis kernels top_m rows per window,
        plane and channel on axis 3, never the plan's full bin count."""
        cfg = tiny_cfg(lookback=16, windows=2, nfft=8, top_m=3, backbone=kind)
        params = init_params(cfg)
        seen = []
        for name in ("irfft_onesided", "irfft_transpose"):
            kernel = getattr(fftkit, name)

            def spy(*args, _name=name, _kernel=kernel, **kwargs):
                out = _kernel(*args, **kwargs)
                spectrum = args[0] if _name == "irfft_onesided" else out
                seen.append((_name, np.shape(spectrum)[2:4], np.shape(kwargs["index"])))
                return out

            monkeypatch.setattr(fftkit, name, spy)
        out = forward(rng.normal(size=(3, 16, 2)), params, cfg)
        mean_all(mul(out, out)).backward()
        assert cfg.top_m < cfg.plan().bins
        assert seen == [(name, (2, cfg.top_m), (3, 2, cfg.top_m, 2))
                        for name in ("irfft_onesided", "irfft_transpose")]


@st.composite
def lift_cases(draw):
    """(p, window_fn, nfft, hop, E, seed, M) of a lifted analysis: any p of 1,
    2, 4 or 8, either window, a tiling or an overlapping hop, and an M up to
    the bin count."""
    p = draw(st.sampled_from([1, 2, 4, 8]), label="p")
    window_fn = draw(st.sampled_from(WINDOW_FNS), label="window_fn")
    nfft = draw(st.integers(1, 16), label="nfft")
    hop = draw(st.integers(1, nfft), label="hop") if p > 1 else 0
    e = draw(st.integers(1, 5), label="embed")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return p, window_fn, nfft, hop, e, seed, draw(st.integers(1, nfft // 2 + 1), label="top_m")


class TestSpectralLift:
    @settings(max_examples=80, deadline=None)
    @given(case=lift_cases())
    # scale's terms sum to about 1e-5 of their size: a bound on the gradient's
    # own size flags its one-ulp error
    @example(case=(4, "hann", 9, 3, 1, 1170102, 2))
    def test_lift_of_spectra_is_spectra_of_lift(self, case):
        """rstft(x, plan, scale, bias) == rstft(x * scale + bias): values, top-M, gradients.

        The oracle is the closed form over ``np.fft.rfft``: the planes analyse
        the lifted windows, and with X the spectra of x's windows and U of
        the window alone, the gradient of mean(planes * 2w), which is
        mean(re * w) + mean(im * w), is
        sum(w * (Xr + Xi)) / N for scale and sum(w * (Ur + Ui)) / N for bias.
        Each gradient is held to 1e-12 of the summed size of its terms, since
        the terms may cancel far below it.
        """
        p, window_fn, nfft, hop, e, seed, m = case
        rng = np.random.default_rng(seed)
        plan = plan_stft(nfft + (p - 1) * hop, p, nfft, window_fn)
        x = rng.normal(size=(2, plan.lookback, 3))
        scale = Tensor(rng.normal(size=e))
        # bias bounded away from zero, so U (the constant-one spectrum) matters
        bias = Tensor(rng.uniform(0.2, 1.0, size=e) * rng.choice([-1.0, 1.0], size=e))
        weight = rng.normal(size=(2, p, plan.bins, 3, e))

        lifted = rstft(x[..., None], plan, scale, bias)
        planes = autograd.lift(lifted.factors.coef, lifted.factors.basis)
        mean_all(mul(planes, 2.0 * weight[:, :, None])).backward()
        got = [planes.data[:, :, 0], planes.data[:, :, 1], scale.grad, bias.grad]

        window = plan.window_values()
        frames = np.stack([x[:, i * hop:i * hop + nfft] for i in range(p)], axis=1)  # (2, p, n, 3)
        spec_x = np.fft.rfft(frames * window[:, None], axis=2)[..., None]
        spec_u = np.fft.rfft(window)[:, None, None]
        # the definition lifts in the time domain, by broadcasting, then windows
        spec = np.fft.rfft((frames[..., None] * scale.data + bias.data)
                           * window[:, None, None], axis=2)
        n, axes = weight.size, (0, 1, 2, 3)
        want = [spec.real, spec.imag,
                (weight * (spec_x.real + spec_x.imag)).sum(axis=axes) / n,
                (weight * (spec_u.real + spec_u.imag)).sum(axis=axes) / n]
        # a plane's largest value; for a gradient, the summed size of its terms
        size = [np.abs(spec.real).max(), np.abs(spec.imag).max(),
                (np.abs(weight * spec_x.real) + np.abs(weight * spec_x.imag)).sum(axis=axes) / n,
                (np.abs(weight * spec_u.real) + np.abs(weight * spec_u.imag)).sum(axis=axes) / n]
        for a, b, bound in zip(got, want, size):
            assert (np.abs(a - b) <= 1e-12 * bound).all()
        direct = rstft(x[..., None] * scale.data + bias.data, plan)
        assert np.array_equal(top_m_select(lifted, m).indices,
                              top_m_select(identity_lifted(direct), m).indices)

    def test_lift_needs_both_parameters_and_a_unit_axis(self, rng):
        plan = plan_stft(8, 2, 4)
        scale, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(ContractError, match="both scale and bias"):
            rstft(rng.normal(size=(1, 8, 2, 1)), plan, scale=scale)
        with pytest.raises(ContractError, match=r"\(1, 8, 2, 3\)"):
            rstft(rng.normal(size=(1, 8, 2, 3)), plan, scale, bias)

    def test_forward_leaves_the_lifted_planes_unbuilt(self, rng):
        """forward lifts only the kept rows: the analysis's spectra are their
        (B, p, 2, bins, D, 2) factors, and the full planes are never built."""
        cfg = tiny_cfg(lookback=16, windows=2, nfft=8, top_m=2)
        params, x = init_params(cfg), rng.normal(size=(3, 16, 2))
        debug = {}
        forward(x, params, cfg, debug=debug)
        spectra = debug["spectra"]
        assert spectra.planes is None and spectra.factors.coef.shape == (3, 2, 2, 5, 2, 2)
        assert spectra.shape == (3, 2, 2, 5, 2, cfg.embed)


# one parameter group per named-tensor role, the backbone's tensors together
def _group(name: str) -> str:
    return "backbone" if name.startswith("backbone.") else name


@st.composite
def gradient_cases(draw):
    """A run configuration and its inputs: any backbone kind, a tiling or an
    overlapping plan, either window function, B and D of 2 or 3, M below the
    bin count, any mask mode, non-zero scale, bias and backbone biases."""
    kind = draw(st.sampled_from(BACKBONE_KINDS), label="backbone")
    p = draw(st.sampled_from([2, 4]) if kind == "hc" else st.integers(1, 4), label="p")
    nfft = draw(st.integers(2, 8), label="nfft")
    tiles = p == 1 or draw(st.booleans(), label="tiles")
    hop = nfft if tiles else draw(st.integers(1, nfft - 1), label="hop")
    cfg = RunConfig(
        backbone=kind, windows=p, nfft=nfft, lookback=nfft + (p - 1) * hop, horizon=3,
        window_fn=draw(st.sampled_from(WINDOW_FNS), label="window_fn"),
        embed=draw(st.integers(1, 4), label="E"),
        top_m=draw(st.integers(1, nfft // 2), label="M"),
        mask_mode=draw(st.sampled_from(list(MASK_PLANES)), label="mask_mode"),
        hidden=5).validate()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    params = init_params(cfg, rng)
    signs = rng.choice([-1.0, 1.0], size=(2, cfg.embed))
    params.embed_scale.data[:] = signs[0] * rng.uniform(0.2, 1.0, size=cfg.embed)
    params.embed_bias.data[:] = signs[1] * rng.uniform(0.2, 1.0, size=cfg.embed)
    for i in range(p):
        params.backbone.biases.data[:, i] = rng.normal(scale=0.3, size=(2, cfg.embed))
    shape = (draw(st.integers(2, 3), label="B"), cfg.lookback, draw(st.integers(2, 3), label="D"))
    x, y = rng.normal(size=shape), rng.normal(size=(shape[0], cfg.horizon, shape[2]))
    return cfg, params, x, y, rng


@settings(max_examples=80, deadline=None)
@given(case=gradient_cases())
def test_tape_directional_derivatives_match_central_differences(case):
    """For every parameter group, the tape's derivative of forward's loss along
    a direction matches the central difference of the same loss of the
    reference forward (tests/reference.py) to 1e-6 relative (``max_rel_err``:
    below 1e-6 in size, absolute).

    With the kept bins and every ReLU's sign fixed, the loss is quadratic
    along one group's direction, so the difference is exact up to round-off.
    A draw whose M-th and (M+1)-th scores are within 1e-9 relative is
    skipped, and so is a group whose two steps differ in a kept bin or in a
    ReLU's sign, as the reference reports them."""
    cfg, params, x, y, rng = case
    named = params.named_tensors()
    if not reference_forward(x, params, cfg)[1] > 1e-9:
        event("M-th and (M+1)-th scores too close to call")
        return
    train_backward(mse_loss(forward(x, params, cfg), y))

    def loss_at(members, dirs, step):
        """The reference's loss with every member moved by step * its
        direction, and the kept bins and ReLU signs it ran with."""
        saved = [t.data.copy() for t in members]
        for t, d in zip(members, dirs):
            t.data += step * d
        pred, _, routing = reference_forward(x, params, cfg)
        for t, old in zip(members, saved):
            t.data[...] = old
        return float(np.mean((pred - y) ** 2)), routing

    h = 1e-3
    for group in dict.fromkeys(_group(name) for name, _ in named):
        members = [t for name, t in named if _group(name) == group]
        grads = [np.zeros(t.shape) if t.grad is None else t.grad for t in members]
        norm = np.sqrt(sum((g ** 2).sum() for g in grads))
        noise = [rng.normal(size=t.shape) for t in members]
        size = np.sqrt(sum((d ** 2).sum() for d in noise))
        # a random direction plus the gradient's own, so that the derivative
        # is not small for want of alignment
        dirs = [d / size + (g / norm if norm > 0 else 0.0) for d, g in zip(noise, grads)]
        tape = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
        (up, at_up), (down, at_down) = (loss_at(members, dirs, s * h) for s in (1.0, -1.0))
        if not all(np.array_equal(a, b) for a, b in zip(at_up, at_down)):
            event("a step moves a kept bin or a ReLU's sign")
            continue
        numeric = (up - down) / (2 * h)
        assert max_rel_err(np.array(tape), np.array(numeric)) <= 1e-6, (group, tape, numeric)


@pytest.mark.parametrize("kind, p, radius", [("fd", 3, 1), ("wm", 4, 2), ("wm", 1, 3),
                                              ("hc", 8, 1), ("basic", 3, 1)])
def test_parameter_count_is_what_init_params_allocates(kind, p, radius):
    cfg = tiny_cfg(backbone=kind, windows=p, radius=radius, lookback=4 * p, nfft=4)
    assert cfg.parameter_count() == sum(t.data.size for _, t in init_params(cfg).named_tensors())


class TestMasking:
    def test_mode_vocabulary(self):
        assert len(MASK_PLANES) == 7
        assert mask_planes("x_real") == ("real", None)
        assert mask_planes("w_imag+x_imag") == ("imag", "imag")
        assert mask_planes("w_real") == (None, "real")
        assert mask_planes("w_real+x_real") == ("real", "real")
        assert mask_planes("x_imag") == ("imag", None)
        assert mask_planes("none") == (None, None)

    def test_unknown_mode_rejected(self, rng):
        cfg = dataclasses.replace(tiny_cfg(), mask_mode="w_nonsense")
        with pytest.raises(ConfigError):
            forward(np.zeros((1, 8, 1)), init_params(tiny_cfg()), cfg)

    def test_none_is_bit_identical_to_default(self, rng):
        cfg = tiny_cfg()
        params = init_params(cfg)
        x = rng.normal(size=(2, 8, 2))
        a = forward(x, params, cfg).data
        b = forward(x, params, dataclasses.replace(cfg, mask_mode="none")).data
        assert np.array_equal(a, b)

    def test_hiding_imag_of_constant_signal_is_noop(self):
        cfg = tiny_cfg(top_m=3)  # full retention; constant spectra are DC-only
        params = init_params(cfg)
        x = np.ones((1, 8, 1))
        base = forward(x, params, cfg).data
        masked = forward(x, params, dataclasses.replace(cfg, mask_mode="x_imag")).data
        np.testing.assert_allclose(masked, base, atol=1e-10)

    def test_masked_spectra_plane_is_exactly_zero(self, rng):
        cfg = dataclasses.replace(tiny_cfg(), mask_mode="x_real")
        params = init_params(cfg)
        debug = {}
        forward(rng.normal(size=(2, 8, 2)), params, cfg, debug=debug)
        for c in debug["spectra"].windows:
            assert np.abs(c.re.data).max() == 0.0
            assert np.abs(c.im.data).max() > 0.0

    def test_real_masked_real_weights_leave_bias_only(self, rng):
        cfg = dataclasses.replace(tiny_cfg(backbone="basic"), mask_mode="w_real")
        params = init_params(cfg)
        params.backbone.weights.data[1] = 0.0  # purely real weights
        for i in range(cfg.windows):
            params.backbone.biases.data[0, i] = rng.normal(size=cfg.embed)
        debug = {}
        forward(rng.normal(size=(1, 8, 1)), params, cfg, debug=debug)
        for i, c in enumerate(debug["mixed"].windows):
            want = np.maximum(params.backbone.biases.data[0, i], 0.0)
            np.testing.assert_allclose(
                c.re.data, np.broadcast_to(want, c.re.shape), atol=1e-14
            )

    @pytest.mark.parametrize("mode", ["w_real", "w_imag", "w_imag+x_imag", "w_real+x_real"])
    def test_weight_planes_zeroed_at_init(self, mode):
        cfg = dataclasses.replace(tiny_cfg(), mask_mode=mode)
        params = init_params(cfg)
        _, plane = mask_planes(mode)
        for w in params.backbone.weights.data.swapaxes(0, 1):
            masked = w[0] if plane == "real" else w[1]
            assert np.abs(masked).max() == 0.0

    def test_apply_weight_mask_validates_mode(self):
        params = init_params(tiny_cfg())
        with pytest.raises(ConfigError):
            apply_weight_mask_to_data(params, "garbage")


class TestCheckpoint:
    def test_roundtrip(self, rng, tmp_path):
        cfg = tiny_cfg(backbone="wm", windows=3, lookback=12, nfft=6, top_m=2)
        params = init_params(cfg)
        stats = {"min": [0.0, 1.0], "max": [2.0, 3.0]}
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg, stats)
        loaded, cfg2, stats2 = load_checkpoint(str(path))
        assert cfg2.as_dict() == cfg.as_dict()
        assert stats2 == stats
        for (n1, t1), (n2, t2) in zip(params.named_tensors(), loaded.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(BACKBONE_KINDS), p=st.integers(1, 8), e=st.integers(1, 5),
           radius=st.integers(1, 4), mask=st.sampled_from(list(MASK_PLANES)),
           stats=st.none() | st.integers(1, 4).flatmap(lambda c: st.fixed_dictionaries(
               {key: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=c, max_size=c) for key in ("min", "max")})),
           seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, kind, p, e, radius, mask, stats, seed):
        """save then load is the identity: tensors bit for bit, config and stats equal."""
        cfg = RunConfig(backbone=kind, windows=p, lookback=4 + 2 * (p - 1), nfft=4,
                        embed=e, radius=radius, mask_mode=mask, top_m=2, horizon=3,
                        hidden=5)
        assume(not cfg.problems())
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        for _, t in params.named_tensors():
            t.data = rng.normal(size=t.data.shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, params, cfg, stats)
            loaded, cfg2, stats2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert stats2 == stats
        pairs = list(zip(params.named_tensors(), loaded.named_tensors(), strict=True))
        for (n1, t1), (n2, t2) in pairs:
            assert n1 == n2
            assert t1.data.shape == t2.data.shape
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        """Loading allocates the tensors from the config's shapes: no random
        initialisation is drawn only to be overwritten."""
        cfg = tiny_cfg(backbone="basic", mask_mode="w_imag")
        params = init_params(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg, None)

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random values")

        monkeypatch.setattr(np.random, "default_rng", draw)
        loaded, _, _ = load_checkpoint(str(path))
        pairs = list(zip(params.named_tensors(), loaded.named_tensors(), strict=True))
        for (n1, t1), (n2, t2) in pairs:
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ContractError):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(ContractError):
            load_checkpoint(str(path))

    @staticmethod
    def _edit_header(path, edit):
        """Rewrite a checkpoint's JSON header in place; edit returns payload bytes to drop."""
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        drop = edit(header)
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = blob[16 + hlen:len(blob) - drop]
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + payload)

    def test_missing_tensor_named(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)

        def drop_last(header):
            entry = header["tensors"].pop()
            assert entry["name"] == "head.b2"
            return 8 * cfg.horizon

        self._edit_header(path, drop_last)
        with pytest.raises(ContractError, match="head.b2"):
            load_checkpoint(str(path))

    def test_renamed_backbone_tensor_rejected(self, tmp_path):
        cfg = tiny_cfg(backbone="hc")
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)

        def rename(header):
            for entry in header["tensors"]:
                if entry["name"] == "backbone.hc.w.1.im":
                    entry["name"] = "backbone.hc.w1.im"
            return 0

        self._edit_header(path, rename)
        with pytest.raises(ContractError, match=r"backbone\.hc\.w\.1\.im"):
            load_checkpoint(str(path))

    def test_cut_inside_header_length_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(ContractError, match="truncated inside its header"):
            load_checkpoint(str(path))

    def test_header_length_beyond_file_rejected(self, tmp_path):
        # a corrupt length must not become a read of that many bytes
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<Q", 2**62) + blob[16:])
        with pytest.raises(ContractError, match="truncated inside its header"):
            load_checkpoint(str(path))

    def test_header_not_json_rejected(self, tmp_path):
        blob = b"{not json"
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"FQCKPT01" + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(ContractError, match="not JSON"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["config", "tensors", "version"])
    def test_header_key_missing_named(self, tmp_path, key):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        def drop_key(header):
            del header[key]
            return 0

        self._edit_header(path, drop_key)
        with pytest.raises(ContractError, match=f"lacks \\['{key}'\\]"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["name", "shape"])
    def test_tensor_entry_key_missing_named(self, tmp_path, key):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)

        def drop_key(header):
            del header["tensors"][1][key]
            return 0

        self._edit_header(path, drop_key)
        with pytest.raises(ContractError, match=f"tensor entry 1 lacks \\['{key}'\\]"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.update(tensors=5), "field 'tensors' must be a list, got 5"),
        (lambda h: h.update(tensors=None), "field 'tensors' must be a list, got None"),
        (lambda h: h["tensors"][1].update(shape=5),
         "tensor entry 1 field 'shape' must be a list of sizes, got 5"),
        (lambda h: h["tensors"][1].update(shape=[4.0]),
         "tensor entry 1 field 'shape' must be a list of sizes, got [4.0]"),
        (lambda h: h["tensors"][1].update(name=["x"]),
         "tensor entry 1 field 'name' must be a string, got ['x']"),
        (lambda h: h["config"].update(lookback=-5),
         "field 'config': invalid configuration:"),
        (lambda h: h["config"].update(embed=0),
         "field 'config': invalid configuration:\n  - embed must be >= 1, got 0"),
        (lambda h: h["config"].update(epochs=True), "field 'config': bad value for epochs"),
    ], ids=["tensors-int", "tensors-null", "shape-int", "shape-float", "name-list",
            "config-lookback", "config-embed", "config-bool"])
    def test_malformed_header_field_named(self, tmp_path, edit, message):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        self._edit_header(path, lambda header: edit(header) or 0)
        with pytest.raises(ContractError, match=re.escape(f"checkpoint {path} {message}")):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, tmp_path, bad):
        """fit never writes a non-finite parameter; a checkpoint holding one is refused."""
        cfg = tiny_cfg()
        params = init_params(cfg)
        params.head_b1.data[2] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg, None)
        with pytest.raises(ContractError,
                           match=re.escape(f"checkpoint {path} tensor 'head.b1' holds non-finite")):
            load_checkpoint(str(path))

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "absent.ckpt"
        with pytest.raises(ContractError, match="cannot open checkpoint .*absent.ckpt"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(cfg), cfg, None)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ContractError, match="trailing"):
            load_checkpoint(str(path))


FIXTURES = os.path.join(os.path.dirname(__file__), "data")
# checkpoint name of window i's bias after "backbone.<kind>.", as the format fixes it
BIAS_NAMES = {"fd": "{}.b", "wm": "bias.{}", "hc": "b.{}", "basic": "bias.{}"}


def read_checkpoint(path: str) -> tuple[list, np.ndarray]:
    """A checkpoint's tensor manifest and its whole payload, read by the format alone."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen])["tensors"], np.frombuffer(blob[16 + hlen:], "<f8")


class TestCheckpointLayout:
    """One tiny checkpoint per backbone kind, written by ``save_checkpoint`` when
    every weight and bias plane was a Tensor of its own; slot k of its payload
    (from 1) holds k / 8.  Loading must put each named plane where the backbone
    reads it, and saving must write the same manifest and bytes back.  A round
    trip through one tree cannot catch a layout that save and load both change."""

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_named_planes_land_where_the_backbone_reads_them(self, kind, tmp_path):
        path = os.path.join(FIXTURES, f"{kind}.ckpt")
        manifest, payload = read_checkpoint(path)
        np.testing.assert_array_equal(payload, np.arange(1, payload.size + 1) / 8)
        params, cfg, stats = load_checkpoint(path)
        names, _ = block_table(kind, cfg.windows, cfg.radius)
        bias_of = {BIAS_NAMES[kind].format(i): i for i in range(cfg.windows)}
        weights, biases = params.backbone.weights.data, params.backbone.biases.data
        at = 0
        for entry in manifest:
            name, size = entry["name"], int(np.prod(entry["shape"]))
            want = payload[at:at + size].reshape(entry["shape"])
            at += size
            if name.startswith("backbone."):
                stem, plane = name[len(f"backbone.{kind}."):].rsplit(".", 1)
                c = ("re", "im").index(plane)
                got = biases[c, bias_of[stem]] if stem in bias_of else weights[c, names.index(stem)]
            else:
                got = getattr(params, name.replace(".", "_")).data
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert at == payload.size

        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), params, cfg, stats)
        assert read_checkpoint(str(again))[0] == manifest
        assert read_checkpoint(str(again))[1].tobytes() == payload.tobytes()

    def test_spot_checks(self):
        """Slots counted by hand: embed scale and bias take slots 1-4, then each
        backbone plane of E x E = 4 (weights) or E = 2 (biases) values follows."""
        hc, _, _ = load_checkpoint(os.path.join(FIXTURES, "hc.ckpt"))
        # w.0.re, w.0.im, w.1.re, w.1.im, w.2.re take slots 5-24
        np.testing.assert_array_equal(hc.backbone.weights.data[1, 2],
                                      np.arange(25, 29).reshape(2, 2) / 8)  # w.2.im
        manifest, _ = read_checkpoint(os.path.join(FIXTURES, "fd.ckpt"))
        assert [e["name"] for e in manifest] == [
            "embed.scale", "embed.bias",
            "backbone.fd.0.w.re", "backbone.fd.0.w.im", "backbone.fd.0.b.re", "backbone.fd.0.b.im",
            "backbone.fd.1.w.re", "backbone.fd.1.w.im", "backbone.fd.1.b.re", "backbone.fd.1.b.im",
            "head.w1", "head.b1", "head.w2", "head.b2"]
        fd, _, _ = load_checkpoint(os.path.join(FIXTURES, "fd.ckpt"))
        # fd interleaves: window 0's weight (slots 5-12), its bias (13-16), window 1's ...
        biases = fd.backbone.biases.data
        np.testing.assert_array_equal(biases[:, 0], np.array([[13, 14], [15, 16]]) / 8)
        np.testing.assert_array_equal(fd.backbone.weights.data[0, 1],
                                      np.arange(17, 21).reshape(2, 2) / 8)
        np.testing.assert_array_equal(biases[:, 1], np.array([[25, 26], [27, 28]]) / 8)
