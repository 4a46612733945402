"""Whole-model contracts: embedding, shapes, skip path, masking, checkpoints."""

import dataclasses
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqcast import fftkit
from freqcast.autograd import Tensor, mean_all, mul
from freqcast.backbones import BACKBONE_KINDS, block_table
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

TINY = dict(lookback=8, horizon=4, embed=4, windows=2, nfft=4, top_m=3, hidden=8,
            batch=2, epochs=2)


def tiny_cfg(**overrides):
    kw = {**TINY, **overrides}
    return RunConfig(**kw).validate()


def make_identity_backbone(params, kind, embed_dim):
    """Identity on weights whose blocks all lie on the diagonal, zero elsewhere."""
    _, blocks = block_table(kind, len(params.backbone.biases), params.backbone.radius)
    off_diagonal = {w for src, dst, w, *_ in blocks if src != dst}
    for i, w in enumerate(params.backbone.weights):
        w.re.data[...] = 0.0 if i in off_diagonal else np.eye(embed_dim)
        w.im.data[...] = 0.0


class TestEmbed:
    def test_unit_scale_broadcasts(self, rng):
        cfg = tiny_cfg()
        params = init_params(cfg)
        params.embed_scale.data[:] = 1.0
        params.embed_bias.data[:] = 0.0
        x = rng.normal(size=(2, 8, 3))
        out = embed(Tensor(x), params).data
        np.testing.assert_allclose(out, np.repeat(x[..., None], 4, axis=3))

    def test_zero_input_gives_bias(self, rng):
        cfg = tiny_cfg()
        params = init_params(cfg)
        params.embed_bias.data[:] = rng.normal(size=4)
        out = embed(Tensor(np.zeros((1, 8, 2))), params).data
        np.testing.assert_allclose(out, np.broadcast_to(params.embed_bias.data, out.shape))

    def test_matches_direct_formula(self, rng):
        cfg = tiny_cfg(embed=2)
        params = init_params(cfg)
        x = rng.normal(size=(2, 8, 2))
        out = embed(Tensor(x), params).data
        want = x[..., None] * params.embed_scale.data + params.embed_bias.data
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_rank_checked(self):
        cfg = tiny_cfg()
        with pytest.raises(ContractError):
            embed(Tensor(np.zeros((8, 2))), init_params(cfg))

    def test_input_is_data(self, rng):
        """A leaf input gets no gradient; one computed by earlier ops is refused."""
        cfg = tiny_cfg()
        params = init_params(cfg)
        x = Tensor(rng.normal(size=(2, 8, 3)))
        mean_all(embed(x, params)).backward()
        assert x.grad is None and params.embed_scale.grad is not None
        with pytest.raises(ContractError, match="computed by earlier ops"):
            embed(mul(x, 2.0), params)
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
        forward(rng.normal(size=(2, 16, 2)), params, cfg, debug=debug)
        x_e = debug["embedded"].data
        x_rec = debug["reconstructed"].data
        assert np.abs(x_rec - x_e).max() < 1e-6 * np.abs(x_e).max()

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
        for run in (lambda x: forward(x, params, cfg), lambda x: embed(x, params)):
            with pytest.raises(ContractError,
                               match=re.escape(f"B >= 1 and D >= 1, got shape {shape}")):
                run(np.zeros(shape))

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
        """Forward and backward hand the synthesis kernels top_m rows per window
        and channel on axis 2, never the plan's full bin count."""
        cfg = tiny_cfg(lookback=16, windows=2, nfft=8, top_m=2, backbone=kind)
        params = init_params(cfg)
        seen = []
        for name in ("irfft_onesided", "irfft_transpose"):
            kernel = getattr(fftkit, name)

            def spy(*args, _name=name, _kernel=kernel, **kwargs):
                out = _kernel(*args, **kwargs)
                planes = args[0] if _name == "irfft_onesided" else out[0]
                seen.append((_name, np.shape(planes)[2], np.shape(kwargs["index"])))
                return out

            monkeypatch.setattr(fftkit, name, spy)
        out = forward(rng.normal(size=(3, 16, 2)), params, cfg)
        mean_all(mul(out, out)).backward()
        assert cfg.top_m < cfg.plan().bins
        assert seen == [(name, cfg.top_m, (3, 2, cfg.top_m, 2))
                        for name in ("irfft_onesided", "irfft_transpose")]


class TestSpectralLift:
    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from([1, 2, 4, 8]), window_fn=st.sampled_from(WINDOW_FNS),
           data=st.data())
    def test_lift_of_spectra_is_spectra_of_lift(self, p, window_fn, data):
        """rstft(x, plan, scale, bias) == rstft(x * scale + bias): values, top-M, gradients.

        The oracle is the closed form over ``np.fft.rfft``: the planes analyse
        the lifted windows, and with X the spectra of x's windows and U of
        the window alone, the gradient of mean(re * w) + mean(im * w) is
        sum(w * (Xr + Xi)) / N for scale and sum(w * (Ur + Ui)) / N for bias.
        """
        nfft = data.draw(st.integers(1, 16), label="nfft")
        hop = data.draw(st.integers(1, nfft), label="hop") if p > 1 else 0
        e = data.draw(st.integers(1, 5), label="embed")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        plan = plan_stft(nfft + (p - 1) * hop, p, nfft, window_fn)
        x = rng.normal(size=(2, plan.lookback, 3))
        scale = Tensor(rng.normal(size=e))
        # bias bounded away from zero, so U (the constant-one spectrum) matters
        bias = Tensor(rng.uniform(0.2, 1.0, size=e) * rng.choice([-1.0, 1.0], size=e))
        weight = rng.normal(size=(2, p, plan.bins, 3, e))

        lifted = rstft(x[..., None], plan, scale, bias)
        (mean_all(mul(lifted.re, weight)) + mean_all(mul(lifted.im, weight))).backward()
        got = [lifted.re.data, lifted.im.data, scale.grad, bias.grad]

        window = plan.window_values()
        frames = np.stack([x[:, s:s + nfft] for s in plan.starts], axis=1)  # (2, p, n, 3)
        spec_x = np.fft.rfft(frames * window[:, None], axis=2)[..., None]
        spec_u = np.fft.rfft(window)[:, None, None]
        # the definition lifts in the time domain, by broadcasting, then windows
        spec = np.fft.rfft((frames[..., None] * scale.data + bias.data)
                           * window[:, None, None], axis=2)
        n = weight.size
        want = [spec.real, spec.imag,
                (weight * (spec_x.real + spec_x.imag)).sum(axis=(0, 1, 2, 3)) / n,
                (weight * (spec_u.real + spec_u.imag)).sum(axis=(0, 1, 2, 3)) / n]
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        direct = rstft(x[..., None] * scale.data + bias.data, plan)
        m = data.draw(st.integers(1, plan.bins), label="top_m")
        assert np.array_equal(top_m_select(lifted, m).indices, top_m_select(direct, m).indices)

    def test_lift_needs_both_parameters_and_a_unit_axis(self, rng):
        plan = plan_stft(8, 2, 4)
        scale, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(ContractError, match="both scale and bias"):
            rstft(rng.normal(size=(1, 8, 2, 1)), plan, scale=scale)
        with pytest.raises(ContractError, match=r"\(1, 8, 2, 3\)"):
            rstft(rng.normal(size=(1, 8, 2, 3)), plan, scale, bias)


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
        for w in params.backbone.weights:
            w.im.data[...] = 0.0  # purely real weights
        for b in params.backbone.biases:
            b.re.data[:] = rng.normal(size=cfg.embed)
        debug = {}
        forward(rng.normal(size=(1, 8, 1)), params, cfg, debug=debug)
        for i, c in enumerate(debug["mixed"].windows):
            want = np.maximum(params.backbone.biases[i].re.data, 0.0)
            np.testing.assert_allclose(
                c.re.data, np.broadcast_to(want, c.shape), atol=1e-14
            )

    @pytest.mark.parametrize("mode", ["w_real", "w_imag", "w_imag+x_imag", "w_real+x_real"])
    def test_weight_planes_zeroed_at_init(self, mode):
        cfg = dataclasses.replace(tiny_cfg(), mask_mode=mode)
        params = init_params(cfg)
        _, plane = mask_planes(mode)
        for w in params.backbone.weights:
            masked = w.re.data if plane == "real" else w.im.data
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
