"""Mixing layers: identity cases, independent oracles, parameter counts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import backbones, model
from freqcast.autograd import CTensor, Tensor, block_matrix, mean_all, mul
from freqcast.backbones import (
    BACKBONE_KINDS,
    HC_WINDOW_COUNTS,
    WEIGHT_MASKS,
    BackboneParams,
    backbone_forward,
    backbone_named_tensors,
    block_table,
    count_weight_matrices,
    init_backbone,
)
from freqcast.compress import CompressedWindows, top_m_select
from freqcast.config import MASK_PLANES, RunConfig
from freqcast.errors import ConfigError, ContractError
from freqcast.hypercomplex import HCNumber, cd_multiply
from freqcast.spectral import WINDOW_FNS, plan_stft, rstft


def ct(rng, shape):
    return CTensor(Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape)))


def ct_from(arr):
    arr = np.asarray(arr, dtype=complex)
    return CTensor(Tensor(arr.real.copy()), Tensor(arr.imag.copy()))


def wrap(*windows):
    """Bare windows as a layer input; the layer never reads indices or plan."""
    return CompressedWindows(list(windows), [None] * len(windows), 0, None)


def compressed(rng, p=3, m=2, batch=2, channels=2, embed=3,
               lookback=None, nfft=8):
    lookback = lookback if lookback is not None else nfft * p
    plan = plan_stft(lookback, p, nfft)
    x = rng.normal(size=(batch, lookback, channels, embed))
    return top_m_select(rstft(Tensor(x), plan), m)


def one_layer(weight):
    """A single-window fd layer with the given complex weight and zero bias."""
    return BackboneParams([ct_from(weight)], [CTensor.zeros(weight.shape[0])])


def weight(kind, params, name):
    """A weight by its checkpoint name, without going through the table."""
    named = dict(backbone_named_tensors(kind, params))
    prefix = f"backbone.{kind}.{name}"
    return named[prefix + ".re"].data + 1j * named[prefix + ".im"].data


def values(c):
    return [w.value() for w in c.windows]


class TestFdMlp:
    def test_identity_layer_identity_activation(self, rng):
        c = ct(rng, (2, 4, 2, 3))
        out = backbone_forward("fd", wrap(c), one_layer(np.eye(3)), act="identity")
        np.testing.assert_allclose(out.windows[0].value(), c.value(), atol=1e-14)

    def test_pure_imaginary_weight_rotates(self, rng):
        x = rng.normal(size=(2, 5, 1, 3))
        c = CTensor(Tensor(x), Tensor(np.zeros_like(x)))
        out = backbone_forward("fd", wrap(c), one_layer(1j * np.eye(3)), act="identity")
        np.testing.assert_allclose(out.windows[0].value(), 1j * x, atol=1e-14)

    def test_matches_complex_arithmetic(self, rng):
        cs = [ct(rng, (2, 3, 2, 4)) for _ in range(2)]
        ws = [ct(rng, (4, 4)) for _ in range(2)]
        bs = [ct(rng, (4,)) for _ in range(2)]
        out = backbone_forward("fd", wrap(*cs), BackboneParams(ws, bs), act="identity")
        for c, w, b, got in zip(cs, ws, bs, out.windows):
            want = c.value() @ w.value() + b.value()
            np.testing.assert_allclose(got.value(), want, atol=1e-12)

    def test_relu_acts_per_plane(self, rng):
        c = ct(rng, (1, 2, 1, 2))
        out = backbone_forward("fd", wrap(c), one_layer(np.eye(2)), act="relu")
        np.testing.assert_allclose(out.windows[0].re.data, np.maximum(c.re.data, 0))
        np.testing.assert_allclose(out.windows[0].im.data, np.maximum(c.im.data, 0))

    def test_embedding_axis_mismatch(self, rng):
        with pytest.raises(ContractError, match="embedding axis"):
            backbone_forward("fd", wrap(ct(rng, (1, 2, 1, 3))), one_layer(np.eye(4)))


class TestWmMlp:
    def test_single_window_reduces_to_fd(self, rng):
        c = compressed(rng, p=1, m=3, nfft=8, lookback=8)
        params = init_backbone("wm", rng, 1, 3, radius=1)
        assert len(params.weights) == 1  # no neighbours
        out = backbone_forward("wm", c, params, act="identity", radius=1)
        want = values(c)[0] @ weight("wm", params, "self.0") + params.biases[0].value()
        np.testing.assert_allclose(out.windows[0].value(), want, atol=1e-13)

    def test_zero_neighbors_decouple_windows(self, rng):
        c = compressed(rng, p=3, m=2)
        params = init_backbone("wm", rng, 3, 3, radius=1)
        names, _ = block_table("wm", 3, 1)
        for name, w in zip(names, params.weights):
            if name.startswith("nbr."):
                w.re.data[...] = 0.0
                w.im.data[...] = 0.0
        out = backbone_forward("wm", c, params, act="identity", radius=1)
        cv = values(c)
        for i in range(3):
            want = cv[i] @ weight("wm", params, f"self.{i}") + params.biases[i].value()
            np.testing.assert_allclose(out.windows[i].value(), want, atol=1e-13)

    def test_literal_three_window_expansion(self, rng):
        """Independent per-window transcription: out_i = act(C_i W_{i->i}
        + C_{i-1} conj(W) + C_{i+1} conj(W) + B_i), missing windows zero."""
        c = compressed(rng, p=3, m=2)
        params = init_backbone("wm", rng, 3, 3, radius=1)
        for b in params.biases:
            b.re.data[:] = rng.normal(size=3)
            b.im.data[:] = rng.normal(size=3)
        out = backbone_forward("wm", c, params, act="identity", radius=1)
        cv = values(c)
        for i in range(3):
            want = cv[i] @ weight("wm", params, f"self.{i}")
            if i - 1 >= 0:
                want = want + cv[i - 1] @ np.conj(weight("wm", params, f"nbr.{i - 1}->{i}"))
            if i + 1 < 3:
                want = want + cv[i + 1] @ np.conj(weight("wm", params, f"nbr.{i + 1}->{i}"))
            want = want + params.biases[i].value()
            np.testing.assert_allclose(out.windows[i].value(), want, atol=1e-12)

    def test_conjugation_flag_off_uses_plain_weights(self, rng):
        c = compressed(rng, p=2, m=2)
        params = init_backbone("wm", rng, 2, 3, radius=1)
        out = backbone_forward("wm", c, params, act="identity", radius=1,
                               conjugate_neighbors=False)
        cv = values(c)
        want0 = (cv[0] @ weight("wm", params, "self.0")
                 + cv[1] @ weight("wm", params, "nbr.1->0")
                 + params.biases[0].value())
        np.testing.assert_allclose(out.windows[0].value(), want0, atol=1e-12)

    def test_radius_two_uses_second_neighbors(self, rng):
        c = compressed(rng, p=4, m=2)
        params = init_backbone("wm", rng, 4, 3, radius=2)
        names, _ = block_table("wm", 4, 2)
        assert {n for n in names if n.startswith("nbr.")} == {
            f"nbr.{s}->{d}" for s, d in [
                (1, 0), (2, 0), (0, 1), (2, 1), (3, 1),
                (1, 2), (3, 2), (0, 2), (2, 3), (1, 3),
            ]
        }
        out = backbone_forward("wm", c, params, act="identity", radius=2)
        cv = values(c)
        want0 = (cv[0] @ weight("wm", params, "self.0")
                 + cv[1] @ np.conj(weight("wm", params, "nbr.1->0"))
                 + cv[2] @ np.conj(weight("wm", params, "nbr.2->0"))
                 + params.biases[0].value())
        np.testing.assert_allclose(out.windows[0].value(), want0, atol=1e-12)

    def test_radius_must_fit_window_count(self, rng):
        with pytest.raises(ConfigError, match="radius"):
            init_backbone("wm", rng, 3, 2, radius=3)
        with pytest.raises(ConfigError, match="radius"):
            init_backbone("wm", rng, 3, 2, radius=0)
        # a single window is the allowed degenerate case
        init_backbone("wm", rng, 1, 2, radius=1)

    def test_radius_must_match_parameters(self, rng):
        c = compressed(rng, p=4, m=2)
        params = init_backbone("wm", rng, 4, 3, radius=1)
        with pytest.raises(ContractError, match="radius 2 != parameter radius 1"):
            backbone_forward("wm", c, params, radius=2)


class TestHcMlp:
    def test_identity_weight(self, rng):
        c = compressed(rng, p=4, m=2)
        params = init_backbone("hc", rng, 4, 3)
        for i, w in enumerate(params.weights):
            w.re.data[...] = np.eye(3) if i == 0 else 0.0
            w.im.data[...] = 0.0
        out = backbone_forward("hc", c, params, act="identity")
        for got, orig in zip(out.windows, c.windows):
            np.testing.assert_allclose(got.value(), orig.value(), atol=1e-13)

    def test_two_windows_embed_complex_case(self, rng):
        """Second window and second weight zero: first output window is the
        plain complex layer applied to the first input window."""
        plan = plan_stft(16, 2, 8)
        x = rng.normal(size=(2, 16, 1, 3))
        comp = top_m_select(rstft(Tensor(x), plan), 3)
        zero = CTensor(Tensor(np.zeros_like(comp.windows[1].re.data)),
                       Tensor(np.zeros_like(comp.windows[1].im.data)))
        comp = CompressedWindows([comp.windows[0], zero], comp.indices,
                                 comp.bins_total, comp.plan)
        params = init_backbone("hc", rng, 2, 3)
        params.weights[1].re.data[...] = 0.0
        params.weights[1].im.data[...] = 0.0
        out = backbone_forward("hc", comp, params, act="identity")
        want = comp.windows[0].value() @ weight("hc", params, "w.0") + params.biases[0].value()
        np.testing.assert_allclose(out.windows[0].value(), want, atol=1e-13)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_matches_scalar_brute_force(self, rng, p):
        e = 2
        c = compressed(rng, p=p, m=2, batch=1, channels=1, embed=e, nfft=4)
        params = init_backbone("hc", rng, p, e)
        out = backbone_forward("hc", c, params, act="identity")
        assert_hc_brute_force(values(c), params, values(out))

    def test_unsupported_window_count_names_alternatives(self, rng):
        with pytest.raises(ConfigError) as err:
            init_backbone("hc", rng, 3, 2)
        assert "window-mixing" in str(err.value) and "basic" in str(err.value)
        c = compressed(rng, p=3, m=2)
        good = init_backbone("hc", rng, 2, 3)
        with pytest.raises(ConfigError, match="window count"):
            backbone_forward("hc", c, good, act="identity")


class TestBasicMlp:
    def test_diagonal_grid_is_per_window_fd(self, rng):
        c = compressed(rng, p=3, m=2)
        params = init_backbone("basic", rng, 3, 3)
        names, _ = block_table("basic", 3)
        for name, w in zip(names, params.weights):
            src, dst = name.split("->")
            if src != dst:
                w.re.data[...] = 0.0
                w.im.data[...] = 0.0
        out = backbone_forward("basic", c, params, act="identity")
        cv = values(c)
        for i in range(3):
            want = cv[i] @ weight("basic", params, f"{i}->{i}") + params.biases[i].value()
            np.testing.assert_allclose(out.windows[i].value(), want, atol=1e-13)

    def test_two_window_hand_expansion(self, rng):
        c = compressed(rng, p=2, m=2)
        params = init_backbone("basic", rng, 2, 3)
        out = backbone_forward("basic", c, params, act="identity")
        cv = values(c)
        for i in range(2):
            want = (cv[0] @ weight("basic", params, f"0->{i}")
                    + cv[1] @ weight("basic", params, f"1->{i}")
                    + params.biases[i].value())
            np.testing.assert_allclose(out.windows[i].value(), want, atol=1e-12)

    def test_zero_grid_bias_only(self, rng):
        c = compressed(rng, p=2, m=2)
        params = init_backbone("basic", rng, 2, 3)
        for w in params.weights:
            w.re.data[...] = 0.0
            w.im.data[...] = 0.0
        for b in params.biases:
            b.re.data[:] = rng.normal(size=3)
            b.im.data[:] = rng.normal(size=3)
        out = backbone_forward("basic", c, params, act="relu")
        for i in range(2):
            want = np.maximum(params.biases[i].re.data, 0)[None, None, None, :]
            np.testing.assert_allclose(
                out.windows[i].re.data, np.broadcast_to(want, out.windows[i].shape)
            )

    def test_grid_shape_checked(self, rng):
        c = compressed(rng, p=3, m=2)
        params = init_backbone("basic", rng, 2, 3)
        with pytest.raises(ContractError, match="sized for 2 windows, got 3"):
            backbone_forward("basic", c, params, act="identity")


class TestParameterCounts:
    def test_headline_counts_at_four_windows(self):
        assert count_weight_matrices("hc", 4) == 4
        assert count_weight_matrices("wm", 4, radius=1) == 10
        assert count_weight_matrices("basic", 4) == 16

    def test_wm_general_radius_formula(self):
        for p in range(2, 9):
            for radius in range(1, p):
                expect = (2 * radius + 1) * p - radius * (radius + 1)
                assert count_weight_matrices("wm", p, radius) == expect

    def test_wm_radius_one_is_3p_minus_2(self):
        for p in range(2, 10):
            assert count_weight_matrices("wm", p, radius=1) == 3 * p - 2

    def test_fd_counts_one_per_window(self):
        assert count_weight_matrices("fd", 5) == 5

    def test_closed_form_counts_the_block_table(self):
        for kind in BACKBONE_KINDS:
            for p in HC_WINDOW_COUNTS if kind == "hc" else range(1, 17):
                # wm takes any radius below p, and any at all when p == 1
                for radius in (range(1, p if p > 1 else 4) if kind == "wm" else [1]):
                    names, _ = block_table(kind, p, radius)
                    assert count_weight_matrices(kind, p, radius) == len(names), (kind, p, radius)

    def test_counts_match_constructed_parameters(self, rng):
        p, e = 4, 2
        for kind in ("fd", "wm", "hc", "basic"):
            params = init_backbone(kind, rng, p, e, radius=1)
            assert len(params.weights) == count_weight_matrices(kind, p, 1)
            named = backbone_named_tensors(kind, params)
            assert len(named) == 2 * (len(params.weights) + p)

    def test_unknown_kind(self, rng):
        with pytest.raises(ConfigError, match="unknown backbone kind"):
            count_weight_matrices("attention", 4)
        with pytest.raises(ConfigError, match="unknown backbone kind"):
            init_backbone("attention", rng, 4, 2)
        params = init_backbone("fd", rng, 2, 3)
        with pytest.raises(ConfigError, match="unknown backbone kind"):
            backbone_forward("attention", compressed(rng, p=2), params)


class TestLinearity:
    @pytest.mark.parametrize("kind", ["fd", "wm", "hc", "basic"])
    def test_linear_with_identity_act_and_zero_bias(self, rng, kind):
        p, e = 4, 3
        params = init_backbone(kind, rng, p, e, radius=1)
        ca = compressed(rng, p=p, m=2, embed=e)
        cb = compressed(rng, p=p, m=2, embed=e)
        cb = CompressedWindows(cb.windows, ca.indices, cb.bins_total, cb.plan)
        a, b = 1.3, -0.7

        def run(c):
            return backbone_forward(kind, c, params, act="identity", radius=1)

        mix = CompressedWindows(
            [CTensor(Tensor(a * x.re.data + b * y.re.data),
                     Tensor(a * x.im.data + b * y.im.data))
             for x, y in zip(ca.windows, cb.windows)],
            ca.indices, ca.bins_total, ca.plan,
        )
        got = run(mix)
        wa, wb = run(ca), run(cb)
        for g, x, y in zip(got.windows, wa.windows, wb.windows):
            np.testing.assert_allclose(
                g.value(), a * x.value() + b * y.value(), atol=1e-10
            )


def masked(w, mask):
    """A complex weight with the masked plane removed."""
    if mask == "real":
        return 1j * w.imag
    if mask == "imag":
        return w.real + 0j
    return w


def assert_hc_brute_force(cv, params, got, mask=None):
    """Every output entry against the scalar Cayley-Dickson product."""
    p = len(cv)
    base = 2 * p
    wv = [masked(w.value(), mask) for w in params.weights]
    bv = [b.value() for b in params.biases]
    e = wv[0].shape[0]
    for idx in np.ndindex(cv[0].shape[:-1]):
        for eo in range(e):
            acc = HCNumber(base, tuple(complex(bv[k][eo]) for k in range(p)))
            for ei in range(e):
                x = HCNumber(base, tuple(complex(cv[k][idx + (ei,)]) for k in range(p)))
                w = HCNumber(base, tuple(complex(wv[k][ei, eo]) for k in range(p)))
                acc = acc + cd_multiply(x, w)
            want = np.array(acc.components)
            np.testing.assert_allclose(
                np.array([got[k][idx + (eo,)] for k in range(p)]), want, atol=1e-12
            )


def pair_sum_oracle(kind, cv, params, radius, conjugate_neighbors, mask):
    """out_d = sum over the kind's (src, dst) pairs of x_src @ W, in complex128."""
    p = len(cv)
    out = []
    for dst in range(p):
        acc = params.biases[dst].value() + np.zeros_like(cv[0])
        for src in range(p):
            if kind == "fd" and src == dst:
                w = weight("fd", params, f"{dst}.w")
            elif kind == "basic":
                w = weight("basic", params, f"{src}->{dst}")
            elif kind == "wm" and src == dst:
                w = weight("wm", params, f"self.{dst}")
            elif kind == "wm" and abs(src - dst) <= radius:
                w = weight("wm", params, f"nbr.{src}->{dst}")
                w = np.conj(w) if conjugate_neighbors else w
            else:
                continue
            acc = acc + cv[src] @ masked(w, mask)
        out.append(acc)
    return out


class TestBlockAssemblyProperties:
    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from([2, 4, 8]), e=st.integers(1, 4),
           mask=st.sampled_from([None, "real", "imag"]), seed=st.integers(0, 2**32 - 1))
    def test_hc_matches_cayley_dickson_brute_force(self, p, e, mask, seed):
        rng = np.random.default_rng(seed)
        cv = [rng.normal(size=(2, 1, 1, e)) + 1j * rng.normal(size=(2, 1, 1, e))
              for _ in range(p)]
        params = init_backbone("hc", rng, p, e)
        for b in params.biases:
            b.re.data[:] = rng.normal(size=e)
            b.im.data[:] = rng.normal(size=e)
        out = backbone_forward("hc", wrap(*map(ct_from, cv)), params,
                               act="identity", weight_mask=mask)
        assert_hc_brute_force(cv, params, values(out), mask)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["fd", "wm", "basic"]), p=st.integers(1, 6),
           e=st.integers(1, 4), radius=st.integers(1, 5), conj=st.booleans(),
           mask=st.sampled_from([None, "real", "imag"]), seed=st.integers(0, 2**32 - 1))
    def test_fd_wm_basic_match_pair_sums(self, kind, p, e, radius, conj, mask, seed):
        radius = min(radius, max(p - 1, 1))
        rng = np.random.default_rng(seed)
        cv = [rng.normal(size=(2, 3, 1, e)) + 1j * rng.normal(size=(2, 3, 1, e))
              for _ in range(p)]
        params = init_backbone(kind, rng, p, e, radius)
        for b in params.biases:
            b.re.data[:] = rng.normal(size=e)
            b.im.data[:] = rng.normal(size=e)
        out = backbone_forward(kind, wrap(*map(ct_from, cv)), params, act="identity",
                               radius=radius, conjugate_neighbors=conj, weight_mask=mask)
        want = pair_sum_oracle(kind, cv, params, radius, conj, mask)
        for got, w in zip(values(out), want):
            np.testing.assert_allclose(got, w, atol=1e-12)


def entry_loop_matrix(weights, blocks, p, weight_mask):
    """The block matrix assembled one table entry at a time, forward and
    backward: the reference the array layout must reproduce bit for bit."""
    entries = []
    for src, dst, w, sign, conj_x, conj_w in blocks:
        sx = -1 if conj_x else 1
        sw = -1 if conj_w else 1
        if weight_mask != "real":
            entries += [(weights[w].re, src, dst, sign),
                        (weights[w].re, p + src, p + dst, sign * sx)]
        if weight_mask != "imag":
            entries += [(weights[w].im, src, p + dst, sign * sw),
                        (weights[w].im, p + src, dst, -sign * sx * sw)]
    grid, size = 2 * p, weights[0].shape[0]
    blocks_out = np.zeros((grid, grid, size, size))
    for t, row, col, coef in entries:
        blocks_out[row, col] += coef * t.data

    def backward(g):
        g = g.reshape(grid, size, grid, size)
        for t, row, col, coef in entries:
            piece = coef * g[row, :, col, :]
            t.grad = piece if t.grad is None else t.grad + piece

    parents = tuple({id(t): t for t, _, _, _ in entries}.values())
    out = blocks_out.transpose(0, 2, 1, 3).reshape(grid * size, grid * size)
    return Tensor(out, parents, backward)


class TestBlockLayout:
    @pytest.mark.parametrize("kind, p, radius", [("fd", 3, 1), ("wm", 5, 2), ("hc", 4, 1),
                                                 ("hc", 8, 1), ("basic", 3, 1)])
    @pytest.mark.parametrize("conj", [True, False])
    @pytest.mark.parametrize("mask", WEIGHT_MASKS)
    def test_matches_the_per_entry_loop_bit_for_bit(self, kind, p, radius, conj, mask):
        rng = np.random.default_rng(7)
        params = init_backbone(kind, rng, p, 3, radius)
        parts = [w.re for w in params.weights] + [w.im for w in params.weights]
        g = rng.normal(size=(6 * p, 6 * p))

        def run(build):
            for t in parts:
                t.grad = None
            mix = build()
            mean_all(mul(mix, g)).backward()
            return mix.data, [t.grad for t in parts]

        want, want_grads = run(lambda: entry_loop_matrix(
            params.weights, block_table(kind, p, radius, conj)[1], p, mask))
        got, got_grads = run(lambda: block_matrix(
            parts, backbones._layout(kind, p, radius, conj, mask)))
        np.testing.assert_array_equal(got, want)
        for a, b in zip(got_grads, want_grads):
            assert (a is None) == (b is None)
            if b is not None:
                np.testing.assert_array_equal(a, b)

    def test_every_layout_fills_each_weight_plane_equally_often(self):
        """Each block takes one weight plane, and each used plane fills 2 blocks
        (2p on hc, whose p weights reach every window): ``BlockLayout.of``
        refuses a table that breaks either, so a new one fails here."""
        shapes = [(kind, p, radius) for kind in BACKBONE_KINDS
                  for p in (HC_WINDOW_COUNTS if kind == "hc" else range(1, 17))
                  for radius in (range(1, max(p, 2)) if kind == "wm" else (1,))]
        layouts = [(kind, p, backbones._layout(kind, p, radius, conj, mask))
                   for kind, p, radius in shapes
                   for conj in (True, False) for mask in WEIGHT_MASKS]
        assert len(layouts) == 936
        for kind, p, layout in layouts:
            assert layout.uses == (2 * p if kind == "hc" else 2)


def factored_cfg(kind, mask_mode, window_fn):
    return RunConfig(backbone=kind, mask_mode=mask_mode, window_fn=window_fn, lookback=16,
                     horizon=4, windows=4, nfft=7, embed=3, top_m=2, hidden=5).validate()


class TestFactoredBackbone:
    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    @pytest.mark.parametrize("mask_mode", list(MASK_PLANES))
    @pytest.mark.parametrize("window_fn", WINDOW_FNS)
    def test_factors_change_nothing_but_rounding(self, kind, mask_mode, window_fn,
                                                 monkeypatch):
        """forward through the lift's factors == forward on the materialised
        spectra over the identity basis: outputs and every parameter gradient."""
        cfg = factored_cfg(kind, mask_mode, window_fn)
        rng = np.random.default_rng(3)
        params = model.init_params(cfg)
        params.embed_bias.data[:] = rng.normal(size=cfg.embed)
        x = rng.normal(size=(3, cfg.lookback, 2))
        named = params.named_tensors()

        def run():
            for _, t in named:
                t.grad = None
            out = model.forward(x, params, cfg)
            mean_all(mul(out, out)).backward()
            return out.data, [t.grad for _, t in named]

        want, want_grads = run()
        select = model.top_m_select
        monkeypatch.setattr(model, "top_m_select",
                            lambda s, m: dataclasses.replace(select(s, m), factors=None))
        got, got_grads = run()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for (name, _), a, b in zip(named, got_grads, want_grads):
            assert (a is None) == (b is None), name
            if b is not None:
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name

    def test_lifted_path_hands_the_backbone_the_two_row_basis(self, monkeypatch):
        cfg = factored_cfg("basic", "none", "rectangular")
        params = model.init_params(cfg)
        seen = []
        product = backbones.factored_matmul

        def spy(x, coef, basis, w):
            seen.append((coef.shape, basis))
            return product(x, coef, basis, w)

        monkeypatch.setattr(backbones, "factored_matmul", spy)
        model.forward(np.ones((2, cfg.lookback, 1)), params, cfg)
        [(coef_shape, basis)] = seen
        np.testing.assert_array_equal(
            basis, np.stack([params.embed_scale.data, params.embed_bias.data]))
        assert coef_shape[-1] == 2 * cfg.windows * 2
