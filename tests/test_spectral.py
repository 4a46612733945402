"""Plan validation, analysis against the naive DFT oracle, exact round trips."""

import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freqcast import fftkit, spectral
from freqcast.autograd import Tensor, mul
from freqcast.compress import position_aware_pad, top_m_select
from freqcast.errors import ConfigError, ContractError
from freqcast.spectral import (
    WINDOW_FNS,
    LiftFactors,
    SpectralWindows,
    istft,
    plan_stft,
    rstft,
    valid_window_counts,
)

from conftest import identity_lifted, lifted_planes, naive_dft, plan_geometry


def spectra_values(x, plan):
    """Per-window complex (B, bins, D, E) values of x's plain spectra."""
    planes = rstft(Tensor(x), plan).planes.data
    return [planes[:, i, 0] + 1j * planes[:, i, 1] for i in range(plan.window_count)]


class TestPlanning:
    def test_zero_overlap_layout(self):
        plan = plan_stft(96, 6, 16)
        assert plan.hop == 16
        assert plan.nfft - plan.hop == 0  # zero overlap
        assert [i * plan.hop for i in range(plan.window_count)] == [0, 16, 32, 48, 64, 80]
        assert plan.bins == 9

    def test_single_window_is_plain_fft(self):
        plan = plan_stft(96, 1, 96)
        assert plan.hop == 0 and plan.window_count == 1
        with pytest.raises(ConfigError):
            plan_stft(96, 1, 48)

    def test_indivisible_layout_rejected_with_suggestion(self):
        with pytest.raises(ConfigError) as err:
            plan_stft(96, 13, 16)
        msg = str(err.value)
        for needle in ("96", "13", "16", "nearest valid window count is 11"):
            assert needle in msg

    def test_nfft_larger_than_lookback_rejected(self):
        with pytest.raises(ConfigError):
            plan_stft(32, 2, 48)

    def test_nfft_whose_operators_exceed_the_cap_rejected(self):
        """The DFT operator pair holds 2 * 2 * nfft * bins values: 99,998,080 at
        nfft 7070, within data.MAX_VALUES, and 100,012,224 at 7071."""
        plan_stft(7070, 1, 7070)
        with pytest.raises(ConfigError, match="nfft=7071 needs a DFT operator pair of "
                                              "100,012,224 values, above the cap"):
            plan_stft(7071, 1, 7071)

    def test_gapped_layout_rejected(self):
        # hop = (96-16)/2 = 40 > nfft: samples between windows get no energy
        with pytest.raises(ConfigError) as err:
            plan_stft(96, 3, 16)
        assert "zero" in str(err.value) or "hop" in str(err.value)

    def test_valid_window_counts_math(self):
        counts = valid_window_counts(96, 16)
        assert 6 in counts and 11 in counts and 13 not in counts
        # hop must divide and stay <= nfft
        for p in counts:
            if p > 1:
                hop = (96 - 16) // (p - 1)
                assert (96 - 16) % (p - 1) == 0 and hop <= 16
        for lookback, windows, nfft, hint in [(96, 13, 16, 11), (96, 33, 6, 31)]:
            with pytest.raises(ConfigError, match=f"nearest valid window count is {hint}$"):
                plan_stft(lookback, windows, nfft)

    def test_valid_window_counts_match_a_scan_of_every_count(self):
        """Listing the counts from the divisors of lookback - nfft finds exactly
        the counts p >= 2 whose hop divides it and stays <= nfft."""
        for lookback in range(2, 120):
            for nfft in range(1, lookback):
                span = lookback - nfft
                scan = [p for p in range(2, span + 2)
                        if span % (p - 1) == 0 and span // (p - 1) <= nfft]
                assert valid_window_counts(lookback, nfft) == scan, (lookback, nfft)
        assert valid_window_counts(16, 16) == [1]

    def test_unknown_window_function(self):
        with pytest.raises(ConfigError):
            plan_stft(32, 2, 16, window_fn="blackman")

    @pytest.mark.parametrize("nfft", [1, 2, 5, 16, 24, 128])
    def test_hann_values_follow_the_half_sample_offset_formula(self, nfft):
        """w[t] = 0.5 (1 - cos(2 pi (t + 0.5) / n)) for t = 0 .. n - 1.  Synthesis
        inverts any positive window, so the round-trip tests would pass with
        any other offset."""
        t = np.arange(nfft)
        want = 0.5 * (1.0 - np.cos(2.0 * np.pi * (t + 0.5) / nfft))
        np.testing.assert_allclose(spectral._window_values("hann", nfft), want,
                                   rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(geometry=plan_geometry(16, 64), window_fn=st.sampled_from(WINDOW_FNS))
    def test_coverage_positive_everywhere(self, geometry, window_fn):
        """Every plan plan_stft accepts gives every sample positive window energy,
        so synthesis can always divide by it and plan_stft needs no check of it."""
        p, nfft, hop = geometry
        plan = plan_stft(nfft + (p - 1) * hop, p, nfft, window_fn)
        assert plan.coverage().min() > 0


class TestAnalysis:
    def test_zero_input_zero_spectra(self):
        plan = plan_stft(32, 3, 16)
        for c in spectra_values(np.zeros((2, 32, 2, 2)), plan):
            assert np.abs(c).max() == 0.0

    def test_constant_input_all_energy_at_dc(self):
        plan = plan_stft(40, 5, 8)
        x = np.ones((1, 40, 1, 1))
        for c in spectra_values(x, plan):
            np.testing.assert_allclose(c[0, 0, 0, 0], plan.nfft, atol=1e-12)
            assert np.abs(c[0, 1:, 0, 0]).max() < 1e-10

    def test_aligned_tone_concentrates_in_its_bin(self, rng):
        plan = plan_stft(32, 3, 16)
        k = 3
        t = np.arange(32)
        x = np.sin(2 * np.pi * k * t / 16)[None, :, None, None]
        for c in spectra_values(x, plan):
            mags = np.abs(c[0, :, 0, 0])
            assert mags.argmax() == k
            others = np.delete(mags, k)
            assert others.max() < 1e-9 * mags[k]

    @pytest.mark.parametrize("window_fn", ["rectangular", "hann"])
    def test_matches_naive_dft_oracle(self, rng, window_fn):
        plan = plan_stft(30, 4, 12, window_fn)
        x = rng.normal(size=(2, 30, 2, 3))
        w = plan.window_values()
        got = spectra_values(x, plan)
        for i in range(plan.window_count):
            s = i * plan.hop
            seg = x[:, s:s + plan.nfft] * w[None, :, None, None]
            want = naive_dft(seg, axis=1)[:, : plan.bins]
            scale = np.abs(want).max()
            assert np.abs(got[i] - want).max() / scale < 1e-10

    def test_real_input_has_real_dc_and_nyquist(self, rng):
        plan = plan_stft(24, 3, 8)
        x = rng.normal(size=(1, 24, 1, 2))
        for c in spectra_values(x, plan):
            assert np.abs(c[:, 0].imag).max() < 1e-12
            assert np.abs(c[:, -1].imag).max() < 1e-12

    def test_linearity(self, rng):
        plan = plan_stft(40, 3, 16, "hann")
        x, y = rng.normal(size=(1, 40, 1, 1)), rng.normal(size=(1, 40, 1, 1))
        a, b = 0.7, -2.1
        mixed = spectra_values(a * x + b * y, plan)
        sx, sy = spectra_values(x, plan), spectra_values(y, plan)
        for m, cx, cy in zip(mixed, sx, sy):
            np.testing.assert_allclose(m, a * cx + b * cy, atol=1e-10)

    def test_parseval_rectangular(self, rng):
        plan = plan_stft(32, 3, 16)
        x = rng.normal(size=(1, 32, 1, 1))
        spectra = spectra_values(x, plan)
        for i, c in enumerate(spectra):
            seg = x[0, i * plan.hop:i * plan.hop + plan.nfft, 0, 0]
            mags2 = np.abs(c[0, :, 0, 0]) ** 2
            # interior bins represent two conjugate coefficients each
            spec_energy = (mags2[0] + mags2[-1] + 2 * mags2[1:-1].sum()) / plan.nfft
            assert abs(seg @ seg - spec_energy) < 1e-8 * max(1.0, seg @ seg)

    def test_wrong_length_rejected(self, rng):
        plan = plan_stft(32, 3, 16)
        with pytest.raises(ContractError):
            rstft(Tensor(np.zeros((1, 31, 1, 1))), plan)


class TestRoundTrip:
    def test_zero_roundtrip(self):
        plan = plan_stft(32, 3, 16)
        out = istft(rstft(Tensor(np.zeros((1, 32, 1, 1))), plan))
        assert np.abs(out.data).max() == 0.0

    def test_rectangular_zero_overlap(self, rng):
        plan = plan_stft(96, 6, 16)
        x = rng.normal(size=(2, 96, 2, 2))
        out = istft(rstft(Tensor(x), plan)).data
        assert np.abs(out - x).max() / np.abs(x).max() < 1e-6

    def test_hann_half_overlap(self, rng):
        plan = plan_stft(56, 6, 16, "hann")
        assert plan.hop == 8  # 50% overlap
        x = rng.normal(size=(2, 56, 2, 2))
        out = istft(rstft(Tensor(x), plan)).data
        assert np.abs(out - x).max() / np.abs(x).max() < 1e-6

    @pytest.mark.parametrize("geometry", [
        (96, 4, 48, "rectangular"),
        (96, 1, 96, "rectangular"),
        (30, 4, 12, "hann"),
        (26, 6, 6, "hann"),
    ])
    def test_various_plans(self, rng, geometry):
        lookback, p, nfft, window_fn = geometry
        plan = plan_stft(lookback, p, nfft, window_fn)
        x = rng.normal(size=(1, lookback, 2, 1))
        out = istft(rstft(Tensor(x), plan)).data
        assert np.abs(out - x).max() / np.abs(x).max() < 1e-6

    def test_window_count_mismatch_rejected(self, rng):
        plan = plan_stft(32, 3, 16)
        s = rstft(Tensor(rng.normal(size=(1, 32, 1, 1))), plan)
        s = SpectralWindows(Tensor(s.planes.data[:, :-1]), plan)
        with pytest.raises(ContractError, match="2 windows"):
            istft(s)

    def test_plane_shape_mismatch_rejected(self, rng):
        """Axis 2 holds the real and the imaginary plane: spectra with one
        plane, with three, or with no plane axis are refused by shape."""
        plan = plan_stft(32, 3, 16)
        s = rstft(Tensor(rng.normal(size=(1, 32, 1, 2))), plan)
        three = np.concatenate([s.planes.data, s.planes.data[:, :, :1]], axis=2)
        for bad, shape in ((s.planes.data[:, :, :1], r"\(1, 3, 1, 9, 1, 2\)"),
                           (three, r"\(1, 3, 3, 9, 1, 2\)"),
                           (s.planes.data[:, :, 0], r"\(1, 3, 9, 1, 2\)")):
            with pytest.raises(ContractError, match=rf"spectra of shape {shape} are not"):
                istft(SpectralWindows(Tensor(bad), plan))

    def test_bins_mismatch_rejected(self, rng):
        plan = plan_stft(32, 3, 16)
        s = rstft(Tensor(rng.normal(size=(1, 32, 1, 1))), plan)
        s = SpectralWindows(Tensor(s.planes.data[:, :, :, :-1]), plan)
        with pytest.raises(ContractError, match="8 bins"):
            istft(s)


def test_window_views_are_read_only_and_off_the_tape(rng):
    """``.windows`` reads lifted spectra only: spectra of planes alone are
    refused."""
    plan = plan_stft(32, 3, 16)
    x = rng.normal(size=(1, 32, 1, 1))
    s = rstft(x, plan, Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2)))
    for i, c in enumerate(s.windows):
        for view, plane in zip((c.re, c.im), np.moveaxis(lifted_planes(s), 2, 0)):
            assert view._backward is None and not view._parents
            assert not view.data.flags.writeable
            np.testing.assert_array_equal(view.data, plane[:, i])
    with pytest.raises(ContractError, match="got spectra of planes alone"):
        rstft(Tensor(x), plan).windows


def test_reading_windows_records_no_tape_node(monkeypatch, rng):
    """``.windows`` of lifted spectra are values: no Tensor made while reading
    them gets a backward, and the lifted planes stay unbuilt; the values are
    those of the planes the factors lift to.  Pad's kept form, planes
    without factors, is refused."""
    plan = plan_stft(16, 3, 8, "hann")
    s = rstft(rng.normal(size=(2, 16, 3, 1)), plan, Tensor(rng.normal(size=4)),
              Tensor(rng.normal(size=4)))
    padded = position_aware_pad(top_m_select(s, 2))
    made, init = [], Tensor.__init__
    with monkeypatch.context() as mp:
        mp.setattr(Tensor, "__init__", lambda self, data, parents=(), backward=None: (
            made.append(backward), init(self, data, parents, backward))[1])
        lifted = s.windows
    assert len(made) == 6 and not any(made) and s.planes is None
    for i, c in enumerate(lifted):
        for view, plane in zip((c.re, c.im), np.moveaxis(lifted_planes(s), 2, 0)):
            assert np.array_equal(view.data, plane[:, i])
    with pytest.raises(ContractError, match="got spectra of planes alone"):
        padded.windows


@pytest.mark.parametrize("geometry", [(24, 1, 24), (24, 4, 12), (96, 8, 26)])  # p = 1, 4, 8
def test_one_kernel_call_per_transform(monkeypatch, rng, geometry):
    """Every window goes through one stacked kernel call, whatever p is."""
    calls = {"rfft_onesided": 0, "irfft_onesided": 0}
    for name in calls:
        kernel = getattr(fftkit, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(fftkit, name, counted)
    plan = plan_stft(*geometry)
    x = rng.normal(size=(2, plan.lookback, 2, 3))
    out = istft(rstft(Tensor(x), plan))
    assert calls == {"rfft_onesided": 1, "irfft_onesided": 1}
    assert np.abs(out.data - x).max() < 1e-10


def test_plain_rstft_takes_its_input_as_data(rng):
    """Without scale and bias the planes are constants, and an input computed
    by earlier ops is refused rather than silently cut from its history."""
    plan = plan_stft(12, 3, 6, "hann")
    x = Tensor(rng.normal(size=(2, 12, 1, 2)))
    s = rstft(x, plan)
    assert not s.planes._parents and s.planes._backward is None
    with pytest.raises(ContractError, match="rstft takes its input as data"):
        rstft(mul(x, 2.0), plan)


@settings(max_examples=80, deadline=None)
@given(geometry=plan_geometry(6, 40), window_fn=st.sampled_from(WINDOW_FNS), data=st.data())
def test_synthesis_round_trips_on_random_valid_plans(geometry, window_fn, data):
    """istft inverts rstft on every valid plan, and so it does after keeping
    every bin through top-M and the padding's kept form.  Half the draws tile
    the lookback, and half overlap."""
    p, nfft, hop = geometry
    plan = plan_stft(nfft + (p - 1) * hop, p, nfft, window_fn)
    event("tiles" if p * nfft == plan.lookback else "overlaps")
    shape = (data.draw(st.integers(1, 3), label="B"), plan.lookback,
             data.draw(st.integers(1, 3), label="D"), data.draw(st.integers(1, 3), label="E"))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).normal(
        size=shape)
    s = rstft(Tensor(x), plan)
    assert np.abs(istft(s).data - x).max() < 1e-10
    padded = position_aware_pad(top_m_select(identity_lifted(s), plan.bins))
    assert padded.index is not None
    assert np.abs(istft(padded).data - x).max() < 1e-10


def test_top_m_refuses_a_kept_form_spectrum(rng):
    s = identity_lifted(rstft(Tensor(rng.normal(size=(1, 32, 1, 1))), plan_stft(32, 3, 16)))
    padded = position_aware_pad(top_m_select(s, 3))
    with pytest.raises(ContractError, match="kept-form spectrum of 3 bins"):
        top_m_select(identity_lifted(padded), 3)


def test_top_m_refuses_spectra_of_planes_alone(rng):
    """Top-M reads the factors of lifted spectra; plain planes are refused,
    with the reason, before any score is formed."""
    s = rstft(Tensor(rng.normal(size=(1, 32, 1, 2))), plan_stft(32, 3, 16))
    with pytest.raises(ContractError, match="lifted spectra.*got spectra of planes alone"):
        top_m_select(s, 3)


def test_istft_refuses_lifted_spectra_that_carry_only_factors(rng):
    plan = plan_stft(16, 3, 8)
    s = rstft(rng.normal(size=(2, 16, 3, 1)), plan, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ContractError, match="lifted spectra that carry only their factors"):
        istft(s)


@pytest.mark.parametrize("bins", [[1, 1], [2, 1]])
def test_kept_form_refuses_repeated_or_unordered_bins(bins):
    """Top-M keeps each bin once, ascending: synthesis would sum a repeated
    bin, and the bins' order sets its round-off."""
    plan = plan_stft(8, 1, 8)
    planes = Tensor(np.ones((1, 1, 2, 2, 1, 1)))
    with pytest.raises(ContractError, match="strictly ascending"):
        SpectralWindows(planes, plan, np.array(bins).reshape(1, 1, 2, 1))


def test_lifted_spectra_carry_their_factors(rng):
    """rstft's factors multiply out to the spectra of the lifted input, no
    planes are built, and factors that do not make the planes they come
    with are refused by shape."""
    plan = plan_stft(16, 3, 8)
    scale, bias = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    x = rng.normal(size=(2, 16, 3, 1))
    s = rstft(x, plan, scale, bias)
    direct = rstft(x * scale.data + bias.data, plan)
    f = s.factors
    assert s.planes is None and s.shape == direct.shape
    np.testing.assert_array_equal(f.basis.data, np.stack([scale.data, bias.data]))
    assert f.basis._parents == (scale._node, bias._node)
    np.testing.assert_allclose(f.coef @ f.basis.data, direct.planes.data, rtol=0, atol=1e-14)
    for bad in (LiftFactors(f.coef, Tensor(f.basis.data[:, :3])),
                LiftFactors(f.coef[..., :1], f.basis),
                LiftFactors(f.coef[:1], f.basis)):
        with pytest.raises(ContractError, match=re.escape(
                f"factors {bad.coef.shape} over basis {bad.basis.shape} do not make "
                "spectra of shape (2, 3, 2, 5, 3, 4)")):
            SpectralWindows(direct.planes, plan, factors=bad)
    with pytest.raises(ContractError, match=r"spectra of shape \(2, 3, 1, 5, 3, 4\)"):
        SpectralWindows(None, plan, factors=LiftFactors(f.coef[:, :, :1], f.basis))
