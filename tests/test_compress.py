"""Top-M selection against a full-sort oracle; exact positional padding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast.autograd import Tensor
from freqcast.compress import position_aware_pad, top_m_select
from freqcast.errors import ConfigError, ContractError
from freqcast.spectral import SpectralWindows, plan_stft, rstft


def make_spectra(rng, lookback=32, p=3, nfft=16, channels=2, embed=2, batch=2):
    plan = plan_stft(lookback, p, nfft)
    x = rng.normal(size=(batch, lookback, channels, embed))
    return rstft(Tensor(x), plan)


def test_full_retention_is_bit_exact_identity(rng):
    s = make_spectra(rng)
    bins = s.bins
    padded = position_aware_pad(top_m_select(s, bins))
    for orig, back in zip(s.windows, padded.windows):
        assert np.array_equal(back.re.data, orig.re.data)
        assert np.array_equal(back.im.data, orig.im.data)
    for idx in top_m_select(s, bins).indices:
        assert np.array_equal(idx, np.broadcast_to(np.arange(bins)[None, :, None], idx.shape))


def test_single_support_signal(rng):
    plan = plan_stft(16, 1, 16)
    k = 3
    t = np.arange(16)
    x = np.cos(2 * np.pi * k * t / 16)[None, :, None, None]
    s = rstft(Tensor(x), plan)
    comp = top_m_select(s, 1)
    assert comp.indices[0].ravel().tolist() == [k]
    np.testing.assert_allclose(
        comp.windows[0].value()[0, 0, 0, 0], s.windows[0].value()[0, k, 0, 0]
    )
    padded = position_aware_pad(comp)
    full = padded.windows[0].value()[0, :, 0, 0]
    assert np.abs(np.delete(full, k)).max() == 0.0


def test_kept_sets_match_full_sort_oracle(rng):
    s = make_spectra(rng, lookback=40, p=4, nfft=16, channels=3, embed=2)
    for m in (1, 2, 4):
        comp = top_m_select(s, m)
        for c, idx in zip(s.windows, comp.indices):
            score = (np.abs(c.value()) ** 2).sum(axis=3)  # (B, bins, D)
            for b in range(score.shape[0]):
                for d in range(score.shape[2]):
                    order = sorted(
                        range(score.shape[1]), key=lambda j: (-score[b, j, d], j)
                    )
                    assert set(idx[b, :, d].tolist()) == set(order[:m])
                    assert list(idx[b, :, d]) == sorted(idx[b, :, d])


def test_selected_coefficients_copied_unchanged(rng):
    s = make_spectra(rng)
    comp = top_m_select(s, 3)
    for c, kept, idx in zip(s.windows, comp.windows, comp.indices):
        full = c.value()
        for b in range(full.shape[0]):
            for d in range(full.shape[2]):
                np.testing.assert_array_equal(
                    kept.value()[b, :, d, :], full[b, idx[b, :, d], d, :]
                )


def test_energy_monotone_in_m(rng):
    s = make_spectra(rng, nfft=16)
    total = sum((np.abs(c.value()) ** 2).sum() for c in s.windows)
    previous = 0.0
    for m in range(1, s.bins + 1):
        kept = sum(
            (np.abs(c.value()) ** 2).sum() for c in top_m_select(s, m).windows
        )
        assert kept >= previous - 1e-12
        previous = kept
    np.testing.assert_allclose(previous, total)


def test_select_pad_select_idempotent(rng):
    s = make_spectra(rng)
    first = top_m_select(s, 3)
    second = top_m_select(position_aware_pad(first), 3)
    for a, b in zip(first.indices, second.indices):
        assert np.array_equal(a, b)
    for a, b in zip(first.windows, second.windows):
        np.testing.assert_allclose(a.value(), b.value(), atol=1e-14)


def test_m_out_of_range(rng):
    s = make_spectra(rng)
    with pytest.raises(ConfigError):
        top_m_select(s, 0)
    with pytest.raises(ConfigError):
        top_m_select(s, s.bins + 1)


def test_plane_shape_mismatch_rejected(rng):
    """Mismatched planes would broadcast into the score; they are refused."""
    s = make_spectra(rng)
    with pytest.raises(ContractError, match=r"re \(2, 3, 9, 2, 2\) vs im \(2, 3, 9, 2, 1\)"):
        top_m_select(SpectralWindows(s.re, s.im[..., :1], s.plan), 2)


@pytest.mark.parametrize("bad", [-1, 9])
def test_pad_refuses_bin_index_outside_plane(rng, bad):
    """Bin 9 of 9 would be a valid row of the next plane, and -1 of the previous
    one; the bin range is checked before they become rows."""
    comp = top_m_select(make_spectra(rng), 2)
    comp.indices[1][0, 0, 0] = bad
    with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 9\)"):
        position_aware_pad(comp)


def test_ties_break_toward_lower_bin(rng):
    plan = plan_stft(8, 1, 8)
    s = rstft(Tensor(np.zeros((1, 8, 1, 1))), plan)
    comp = top_m_select(s, 2)  # all scores zero: expect bins 0 and 1
    assert comp.indices[0].ravel().tolist() == [0, 1]


@st.composite
def random_plan_spectra(draw):
    """Random planes on a random valid plan, and a random M; p = 1, E = 1, D = 1
    and M = bins are all reachable.  Half the draws fill the planes with small
    integers, so that equal scores are common."""
    p = draw(st.integers(1, 4))
    nfft = draw(st.integers(1, 16))
    hop = draw(st.integers(1, nfft)) if p > 1 else 0
    plan = plan_stft(nfft + (p - 1) * hop, p, nfft)
    shape = (draw(st.integers(1, 3)), p, plan.bins, draw(st.integers(1, 3)),
             draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        re, im = (rng.integers(-1, 2, size=shape).astype(float) for _ in range(2))
    else:
        re, im = rng.normal(size=shape), rng.normal(size=shape)
    m = draw(st.integers(1, plan.bins))
    return SpectralWindows(Tensor(re), Tensor(im), plan), m


@settings(max_examples=80, deadline=None)
@given(case=random_plan_spectra())
def test_routing_matches_exhaustive_sort(case):
    """Kept indices are the exhaustive sort's first M (ties to the lower bin),
    ascending; kept values are those bins' rows; padding restores them in
    place, with every other bin zero, bit for bit."""
    s, m = case
    re, im = s.re.data, s.im.data
    score = (re ** 2 + im ** 2).sum(axis=4)
    b, p, bins, d = score.shape
    oracle = np.empty((b, p, m, d), dtype=int)
    for ix in np.ndindex(b, p):
        for k in range(d):
            ranked = sorted(range(bins), key=lambda j: (-score[ix][j, k], j))
            oracle[ix][:, k] = sorted(ranked[:m])

    comp = top_m_select(s, m)
    assert np.array_equal(np.stack(comp.indices, axis=1), oracle)
    for full, kept in ((re, [w.re.data for w in comp.windows]),
                       (im, [w.im.data for w in comp.windows])):
        expected = np.take_along_axis(full, oracle[..., None], axis=2)
        assert np.stack(kept, axis=1).tobytes() == expected.tobytes()

    kept = np.zeros(score.shape, dtype=bool)
    np.put_along_axis(kept, oracle, True, axis=2)
    padded = position_aware_pad(comp)
    for full, back in ((re, padded.re.data), (im, padded.im.data)):
        expected = np.where(kept[..., None], full, 0.0)
        assert back.tobytes() == expected.tobytes()
