"""Top-M selection against a full-sort oracle; exact positional padding."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freqcast import compress
from freqcast.autograd import Tensor
from freqcast.compress import CompressedWindows, position_aware_pad, top_m_select
from freqcast.errors import ConfigError, ContractError
from freqcast.model import _mask_spectra
from freqcast.spectral import WINDOW_FNS, SpectralWindows, plan_stft, rstft

from conftest import cvalue, identity_lifted, lifted_planes, plan_geometry


def make_spectra(rng, lookback=32, p=3, nfft=16, channels=2, embed=2, batch=2):
    plan = plan_stft(lookback, p, nfft)
    x = rng.normal(size=(batch, lookback, channels, embed))
    return identity_lifted(rstft(Tensor(x), plan))


def test_full_retention_is_bit_exact_identity(rng):
    s = make_spectra(rng)
    bins = s.bins
    padded = identity_lifted(dense(position_aware_pad(top_m_select(s, bins))))
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
    s = identity_lifted(rstft(Tensor(x), plan))
    comp = top_m_select(s, 1)
    assert comp.indices[0].ravel().tolist() == [k]
    np.testing.assert_allclose(
        cvalue(comp.windows[0])[0, 0, 0, 0], cvalue(s.windows[0])[0, k, 0, 0]
    )
    padded = identity_lifted(dense(position_aware_pad(comp)))
    full = cvalue(padded.windows[0])[0, :, 0, 0]
    assert np.abs(np.delete(full, k)).max() == 0.0


def test_kept_sets_match_full_sort_oracle(rng):
    s = make_spectra(rng, lookback=40, p=4, nfft=16, channels=3, embed=2)
    for m in (1, 2, 4):
        comp = top_m_select(s, m)
        for c, idx in zip(s.windows, comp.indices):
            score = (np.abs(cvalue(c)) ** 2).sum(axis=3)  # (B, bins, D)
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
        full = cvalue(c)
        for b in range(full.shape[0]):
            for d in range(full.shape[2]):
                np.testing.assert_array_equal(
                    cvalue(kept)[b, :, d, :], full[b, idx[b, :, d], d, :]
                )


def test_energy_monotone_in_m(rng):
    s = make_spectra(rng, nfft=16)
    total = sum((np.abs(cvalue(c)) ** 2).sum() for c in s.windows)
    previous = 0.0
    for m in range(1, s.bins + 1):
        kept = sum(
            (np.abs(cvalue(c)) ** 2).sum() for c in top_m_select(s, m).windows
        )
        assert kept >= previous - 1e-12
        previous = kept
    np.testing.assert_allclose(previous, total)


def dense(s: SpectralWindows) -> SpectralWindows:
    """A kept-form spectrum as full planes: its kept entries scattered into
    zero planes at the bins its index names."""
    planes = np.zeros(s.shape[:3] + (s.bins,) + s.shape[4:])
    np.put_along_axis(planes, s.index[:, :, None, ..., None], s.planes.data, axis=3)
    return SpectralWindows(Tensor(planes), s.plan)


def test_select_pad_select_idempotent(rng):
    s = make_spectra(rng)
    first = top_m_select(s, 3)
    second = top_m_select(identity_lifted(dense(position_aware_pad(first))), 3)
    for a, b in zip(first.indices, second.indices):
        assert np.array_equal(a, b)
    for a, b in zip(first.windows, second.windows):
        np.testing.assert_allclose(cvalue(a), cvalue(b), atol=1e-14)


def test_m_out_of_range(rng):
    s = make_spectra(rng)
    with pytest.raises(ConfigError):
        top_m_select(s, 0)
    with pytest.raises(ConfigError):
        top_m_select(s, s.bins + 1)


def test_plane_shape_mismatch_rejected(rng):
    """Spectra with one plane would reach the score with no imaginary part;
    they are refused."""
    s = make_spectra(rng)
    with pytest.raises(ContractError, match=r"spectra of shape \(2, 3, 1, 9, 2, 2\)"):
        top_m_select(SpectralWindows(Tensor(s.factors.coef[:, :, :1]), s.plan), 2)


@pytest.mark.parametrize("bad", [-1, 9])
def test_pad_refuses_bin_index_outside_plane(rng, bad):
    """Bin 9 of 9 would be a valid row of the next plane, and -1 of the previous
    one; the bin range is checked before they become rows."""
    comp = top_m_select(make_spectra(rng), 2)
    comp.indices[1][0, 0, 0] = bad
    with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 9\)"):
        position_aware_pad(comp)


@pytest.mark.parametrize("kept", [2, 4])
def test_pad_refuses_an_index_of_another_m(rng, kept):
    """An operand of M = 3 kept rows with an index naming 2 or 4 bins per
    window is refused where the padded spectrum is built."""
    comp = top_m_select(make_spectra(rng), 3)
    index = np.concatenate([comp.index, comp.index], axis=2)[:, :, :kept]
    bad = CompressedWindows(comp.stacked, index, comp.bins_total, comp.plan)
    with pytest.raises(ContractError, match=rf"kept bin index of shape \(2, 3, {kept}, 2\) "
                                            r"does not name the axis-3 bins"):
        position_aware_pad(bad)


def test_ties_break_toward_lower_bin(rng):
    plan = plan_stft(8, 1, 8)
    s = identity_lifted(rstft(Tensor(np.zeros((1, 8, 1, 1))), plan))
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
    return identity_lifted(SpectralWindows(Tensor(np.stack([re, im], axis=2)), plan)), m


@settings(max_examples=80, deadline=None)
@given(case=random_plan_spectra())
def test_routing_matches_exhaustive_sort(case):
    """Kept indices are the exhaustive sort's first M (ties to the lower bin),
    ascending; kept values are those bins' rows; padding restores them in
    place, with every other bin zero, bit for bit."""
    s, m = case
    re, im = np.moveaxis(s.factors.coef, 2, 0)
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
    padded = dense(position_aware_pad(comp))
    for full, back in zip((re, im), np.moveaxis(padded.planes.data, 2, 0)):
        expected = np.where(kept[..., None], full, 0.0)
        assert back.tobytes() == expected.tobytes()


def stable_sort_oracle(score: np.ndarray, m: int) -> np.ndarray:
    """Per (sample, window, channel) of (B, p, bins, D) scores, the first m
    bins ranked by (-score, bin) with NaN last, ascending: (B, p, m, D)."""
    b, p, bins, d = score.shape
    oracle = np.empty((b, p, m, d), dtype=int)
    for ix in np.ndindex(b, p):
        for k in range(d):
            col = score[ix][:, k]
            ranked = sorted(range(bins), key=lambda j: (bool(np.isnan(col[j])),
                                                        0.0 if np.isnan(col[j]) else -col[j], j))
            oracle[ix][:, k] = sorted(ranked[:m])
    return oracle


SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 2.0)


@st.composite
def special_plane_scores(draw):
    """Scores, magnitude squared summed over E, of random-plan planes holding
    NaN, +-inf, -0.0 and small integers: each entry drawn from those, every
    entry of a plane one of them (all-equal rows), or normals with about a
    third of the entries replaced by them."""
    p, nfft, hop = draw(plan_geometry(4, 16))
    plan = plan_stft(nfft + (p - 1) * hop, p, nfft)
    shape = (draw(st.integers(1, 3)), p, 2, plan.bins, draw(st.integers(1, 3)),
             draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["special", "constant", "mixed"]))
    event(f"{fill} planes")
    if fill == "special":
        planes = rng.choice(SPECIAL, size=shape)
    elif fill == "constant":
        planes = np.full(shape, draw(st.sampled_from(SPECIAL)))
    else:
        planes = rng.normal(size=shape)
        swap = rng.random(shape) < 1 / 3
        planes[swap] = rng.choice(SPECIAL, size=swap.sum())
    re, im = np.moveaxis(planes, 2, 0)
    return (re ** 2 + im ** 2).sum(axis=4)


@settings(max_examples=80, deadline=None)
@given(score=special_plane_scores())
def test_kept_bins_equal_the_stable_sort_on_special_values(score):
    """For every M, the kept bins are the stable sort's, also where scores are
    NaN (ranked last), +inf, zero, or tied across the M-th place.  The scores
    are given as they are: lifted spectra would make NaN of an infinite
    entry's neighbours (inf * 0)."""
    for m in range(1, score.shape[2] + 1):
        assert np.array_equal(compress._kept_bins(score, m), stable_sort_oracle(score, m))


def test_lifted_spectra_of_a_nan_sample_keep_the_stable_sorts_bins(rng):
    """Lifted spectra score from their factors; a NaN input sample makes every
    one of its scores NaN, so it keeps bins 0..M-1, and the other samples keep
    the stable sort's bins of the factored score, for every M."""
    x = rng.normal(size=(3, 40, 2, 1))
    x[1] = np.nan
    s = rstft(x, plan_stft(40, 4, 16), Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3)))
    score = compress._score(s.factors)
    assert np.isnan(score[1]).all() and not np.isnan(score[[0, 2]]).any()
    for m in range(1, s.bins + 1):
        kept = top_m_select(s, m).index
        assert np.array_equal(kept, stable_sort_oracle(score, m))
        assert np.array_equal(kept[1], np.broadcast_to(np.arange(m)[:, None], kept[1].shape))


def test_tie_free_scores_never_reach_the_stable_sort(rng, monkeypatch):
    """At predict-long's shapes, (32, 4, 65, 4) lifted scores and M = 8, every
    row of tie-free scores is decided by its M-th score alone."""
    def refuse(neg, m):
        raise AssertionError(f"{len(neg)} rows reached the stable sort")

    monkeypatch.setattr(compress, "_stable_first", refuse)
    s = rstft(rng.normal(size=(32, 512, 4, 1)), plan_stft(512, 4, 128),
              Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8)))
    score = compress._score(s.factors)
    assert score.shape == (32, 4, 65, 4) and np.unique(score).size == score.size
    kept = top_m_select(s, 8).index
    assert np.array_equal(kept, np.sort(np.argsort(-score, axis=2, kind="stable")[:, :, :8], axis=2))


@st.composite
def lifted_spectra(draw):
    """Lifted spectra on a random plan and window function, with one plane
    masked or none, and a random M.  The input, scale and bias are each
    all-zero in about half the draws, so zero bias, zero scale and an
    all-zero lifted input all come up."""
    p, nfft, hop = draw(plan_geometry(4, 16))
    plan = plan_stft(nfft + (p - 1) * hop, p, nfft, draw(st.sampled_from(WINDOW_FNS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def maybe_zero(shape):
        return rng.normal(size=shape) if draw(st.booleans()) else np.zeros(shape)

    e = draw(st.integers(1, 4))
    x = maybe_zero((draw(st.integers(1, 3)), plan.lookback, draw(st.integers(1, 3)), 1))
    scale, bias = maybe_zero(e), maybe_zero(e)
    s = rstft(x, plan, Tensor(scale), Tensor(bias))
    s = _mask_spectra(s, draw(st.sampled_from([None, "real", "imag"])))
    return s, draw(st.integers(1, plan.bins)), not (x * scale + bias).any()


@settings(max_examples=80, deadline=None)
@given(case=lifted_spectra())
def test_factored_score_keeps_the_exhaustive_sorts_bins(case):
    """Top-M scores lifted spectra from their factors.  Wherever the direct
    score of the lifted planes separates the M-th from the (M+1)-th bin by
    more than 1e-9 relative, the kept bins are the exhaustive sort's; on an
    all-zero lifted input every score ties and bins 0..M-1 are kept."""
    s, m, zero = case
    assert s.factors is not None
    re, im = np.moveaxis(lifted_planes(s), 2, 0)
    score = (re ** 2 + im ** 2).sum(axis=4)
    kept = np.stack(top_m_select(s, m).indices, axis=1)
    b, p, bins, d = score.shape
    event("all-zero lifted input" if zero else "non-zero lifted input")
    if zero:
        assert np.array_equal(kept, np.broadcast_to(np.arange(m)[:, None], kept.shape))
    for ix in np.ndindex(b, p):
        for k in range(d):
            ranked = sorted(range(bins), key=lambda j: (-score[ix][j, k], j))
            if m < bins:
                last, out = score[ix][ranked[m - 1], k], score[ix][ranked[m], k]
                if not last - out > 1e-9 * abs(last):
                    event("a column too close to call")
                    continue
            assert kept[ix][:, k].tolist() == sorted(ranked[:m])


@settings(max_examples=80, deadline=None)
@given(case=lifted_spectra())
def test_top_m_lifts_the_kept_rows_of_the_lifted_planes(case):
    """Top-M's operand holds each kept (sample, window, bin, channel) row of
    the lifted planes, lifted from its coefficients alone, within 2 ulp of
    the row the full planes hold (the same K = 2 sums, one GEMM each)."""
    s, m, _ = case
    comp = top_m_select(s, m)
    kept = [np.take_along_axis(plane, comp.index[..., None], axis=2)
            for plane in np.moveaxis(lifted_planes(s), 2, 0)]  # (B, p, M, D, E) each
    want = np.stack(kept).transpose(1, 3, 4, 0, 2, 5).reshape(comp.stacked.shape)
    np.testing.assert_array_max_ulp(comp.stacked.data, want, maxulp=2)
    for w, (re, im) in zip(comp.windows, zip(*(np.moveaxis(k, 1, 0) for k in kept))):
        np.testing.assert_array_max_ulp(w.re.data, re, maxulp=2)
        np.testing.assert_array_max_ulp(w.im.data, im, maxulp=2)
