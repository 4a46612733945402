"""FFT kernels against an independent oracle, and autograd gradient checks."""

import inspect
import os
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freqcast import autograd, fftkit
from freqcast.autograd import (
    BlockLayout,
    CTensor,
    Tensor,
    add,
    block_matrix,
    concat,
    factored_matmul,
    irfft_real,
    matmul,
    mean_all,
    mul,
    overlap_add,
    relu,
    reshape,
    split,
    sub,
    take_rows,
    transpose,
    windowed_frames,
)
from freqcast.backbones import BACKBONE_KINDS
from freqcast.config import RunConfig
from freqcast.errors import ContractError
from freqcast.model import forward, init_params
from freqcast.spectral import WINDOW_FNS, SpectralWindows, istft, plan_stft
from freqcast.train import mse_loss

from conftest import max_rel_err, naive_dft, numeric_gradient, plan_geometry


# every length class: 1, odd, even non-power-of-2, powers of 2 up to 256
LENGTHS = [1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 26, 32, 48, 64, 128, 256]


def hermitian_synthesis(re, im, n):
    """Textbook inverse DFT of the Hermitian extension of a one-sided spectrum,
    built on the ``naive_dft`` oracle; DC and Nyquist imag carry no signal."""
    half = re + 1j * im
    half[..., 0] = half[..., 0].real
    if n % 2 == 0:
        half[..., -1] = half[..., -1].real
    mirror = np.conj(half[..., 1:n - half.shape[-1] + 1][..., ::-1])
    full = np.concatenate([half, mirror], axis=-1)
    return (np.conj(naive_dft(np.conj(full))) / n).real


def assert_real_dc_and_nyquist(im, n, axis=-1):
    assert np.all(np.take(im, 0, axis=axis) == 0.0)
    if n % 2 == 0:
        assert np.all(np.take(im, -1, axis=axis) == 0.0)


def adjoint_gaps(x, gre, gim, re, im, g, n, axis=-1):
    """|<Ax, y> - <x, A^T y>| for A = rfft_onesided and A = irfft_onesided."""
    fr, fi = fftkit.rfft_onesided(x, axis=axis)
    lhs = (fr * gre).sum() + (fi * gim).sum()
    rfft_gap = abs(lhs - (x * fftkit.rfft_transpose(gre, gim, n, axis=axis)).sum())

    tre, tim = fftkit.irfft_transpose(g, n, axis=axis)
    lhs = (fftkit.irfft_onesided(re, im, n, axis=axis) * g).sum()
    irfft_gap = abs(lhs - (re * tre).sum() - (im * tim).sum())
    return rfft_gap, irfft_gap


class TestFftKernels:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_naive_dft(self, rng, n):
        """irfft_onesided against the textbook inverse DFT (rfft: the next test)."""
        bins = fftkit.onesided_bins(n)
        re, im = rng.normal(size=(2, bins)), rng.normal(size=(2, bins))
        want = hermitian_synthesis(re, im, n)
        np.testing.assert_allclose(fftkit.irfft_onesided(re, im, n), want, atol=1e-10)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_rfft_is_truncated_dft(self, rng, n):
        x = rng.normal(size=(3, n))
        re, im = fftkit.rfft_onesided(x)
        want = naive_dft(x)[..., : n // 2 + 1]
        np.testing.assert_allclose(re + 1j * im, want, atol=1e-10)
        assert_real_dc_and_nyquist(im, n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_irfft_inverts_rfft(self, rng, n):
        x = rng.normal(size=(4, n))
        re, im = fftkit.rfft_onesided(x)
        np.testing.assert_allclose(fftkit.irfft_onesided(re, im, n), x, atol=1e-11)

    def test_linearity(self, rng):
        x, y = rng.normal(size=(2, 16)), rng.normal(size=(2, 16))
        a, b = 1.7, -0.3
        r1, i1 = fftkit.rfft_onesided(a * x + b * y)
        rx, ix = fftkit.rfft_onesided(x)
        ry, iy = fftkit.rfft_onesided(y)
        np.testing.assert_allclose(r1, a * rx + b * ry, atol=1e-10)
        np.testing.assert_allclose(i1, a * ix + b * iy, atol=1e-10)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_transposes_are_exact_adjoints(self, rng, n):
        bins = fftkit.onesided_bins(n)
        x, g = rng.normal(size=(3, n)), rng.normal(size=(3, n))
        gre, gim, re, im = rng.normal(size=(4, 3, bins))
        rfft_gap, irfft_gap = adjoint_gaps(x, gre, gim, re, im, g, n)
        assert rfft_gap < 1e-9 and irfft_gap < 1e-9

    def test_dc_and_nyquist_imag_have_no_effect(self, rng):
        for n in LENGTHS:
            bins = fftkit.onesided_bins(n)
            re, im = rng.normal(size=(2, bins))
            base = fftkit.irfft_onesided(re, im, n)
            im2 = im.copy()
            im2[0] += 3.0
            if n % 2 == 0:
                im2[-1] -= 2.0
            np.testing.assert_array_equal(fftkit.irfft_onesided(re, im2, n), base)

    @pytest.mark.parametrize("shape,axis", [
        ((9,), 0), ((9, 3), 0), ((8, 1), 0),  # axis 0, with and without trailing axes
        ((2, 9, 3), 1), ((2, 8, 1), 1), ((2, 9, 1, 1), -3),  # a middle axis
        ((2, 3, 8), -1), ((2, 3, 9), 2), ((1, 9), 1),  # the last axis
        ((2, 3, 8, 2, 1), 2),  # the lifted analysis: (B, p, n, D, 1)
    ])
    def test_kernels_on_every_axis_layout(self, rng, shape, axis):
        """Each (lead, n, trail) layout, trailing size 1 included, against numpy's FFT."""
        n = shape[axis]
        spec_shape = list(shape)
        spec_shape[axis] = fftkit.onesided_bins(n)
        x = rng.normal(size=shape)
        re, im = fftkit.rfft_onesided(x, axis=axis)
        assert re.shape == im.shape == tuple(spec_shape)
        np.testing.assert_allclose(re + 1j * im, np.fft.rfft(x, axis=axis), atol=1e-10)
        np.testing.assert_allclose(fftkit.irfft_onesided(re, im, n, axis=axis), x, atol=1e-11)
        gre, gim, sre, sim = rng.normal(size=(4, *spec_shape))
        g = rng.normal(size=shape)
        rfft_gap, irfft_gap = adjoint_gaps(x, gre, gim, sre, sim, g, n, axis=axis)
        assert rfft_gap < 1e-9 and irfft_gap < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300),
           lead=st.lists(st.integers(1, 3), max_size=3),
           data=st.data())
    def test_kernels_on_random_length_shape_and_axis(self, n, lead, data):
        axis = data.draw(st.integers(-len(lead) - 1, len(lead)), label="axis")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        shape = list(lead)
        shape.insert(axis % (len(lead) + 1), n)
        bins = fftkit.onesided_bins(n)
        spec_shape = list(shape)
        spec_shape[axis] = bins

        x = rng.normal(size=shape)
        re, im = fftkit.rfft_onesided(x, axis=axis)
        # numpy's own FFT is the oracle here: naive_dft is too slow at n=300
        want = np.fft.rfft(x, axis=axis)
        np.testing.assert_allclose(re + 1j * im, want, atol=1e-9)
        assert_real_dc_and_nyquist(im, n, axis=axis)
        np.testing.assert_allclose(fftkit.irfft_onesided(re, im, n, axis=axis), x,
                                   atol=1e-10)

        gre, gim, sre, sim = rng.normal(size=(4, *spec_shape))
        g = rng.normal(size=shape)
        rfft_gap, irfft_gap = adjoint_gaps(x, gre, gim, sre, sim, g, n, axis=axis)
        assert rfft_gap < 1e-9 and irfft_gap < 1e-9


@st.composite
def kept_spectra(draw):
    """Kept-form planes (B, p, M, D, E) on a random valid plan, hann or
    rectangular, with M from 1 to bins and distinct ascending bins per
    (sample, window, channel), plus a cotangent (B, p, nfft, D, E)."""
    p = draw(st.integers(1, 4))
    nfft = draw(st.integers(1, 32))
    hop = draw(st.integers(1, nfft)) if p > 1 else 0
    plan = plan_stft(nfft + (p - 1) * hop, p, nfft, draw(st.sampled_from(WINDOW_FNS)))
    b, d, e = (draw(st.integers(1, 3)) for _ in range(3))
    m = draw(st.integers(1, plan.bins))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = np.sort(np.argsort(rng.random((b, p, plan.bins, d)), axis=2)[:, :, :m], axis=2)
    re, im = rng.normal(size=(2, b, p, m, d, e))
    return plan, index, re, im, rng.normal(size=(b, p, nfft, d, e))


def scatter_bins(kept, index, bins):
    full = np.zeros(kept.shape[:2] + (bins,) + kept.shape[3:])
    np.put_along_axis(full, index[..., None], kept, axis=2)
    return full


class TestKeptBinKernels:
    @settings(max_examples=80, deadline=None)
    @given(case=kept_spectra())
    def test_kept_kernels_match_dense_kernels_on_scattered_planes(self, case):
        """With an index, synthesis and its transpose equal the dense kernels on
        the zero-padded planes to 1e-13 of the largest magnitude, the kept pair
        is an exact adjoint, and istft agrees on either form."""
        plan, index, re, im, g = case
        n, bins = plan.nfft, plan.bins
        full_re, full_im = scatter_bins(re, index, bins), scatter_bins(im, index, bins)

        kept = fftkit.irfft_onesided(re, im, n, axis=2, index=index)
        dense = fftkit.irfft_onesided(full_re, full_im, n, axis=2)
        assert np.abs(kept - dense).max() <= 1e-13 * max(np.abs(dense).max(), 1e-300)
        tre, tim = fftkit.irfft_transpose(g, n, axis=2, index=index)
        dense_t = [np.take_along_axis(t, index[..., None], axis=2)
                   for t in fftkit.irfft_transpose(g, n, axis=2)]
        for got, want in zip((tre, tim), dense_t):
            assert got.shape == re.shape
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
        same = (kept.tobytes() == dense.tobytes()
                and all(a.tobytes() == b.tobytes() for a, b in zip((tre, tim), dense_t)))
        event(f"kept kernels bit-identical to dense: {same}")

        terms = np.concatenate([(kept * g).ravel(), (re * tre).ravel(), (im * tim).ravel()])
        gap = abs((kept * g).sum() - (re * tre).sum() - (im * tim).sum())
        assert gap <= 1e-12 * np.abs(terms).sum()

        got = istft(SpectralWindows(Tensor(re), Tensor(im), plan, index)).data
        want = istft(SpectralWindows(Tensor(full_re), Tensor(full_im), plan)).data
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_kept_kernels_refuse_bins_outside_the_spectrum(self, rng, bad):
        """n = 8 has 5 bins: bin 5 would read the first imaginary row and -1
        the last one; both are refused before any row is gathered."""
        re = rng.normal(size=(2, 3, 2))
        index = np.array([[0, 1, 2], [1, 3, bad]])
        with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 5\)"):
            fftkit.irfft_onesided(re, re, 8, axis=1, index=index)
        with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 5\)"):
            fftkit.irfft_transpose(rng.normal(size=(2, 8, 2)), 8, axis=1, index=index)

    def test_kept_kernels_refuse_an_index_of_the_wrong_shape(self, rng):
        re = rng.normal(size=(2, 3, 2))
        with pytest.raises(ContractError, match=r"index of shape \(2, 2\)"):
            fftkit.irfft_onesided(re, re, 8, axis=1, index=np.zeros((2, 2), dtype=int))
        with pytest.raises(ContractError, match="does not name the axis-2 bins"):
            fftkit.irfft_onesided(re, re, 8, axis=2, index=np.zeros((2, 3), dtype=int))


def check_grads(build_loss, tensors, tol=1e-6):
    loss = build_loss()
    loss.backward()
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(lambda: float(build_loss().data), t)
        assert max_rel_err(analytic, numeric) < tol


class TestAutogradPrimitives:
    def test_add_mul_broadcasting(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        check_grads(lambda: mean_all(mul(add(a, b), a)), [a, b])

    def test_sub_and_constant_operand(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        const = rng.normal(size=(2, 3))
        check_grads(lambda: mean_all(mul(sub(a, const), sub(a, const))), [a])

    def test_matmul_batched(self, rng):
        for shape in ((2, 3, 4), (2, 3, 2, 4)):
            a = Tensor(rng.normal(size=shape))
            w = Tensor(rng.normal(size=(4, 5)))
            np.testing.assert_allclose(matmul(a, w).data, a.data @ w.data, atol=1e-13)
            check_grads(lambda: mean_all(mul(matmul(a, w), matmul(a, w))), [a, w])

    def test_matmul_shape_error(self, rng):
        with pytest.raises(ContractError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_reshape_transpose_slice_pad(self, rng):
        a = Tensor(rng.normal(size=(2, 6)))

        def build():
            x = reshape(a, (3, 4))
            x = transpose(x, (1, 0))
            [x] = split(x, [(slice(1, 3), slice(None))])
            return mean_all(mul(x, x))

        check_grads(build, [a])

    def test_shared_gradient_is_never_written_in_place(self, rng):
        """add hands one gradient array to both parents; slicing one of them
        afterwards must not change the gradient the other one holds."""
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        w = rng.normal(size=(4, 3))

        def build():
            [cut] = split(a, [(slice(1, 3),)])
            return mean_all(mul(add(a, b), w)) + mean_all(mul(cut, cut))

        check_grads(build, [a, b])

    def test_relu_and_mean(self, rng):
        a = Tensor(rng.normal(size=(5, 5)) + 0.05)
        check_grads(lambda: mean_all(relu(a)), [a])

    def test_relu_keeps_nan_and_gives_positive_zero(self):
        a = Tensor(np.array([np.nan, -0.0, -1.0, 2.0]))
        out = relu(a)
        assert np.isnan(out.data[0])
        assert out.data[1:].tolist() == [0.0, 0.0, 2.0]
        assert not np.signbit(out.data[1:]).any()  # -0.0 comes out as +0.0
        mean_all(out).backward()
        assert a.grad.tolist() == [0.0, 0.0, 0.0, 0.25]

    def test_gather_scatter_roundtrip_grads(self, rng):
        """take_rows of the 3 largest rows per (sample, channel) of a (3, 8, 2, E)
        tensor viewed as rows of E; its backward scatters them back."""
        a = Tensor(rng.normal(size=(3, 8, 2, 2)))
        idx = np.argsort(-np.abs(a.data).sum(axis=3), axis=1)[:, :3, :]  # (3, 3, 2)
        rows = (np.arange(3)[:, None, None] * 8 + idx) * 2 + np.arange(2)

        def build():
            g = take_rows(a, rows)
            return mean_all(mul(g, g))

        check_grads(build, [a])
        kept = take_rows(a, rows).data
        assert np.array_equal(kept, np.take_along_axis(a.data, idx[..., None], axis=1))
        assert np.count_nonzero(np.abs(a.grad).sum(axis=3)) == rows.size

    def test_scatter_index_bounds(self):
        """Rows outside [0, N) are refused; numpy would raise a bare IndexError
        past the end and wrap a negative row silently."""
        for bad in ([0, 5], [0, -1]):
            with pytest.raises(ContractError, match=r"row index out of range \[0, 4\)"):
                take_rows(Tensor(np.ones((4, 3))), np.array(bad))

    @pytest.mark.parametrize("n", [8, 12])
    def test_irfft_real_grads(self, rng, n):
        """Both planes of a leaf spectrum, DC and Nyquist imag (no effect) included."""
        bins = fftkit.onesided_bins(n)
        re, im = (Tensor(rng.normal(size=(2, bins, 2))) for _ in range(2))
        w = rng.normal(size=(2, n, 2))

        def build():
            y = irfft_real(re, im, n, axis=1)
            return mean_all(mul(add(y, w), y))

        check_grads(build, [re, im])

    @pytest.mark.parametrize("axis", [0, -1])
    def test_concat_and_overlapping_slices_grads(self, rng, axis):
        widths = (3, 1, 4)
        parts = [Tensor(rng.normal(size=(w, 3) if axis == 0 else (3, w))) for w in widths]

        def cut(y, lo, hi):
            [part] = split(y, [(slice(lo, hi),) if axis == 0 else (Ellipsis, slice(lo, hi))])
            return part

        def build():
            y = concat(parts, axis=axis)
            return mean_all(mul(cut(y, 0, 5), cut(y, 2, 7))) + mean_all(mul(y, y))

        np.testing.assert_array_equal(
            concat(parts, axis=axis).data, np.concatenate([t.data for t in parts], axis=axis)
        )
        check_grads(build, parts)

    @pytest.mark.parametrize("geometry", [(6, 1, 6), (10, 3, 6), (12, 3, 4)])
    def test_frames_and_overlap_add_grads(self, rng, geometry):
        plan = plan_stft(*geometry)  # one window, overlapping, hop == nfft
        x = rng.normal(size=(2, plan.lookback, 2))
        f = Tensor(rng.normal(size=(2, plan.window_count, plan.nfft, 2)))
        framed = windowed_frames(x, plan.starts, plan.nfft)
        for i, s in enumerate(plan.starts):
            np.testing.assert_array_equal(framed[:, i], x[:, s:s + plan.nfft])
        window = rng.uniform(0.5, 1.5, size=plan.nfft)
        np.testing.assert_array_equal(windowed_frames(x, plan.starts, plan.nfft, window),
                                      framed * window[:, None])
        check_grads(lambda: mean_all(mul(overlap_add(f, plan.starts, plan.lookback), x)), [f])

    @settings(max_examples=60, deadline=None)
    @given(geometry=plan_geometry(5, 12), data=st.data())
    def test_frames_and_overlap_add_are_adjoint(self, geometry, data):
        """Holds on every plan; half the draws tile the lookback, where both ops
        are reshapes, and half overlap."""
        p, nfft, hop = geometry
        plan = plan_stft(nfft + (p - 1) * hop, p, nfft)
        event("tiles" if p * nfft == plan.lookback else "overlaps")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(size=(2, plan.lookback, 3))
        y = rng.normal(size=(2, p, nfft, 3))
        lhs = (windowed_frames(x, plan.starts, nfft) * y).sum()
        rhs = (x * overlap_add(Tensor(y), plan.starts, plan.lookback).data).sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).sum() * np.abs(y).max())

    @pytest.mark.parametrize("geometry", [(6, 1, 6), (12, 3, 4), (512, 4, 128)])
    def test_tiling_frames_and_overlap_add_are_the_loop_bit_for_bit(self, rng, geometry):
        """Where the windows tile the lookback, framing and overlap-add are
        reshapes: they give the values of the gather by a window index and of
        the overlap-add loop, bit for bit, and so does overlap-add's backward
        (on data with no -0.0, which the loop's zero buffer would turn into +0.0)."""
        plan = plan_stft(*geometry)
        b, p, n, length = 2, plan.window_count, plan.nfft, plan.lookback
        idx = np.add.outer(plan.starts, np.arange(n))

        def loop(f):
            out = np.zeros((b, length) + f.shape[3:])
            for i, s in enumerate(plan.starts):
                out[:, s:s + n] += f[:, i]
            return out

        f = Tensor(rng.normal(size=(b, p, n, 3, 2)))
        x = rng.normal(size=(b, length, 3, 2))
        gx = rng.normal(size=x.shape)
        added, framed = overlap_add(f, plan.starts, length), windowed_frames(x, plan.starts, n)
        assert added.data.tobytes() == loop(f.data).tobytes()
        assert framed.tobytes() == x[:, idx].tobytes()
        assert np.shares_memory(added.data, f.data) and np.shares_memory(framed, x)
        added._backward(gx)
        assert f.grad.tobytes() == gx[:, idx].tobytes()

    def test_block_matrix_layout_and_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        # a tensor in several blocks, and a block no entry names
        layout = BlockLayout.of([(0, 0, 0, 1.0), (1, 0, 2, -1.0), (0, 2, 1, 2.0),
                                 (1, 1, 1, 0.5)], 3)
        want = np.zeros((6, 6))
        want[0:2, 0:2] = a.data
        want[0:2, 4:6] = -b.data
        want[4:6, 2:4] = 2.0 * a.data
        want[2:4, 2:4] = 0.5 * b.data
        np.testing.assert_array_equal(block_matrix([a, b], layout).data, want)
        x = Tensor(rng.normal(size=(4, 6)))

        def build():
            y = matmul(x, block_matrix([a, b], layout))
            return mean_all(mul(y, y))

        check_grads(build, [a, b, x])

    def test_block_layout_refuses_unequal_use(self):
        """Every backbone layout fills each used part's blocks equally often, so
        the backward adds whole rounds; a table that does not is refused."""
        with pytest.raises(ContractError, match=r"part 0 in 3, part 1 in 2, part 2 in 1"):
            BlockLayout.of([(0, 0, 0, 1.0), (2, 2, 2, 3.0), (0, 1, 0, -2.0),
                            (1, 0, 1, 1.0), (0, 1, 1, 0.5), (1, 2, 0, -1.0)], 3)

    def test_block_layout_refuses_a_repeated_block(self):
        """Two entries in one block would need the forward to add them in rounds;
        no backbone layout names a block twice, so a table that does is refused."""
        with pytest.raises(ContractError, match=r"block \(1, 0\) is named twice"):
            BlockLayout.of([(0, 0, 0, 1.0), (0, 1, 0, 2.0), (1, 1, 0, -1.0)], 2)

    @settings(max_examples=80, deadline=None)
    @given(blocks=st.integers(1, 6), k=st.integers(1, 4), e=st.integers(1, 6),
           m=st.integers(1, 9), lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_factored_matmul_is_matmul_of_the_product(self, blocks, k, e, m, lead, seed):
        """Forward, dx and dW of coef-over-basis against plain matmul on the
        materialised x; over the identity basis, bit for bit."""
        rng = np.random.default_rng(seed)
        coef = rng.normal(size=tuple(lead) + (blocks * k,))
        basis = rng.normal(size=(k, e))
        x = np.matmul(coef.reshape(-1, blocks, k), basis).reshape(tuple(lead) + (blocks * e,))
        w = rng.normal(size=(blocks * e, m))
        g = rng.normal(size=tuple(lead) + (m,))

        def run(op, *args):
            xt, wt = Tensor(x), Tensor(w)
            y = op(xt, *args, wt) if args else op(xt, wt)
            mean_all(mul(y, g)).backward()
            return y.data, xt.grad, wt.grad

        want = run(matmul)
        for got, ref in zip(run(factored_matmul, coef, basis), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for got, ref in zip(run(factored_matmul, x, np.eye(e)), want):
            np.testing.assert_array_equal(got, ref)

    def test_factored_matmul_refuses_mismatched_factors(self, rng):
        x, w = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(8, 2)))
        with pytest.raises(ContractError, match="factored_matmul"):
            factored_matmul(x, rng.normal(size=(3, 3)), np.eye(4), w)
        with pytest.raises(ContractError, match="factored_matmul"):
            factored_matmul(x, rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), w)

    def test_backward_needs_scalar(self, rng):
        t = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ContractError):
            t.backward()

    def test_grad_accumulates_over_reuse(self, rng):
        a = Tensor(np.array([2.0]))
        out = mean_all(mul(a, a))
        out.backward()
        np.testing.assert_allclose(a.grad, [4.0])


class TestSideBySide:
    """The two-lane code: ``side_by_side`` and the backward of ``matmul``."""

    @pytest.mark.parametrize("blas_threads", [1, 2])
    @pytest.mark.parametrize("lead", [(7,), (3, 40)])
    def test_matmul_gradients_are_the_serial_products(self, rng, monkeypatch, lead,
                                                      blas_threads):
        """Side by side under a one-thread BLAS, on the caller alone under a
        threaded one: the same products either way."""
        calls, real = [], autograd.side_by_side

        def counted(first, second):
            calls.append(1)
            return real(first, second)

        monkeypatch.setattr(autograd, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(autograd, "side_by_side", counted)
        a = Tensor(rng.normal(size=lead + (70,)))
        w = Tensor(rng.normal(size=(70, 50)))
        out = matmul(a, w)
        g = rng.normal(size=out.shape)
        out._backward(g)
        g2 = g.reshape(-1, 50)
        assert np.array_equal(a.grad, (g2 @ w.data.T).reshape(a.shape))
        assert np.array_equal(w.grad, a.data.reshape(-1, 70).T @ g2)
        assert len(calls) == (blas_threads == 1)

    @pytest.mark.parametrize("env, threads", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"OMP_NUM_THREADS": "3,1"}, 3),
        ({"MKL_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": ""}, None),
        ({}, None),
    ])
    def test_blas_threads_follow_the_environment(self, monkeypatch, env, threads):
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert autograd._blas_threads.__wrapped__() == (threads or cpus)

    def test_returns_both_results(self):
        assert autograd.side_by_side(lambda: "worker", lambda: "caller") == ("worker", "caller")

    @staticmethod
    def on_the_worker(first):
        """``first`` and a ``second`` that returns once ``first`` has begun, so
        that ``first`` runs on the worker rather than on the caller; the
        thread it ran on is appended to the list returned last."""
        begun, threads = threading.Event(), []

        def worker_side():
            threads.append(threading.get_ident())
            begun.set()
            return first()

        return worker_side, lambda: begun.wait(10), threads

    def test_worker_exception_reaches_the_caller(self):
        def boom():
            raise KeyError("from the worker")

        first, second, threads = self.on_the_worker(boom)
        with pytest.raises(KeyError, match="from the worker"):
            autograd.side_by_side(first, second)
        assert threads != [threading.get_ident()]

    def test_caller_exception_waits_for_the_worker(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        first, wait, _ = self.on_the_worker(slow)

        def fail():
            wait()
            raise ValueError("from the caller")

        with pytest.raises(ValueError, match="from the caller"):
            autograd.side_by_side(first, fail)
        assert done == [True]

    def test_worker_keeps_the_callers_errstate(self):
        big = np.full(3, 1e300)
        first, second, threads = self.on_the_worker(lambda: big * big)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                autograd.side_by_side(first, second)
        assert threads != [threading.get_ident()]

    def test_caller_runs_both_when_the_worker_has_not_begun(self):
        """A worker that is slow to wake costs no more than one thread, and the
        lane still queued for it keeps none of the caller's arrays alive."""
        held, threads = threading.Event(), []
        busy = autograd._worker().submit(held.wait, 10)
        buf = np.ones(3)
        kept = weakref.ref(buf)

        def first(buf=buf):
            threads.append(threading.get_ident())
            return buf.sum()

        try:
            out = autograd.side_by_side(first, lambda: 2)
            del first, buf
            freed = kept() is None
        finally:
            held.set()
        assert busy.result() and out == (3.0, 2) and threads == [threading.get_ident()]
        assert freed

    def test_each_first_runs_once_under_contention(self):
        """Callers on more threads than there are CPUs, with the interpreter
        switching threads as often as it can: each first runs exactly once,
        on one thread or the other, and each call returns its own results."""
        hits, errors, calls = [], [], 300

        def caller(k):
            try:
                for i in range(calls):
                    key = (k, i)
                    out = autograd.side_by_side(lambda: hits.append(key) or key, lambda: k)
                    assert out == (key, k), out
            except BaseException as e:
                errors.append(e)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(hits) == [(k, i) for k in range(4) for i in range(calls)]


class TestCTensor:
    def test_plane_shape_mismatch(self):
        with pytest.raises(ContractError):
            CTensor(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def _builds_backward(code: types.CodeType) -> bool:
    """Whether a function defines a closure named backward*, at any depth."""
    return any(isinstance(c, types.CodeType)
               and (c.co_name.startswith("backward") or _builds_backward(c))
               for c in code.co_consts)


def _recorded_ops(loss: Tensor) -> set[str]:
    """The autograd functions whose closures sit on the tape under ``loss``."""
    ops, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.add(node._backward.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return ops


# one training step per backbone kind; among them a hann window, an
# overlapping plan (hop 4 < nfft 8) and a mask mode
DEAD_OP_STEPS = {
    "fd": dict(window_fn="hann", lookback=16, windows=3, nfft=8),
    "wm": dict(mask_mode="w_imag+x_imag", lookback=16, windows=4, nfft=4),
    "hc": dict(lookback=16, windows=4, nfft=4),
    "basic": dict(lookback=16, windows=2, nfft=8),
}


def test_every_op_with_a_backward_is_recorded_by_a_training_step():
    """A public autograd op that builds a backward closure but that no
    training step puts on the tape is dead code: only tests would reach it."""
    assert set(DEAD_OP_STEPS) == set(BACKBONE_KINDS)
    ops = {name for name, fn in vars(autograd).items()
           if inspect.isfunction(fn) and fn.__module__ == autograd.__name__
           and not name.startswith("_") and _builds_backward(fn.__code__)}
    recorded = set()
    for kind, kw in DEAD_OP_STEPS.items():
        cfg = RunConfig(backbone=kind, horizon=4, embed=3, top_m=2, hidden=5, **kw).validate()
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, cfg.lookback, 2)), rng.normal(size=(2, cfg.horizon, 2))
        recorded |= _recorded_ops(mse_loss(forward(x, init_params(cfg), cfg), y))
    assert "matmul" in ops and "block_matrix" in ops and "split" in ops
    assert sorted(ops - recorded) == []
