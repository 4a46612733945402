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
    factored_matmul,
    irfft_real,
    lift,
    lift_add_by_channel,
    lift_columns,
    matmul,
    mean_all,
    mul,
    overlap_add,
    relu,
    reshape,
    split,
    stack,
    transpose,
    windowed_frames,
)
from freqcast.backbones import BACKBONE_KINDS
from freqcast.compress import CompressedWindows, position_aware_pad
from freqcast.config import RunConfig
from freqcast.errors import ContractError
from freqcast.model import forward, init_params
from freqcast.spectral import WINDOW_FNS, SpectralWindows, istft, plan_stft
from freqcast.train import mse_loss

from conftest import max_rel_err, naive_dft, numeric_gradient, plan_geometry


# every length class: 1, odd, even non-power-of-2, powers of 2 up to 256
LENGTHS = [1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 26, 32, 48, 64, 128, 256]


def joined(re, im, axis=-1):
    """One spectrum from its two planes: the plane axis goes just before the
    bin axis ``axis``."""
    return np.stack([re, im], axis=axis % np.ndim(re))


def planes(spectrum, axis=-1):
    """The (re, im) planes of a spectrum whose bin axis is ``axis``, counted
    as in its planes."""
    return tuple(np.moveaxis(spectrum, axis % (np.ndim(spectrum) - 1), 0))


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
    fr, fi = planes(fftkit.rfft_onesided(x, axis=axis), axis)
    lhs = (fr * gre).sum() + (fi * gim).sum()
    rfft_gap = abs(lhs - (x * fftkit.rfft_transpose(joined(gre, gim, axis), n, axis=axis)).sum())

    tre, tim = planes(fftkit.irfft_transpose(g, n, axis=axis), axis)
    lhs = (fftkit.irfft_onesided(joined(re, im, axis), n, axis=axis) * g).sum()
    irfft_gap = abs(lhs - (re * tre).sum() - (im * tim).sum())
    return rfft_gap, irfft_gap


class TestFftKernels:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_naive_dft(self, rng, n):
        """irfft_onesided against the textbook inverse DFT (rfft: the next test)."""
        bins = fftkit.onesided_bins(n)
        re, im = rng.normal(size=(2, bins)), rng.normal(size=(2, bins))
        want = hermitian_synthesis(re, im, n)
        np.testing.assert_allclose(fftkit.irfft_onesided(joined(re, im), n), want, atol=1e-10)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_rfft_is_truncated_dft(self, rng, n):
        x = rng.normal(size=(3, n))
        re, im = planes(fftkit.rfft_onesided(x))
        want = naive_dft(x)[..., : n // 2 + 1]
        np.testing.assert_allclose(re + 1j * im, want, atol=1e-10)
        assert_real_dc_and_nyquist(im, n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_irfft_inverts_rfft(self, rng, n):
        x = rng.normal(size=(4, n))
        spectrum = fftkit.rfft_onesided(x)
        assert spectrum.shape == (4, 2, fftkit.onesided_bins(n))
        np.testing.assert_allclose(fftkit.irfft_onesided(spectrum, n), x, atol=1e-11)

    def test_linearity(self, rng):
        x, y = rng.normal(size=(2, 16)), rng.normal(size=(2, 16))
        a, b = 1.7, -0.3
        r1, i1 = planes(fftkit.rfft_onesided(a * x + b * y))
        rx, ix = planes(fftkit.rfft_onesided(x))
        ry, iy = planes(fftkit.rfft_onesided(y))
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
            base = fftkit.irfft_onesided(joined(re, im), n)
            im2 = im.copy()
            im2[0] += 3.0
            if n % 2 == 0:
                im2[-1] -= 2.0
            np.testing.assert_array_equal(fftkit.irfft_onesided(joined(re, im2), n), base)

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
        spectrum = fftkit.rfft_onesided(x, axis=axis)
        re, im = planes(spectrum, axis)
        assert re.shape == im.shape == tuple(spec_shape)
        assert spectrum.shape == joined(re, im, axis).shape
        np.testing.assert_allclose(re + 1j * im, np.fft.rfft(x, axis=axis), atol=1e-10)
        np.testing.assert_allclose(fftkit.irfft_onesided(spectrum, n, axis=axis), x, atol=1e-11)
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
        spectrum = fftkit.rfft_onesided(x, axis=axis)
        re, im = planes(spectrum, axis)
        # numpy's own FFT is the oracle here: naive_dft is too slow at n=300
        want = np.fft.rfft(x, axis=axis)
        np.testing.assert_allclose(re + 1j * im, want, atol=1e-9)
        assert_real_dc_and_nyquist(im, n, axis=axis)
        np.testing.assert_allclose(fftkit.irfft_onesided(spectrum, n, axis=axis), x,
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
        the zero-padded planes to 1e-13 of the largest magnitude (a transposed
        entry that cancels below its terms, to their round-off), the kept pair
        is an exact adjoint, and istft agrees on either form."""
        plan, index, re, im, g = case
        n, bins = plan.nfft, plan.bins
        full_re, full_im = scatter_bins(re, index, bins), scatter_bins(im, index, bins)

        kept = fftkit.irfft_onesided(joined(re, im, 2), n, axis=2, index=index)
        dense = fftkit.irfft_onesided(joined(full_re, full_im, 2), n, axis=2)
        assert np.abs(kept - dense).max() <= 1e-13 * max(np.abs(dense).max(), 1e-300)
        tre, tim = planes(fftkit.irfft_transpose(g, n, axis=2, index=index), 2)
        dense_t = [np.take_along_axis(t, index[..., None], axis=2)
                   for t in planes(fftkit.irfft_transpose(g, n, axis=2), 2)]
        # a transposed entry sums n terms g[t] * w with |w| <= 2 / n; each kernel
        # rounds it to within about n * eps of their summed magnitudes (the
        # dot-product bound), more than 1e-13 of the largest output only where
        # the outputs cancel
        terms_t = 2 / n * np.abs(g).sum(axis=2, keepdims=True)
        round_off = 2 * n * np.finfo(float).eps * terms_t
        for got, want in zip((tre, tim), dense_t):
            assert got.shape == re.shape
            assert np.all(np.abs(got - want)
                          <= np.maximum(1e-13 * max(np.abs(want).max(), 1e-300), round_off))
        same = (kept.tobytes() == dense.tobytes()
                and all(a.tobytes() == b.tobytes() for a, b in zip((tre, tim), dense_t)))
        event(f"kept kernels bit-identical to dense: {same}")

        terms = np.concatenate([(kept * g).ravel(), (re * tre).ravel(), (im * tim).ravel()])
        gap = abs((kept * g).sum() - (re * tre).sum() - (im * tim).sum())
        assert gap <= 1e-12 * np.abs(terms).sum()

        got = istft(SpectralWindows(Tensor(joined(re, im, 2)), plan, index)).data
        want = istft(SpectralWindows(Tensor(joined(full_re, full_im, 2)), plan)).data
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("leads_per_block", [1, 3])
    def test_blocked_gather_equals_one_block_bit_for_bit(self, rng, monkeypatch, n,
                                                         leads_per_block):
        """Gathering the operator rows for a few leading positions at a time
        changes no bit of synthesis or of its transpose.  7 leads (7 samples of
        1 window) split into blocks of 3 leave a short last block; at even n
        every position keeps the Nyquist bin."""
        bins, m, mid, e = fftkit.onesided_bins(n), 3, 2, 2
        index = np.sort(np.argsort(rng.random((7, 1, bins - 1, mid)), axis=2)[:, :, :m - 1],
                        axis=2)
        index = np.concatenate([index, np.full((7, 1, 1, mid), bins - 1)], axis=2)
        spectrum = rng.normal(size=(7, 1, 2, m, mid, e))
        g = rng.normal(size=(7, 1, n, mid, e))
        whole = [fftkit.irfft_onesided(spectrum, n, axis=2, index=index),
                 fftkit.irfft_transpose(g, n, axis=2, index=index)]
        assert fftkit.GATHER_VALUES >= 7 * mid * 2 * m * n  # one block by default
        monkeypatch.setattr(fftkit, "GATHER_VALUES", leads_per_block * mid * 2 * m * n)
        blocked = [fftkit.irfft_onesided(spectrum, n, axis=2, index=index),
                   fftkit.irfft_transpose(g, n, axis=2, index=index)]
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]

    @pytest.mark.parametrize("shape", [
        (4, 2, 16, 4, 24, 4),  # train-hc-default: B, D, E, p, nfft, M
        (4, 2, 32, 8, 26, 8),  # train-basic-p8
        (3, 4, 8, 4, 128, 8),  # predict-long
    ])
    @pytest.mark.parametrize("layout", ["channel-major", "overlapping", "contiguous"])
    def test_kept_transpose_reads_strided_cotangents_bit_for_bit(self, rng, monkeypatch,
                                                                 shape, layout):
        """The cotangents synthesis gets: the channel-major skip gradient framed
        by a reshape, overlapping frames of it (a strided view, at hop 2n/5 as
        train-basic-p8's plan has), or a C-contiguous array.  Each gives the
        result on a contiguous copy, bit for bit, and so does one sample per
        gathered block, in both kernels."""
        b, d, e, p, n, m = shape
        hop = 2 * n // 5 if layout == "overlapping" else n
        plan = plan_stft(n + (p - 1) * hop, p, n)
        skip = rng.normal(size=(b, d, plan.lookback, e)).transpose(0, 2, 1, 3)
        if layout == "contiguous":
            skip = np.ascontiguousarray(skip)
        g = windowed_frames(skip, plan.hop, p, n)
        assert g.flags.c_contiguous == (layout == "contiguous")
        index = np.sort(np.argsort(rng.random((b, p, plan.bins, d)), axis=2)[:, :, :m], axis=2)
        want = fftkit.irfft_transpose(np.ascontiguousarray(g), n, axis=2, index=index)
        got = fftkit.irfft_transpose(g, n, axis=2, index=index)
        assert got.tobytes() == want.tobytes()
        synthesis = fftkit.irfft_onesided(got, n, axis=2, index=index)
        monkeypatch.setattr(fftkit, "GATHER_VALUES", 1)
        blocked = fftkit.irfft_transpose(g, n, axis=2, index=index)
        assert blocked.tobytes() == want.tobytes()
        assert fftkit.irfft_onesided(got, n, axis=2, index=index).tobytes() == synthesis.tobytes()

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_kept_kernels_refuse_bins_outside_the_spectrum(self, rng, bad):
        """n = 8 has 5 bins: bin 5 would read the first imaginary row and -1
        the last one; both are refused before any row is gathered."""
        spectrum = rng.normal(size=(2, 2, 3, 2))
        index = np.array([[0, 1, 2], [1, 3, bad]])
        with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 5\)"):
            fftkit.irfft_onesided(spectrum, 8, axis=1, index=index)
        with pytest.raises(ContractError, match=r"kept bin index out of range \[0, 5\)"):
            fftkit.irfft_transpose(rng.normal(size=(2, 8, 2)), 8, axis=1, index=index)

    def test_kept_kernels_refuse_an_index_of_the_wrong_shape(self, rng):
        spectrum = rng.normal(size=(2, 2, 3, 2))
        with pytest.raises(ContractError, match=r"index of shape \(2, 2\)"):
            fftkit.irfft_onesided(spectrum, 8, axis=1, index=np.zeros((2, 2), dtype=int))
        with pytest.raises(ContractError, match="does not name the axis-3 bins"):
            fftkit.irfft_onesided(spectrum, 8, axis=2, index=np.zeros((2, 3), dtype=int))


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

    def test_add_of_a_negated_constant_operand(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        const = rng.normal(size=(2, 3))
        check_grads(lambda: mean_all(mul(add(a, -const), add(a, -const))), [a])

    def test_matmul_batched(self, rng):
        for shape in ((2, 3, 4), (2, 3, 2, 4)):
            a = Tensor(rng.normal(size=shape))
            w = Tensor(rng.normal(size=(4, 5)))
            np.testing.assert_allclose(matmul(a, w).data, a.data @ w.data, atol=1e-13)
            check_grads(lambda: mean_all(mul(matmul(a, w), matmul(a, w))), [a, w])

    def test_matmul_shape_error(self, rng):
        with pytest.raises(ContractError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("constant", ["a", "w"])
    def test_matmul_refuses_a_constant_operand(self, rng, constant):
        a, w = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 4)))
        operands = {"a": a, "w": w}
        operands[constant] = operands[constant].data
        with pytest.raises(ContractError, match="matmul multiplies two Tensors, got"):
            matmul(operands["a"], operands["w"])

    def test_transpose_and_split(self, rng):
        a = Tensor(rng.normal(size=(2, 6)))

        def build():
            x = transpose(a, (1, 0))
            [x] = split(x, [(slice(1, 3), slice(None))])
            return mean_all(mul(x, x))

        check_grads(build, [a])

    def test_lift_add_by_channel_is_the_flattened_channel_major_sum(self, rng):
        x = rng.normal(size=(2, 5, 3))
        basis, rec = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 5, 3, 4)))
        lifted = lift(lift_columns(x[..., None], 1.0), basis).data
        want = np.transpose(lifted + rec.data, (0, 2, 1, 3)).reshape(2, 3, 20)
        got = lift_add_by_channel(x, basis, rec).data
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        w = rng.normal(size=(2, 3, 20))
        check_grads(lambda: mean_all(mul(lift_add_by_channel(x, basis, mul(rec, rec)), w)),
                    [basis, rec])

    @pytest.mark.parametrize("shape", [(3, 16, 2, 4), (4, 96, 2, 16)])
    def test_lift_add_by_channel_reduces_the_basis_gradient_over_time_major_rows(self, rng,
                                                                                shape):
        """The basis gradient is the product the separate lift computed, over
        time-major rows, bit for bit; the reconstruction's is a view of g."""
        b, length, d, e = shape
        x = rng.normal(size=(b, length, d))
        basis, rec = Tensor(rng.normal(size=(2, e))), Tensor(rng.normal(size=shape))
        out = lift_add_by_channel(x, basis, rec)
        g = rng.normal(size=out.shape)
        out._backward(g)
        g_time_major = g.reshape(b, d, length, e).transpose(0, 2, 1, 3)
        want = lift_columns(x[..., None], 1.0).reshape(-1, 2).T @ g_time_major.reshape(-1, e)
        assert basis.grad.tobytes() == want.tobytes()
        assert np.shares_memory(rec.grad, g) and np.array_equal(rec.grad, g_time_major)

    def test_lift_add_by_channel_refuses_operands_of_other_shapes(self, rng):
        x, basis = np.zeros((2, 5, 3)), Tensor(np.zeros((2, 4)))
        with pytest.raises(ContractError, match="adds a \\(B, L, D, E\\) reconstruction"):
            lift_add_by_channel(x, basis, Tensor(np.zeros((5, 3, 4))))
        with pytest.raises(ContractError, match="by a \\(2, E\\) basis, got"):
            lift_add_by_channel(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 5, 3, 4))))

    @pytest.mark.parametrize("constant", [0, 1])
    def test_lift_add_by_channel_and_factored_matmul_refuse_a_constant_operand(self, rng,
                                                                               constant):
        """Every caller hands both ops Tensors, so an array is refused, not
        taken as a constant."""
        br = [Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 3, 2, 4)))]
        x, w = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(8, 2)))
        xw = [x, w]
        br[constant], xw[constant] = br[constant].data, xw[constant].data
        with pytest.raises(ContractError, match="lift_add_by_channel takes a Tensor basis "
                                                "and reconstruction, got"):
            lift_add_by_channel(rng.normal(size=(2, 3, 2)), *br)
        with pytest.raises(ContractError, match="factored_matmul multiplies two Tensors, got"):
            factored_matmul(xw[0], x.data, np.eye(4), xw[1])

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

    def test_lift_of_coefficient_blocks_grads(self, rng):
        """lift of (3, 4, n*K) coefficients by a (K, E) basis: block i of the
        (3, 4, n*E) result is coef block i @ basis, and only the basis gets
        a gradient; with n = 1 it is the plain product bit for bit."""
        k, e, n = 2, 5, 3
        coef = rng.normal(size=(3, 4, n * k))
        basis = Tensor(rng.normal(size=(k, e)))
        check_grads(lambda: mean_all(mul(lift(coef, basis), lift(coef, basis))), [basis])
        blocks = coef.reshape(3, 4, n, k) @ basis.data
        np.testing.assert_allclose(lift(coef, basis).data, blocks.reshape(3, 4, n * e),
                                   rtol=0, atol=1e-14)
        one = coef[..., :k]
        assert np.array_equal(lift(one, basis).data, one @ basis.data)

    def test_split_into_transposed_views_grads(self, rng):
        """split of a (2, 3, 12) tensor viewed as (2, 3, 2, 2, 3): the two
        (2, 2, 3, 3) parts are transposed views of it, and their backward
        scatters the gradient back in place."""
        a = Tensor(rng.normal(size=(2, 3, 12)))
        view = (2, 3, 2, 2, 3)
        idxs = [(Ellipsis, plane, slice(None), slice(None)) for plane in (0, 1)]

        def build():
            re, im = split(a, idxs, view, axes=(0, 3, 1, 2))
            return mean_all(mul(re, re)) + mean_all(mul(im, mul(im, im)))

        check_grads(build, [a])
        parts = split(a, idxs, view, axes=(0, 3, 1, 2))
        for part, idx in zip(parts, idxs):
            assert np.shares_memory(part.data, a.data)
            assert np.array_equal(part.data, a.data.reshape(view)[idx].transpose(0, 3, 1, 2))

    @pytest.mark.parametrize("used", [(0, 1, 2), (0, 2), (1,)])
    def test_split_zeroes_only_the_parts_whose_backward_never_ran(self, rng, used):
        """Parts that cover the view fill a buffer that is not zeroed first;
        a part the loss does not read gets exact zeros, every other part its
        own gradient, as a zero-filled buffer would give them."""
        a = Tensor(rng.normal(size=(2, 12)))
        idxs = [(slice(None), i) for i in range(3)]
        weights = rng.normal(size=(3, 2, 4))
        parts = split(a, idxs, (2, 3, 4))
        loss = mean_all(mul(parts[used[0]], weights[used[0]]))
        for i in used[1:]:
            loss = loss + mean_all(mul(parts[i], weights[i]))
        loss.backward()
        want = np.zeros((2, 3, 4))
        for i in used:
            want[:, i] = np.full((2, 4), 1.0 / 8) * weights[i]
        assert a.grad.tobytes() == want.reshape(2, 12).tobytes()

    @pytest.mark.parametrize("reader", ["pad", "windows"])
    def test_pad_and_window_views_scatter_their_gradients_exactly(self, rng, reader):
        """Pad's one view and ``.windows``' 2p planes cover the operand: its
        gradient is each part's gradient put in place, bit for bit."""
        b, p, m, d, e = 2, 3, 2, 2, 4
        plan = plan_stft(16, p, 8)
        index = np.sort(np.argsort(rng.random((b, p, plan.bins, d)), axis=2)[:, :, :m], axis=2)
        stacked = Tensor(rng.normal(size=(b, m, d, 2 * p * e)))
        c = CompressedWindows(stacked, index, plan.bins, plan)
        if reader == "pad":
            planes = [position_aware_pad(c).planes]
        else:
            planes = [t for w in c.windows for t in (w.re, w.im)]
        weights = [rng.normal(size=t.shape) for t in planes]
        loss = mean_all(mul(planes[0], weights[0]))
        for t, w in zip(planes[1:], weights[1:]):
            loss = loss + mean_all(mul(t, w))
        loss.backward()
        want = np.zeros(stacked.shape)
        blocks = want.reshape(b, m, d, 2, p, e)
        grads = [np.full(t.shape, 1.0 / t.data.size) * w for t, w in zip(planes, weights)]
        if reader == "pad":
            blocks[...] = grads[0].transpose(0, 3, 4, 2, 1, 5)
        else:
            for j, g in enumerate(grads):
                blocks[:, :, :, j % 2, j // 2] = g
        assert stacked.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 12])
    def test_irfft_real_grads(self, rng, n):
        """Both planes of a leaf spectrum, DC and Nyquist imag (no effect) included."""
        bins = fftkit.onesided_bins(n)
        x = Tensor(rng.normal(size=(2, 2, bins, 2)))
        w = rng.normal(size=(2, n, 2))

        def build():
            y = irfft_real(x, n, axis=1)
            return mean_all(mul(add(y, w), y))

        check_grads(build, [x])

    @pytest.mark.parametrize("axis", [0, -1])
    def test_reshape_and_overlapping_slices_grads(self, rng, axis):
        a = Tensor(rng.normal(size=(2, 4, 3)))
        shape = (8, 3) if axis == 0 else (3, 8)

        def cut(y, lo, hi):
            [part] = split(y, [(slice(lo, hi),) if axis == 0 else (Ellipsis, slice(lo, hi))])
            return part

        def build():
            y = reshape(a, shape)
            return mean_all(mul(cut(y, 0, 5), cut(y, 2, 7))) + mean_all(mul(y, y))

        np.testing.assert_array_equal(reshape(a, shape).data, a.data.reshape(shape))
        check_grads(build, [a])

    @pytest.mark.parametrize("geometry", [(6, 1, 6), (10, 3, 6), (12, 3, 4)])
    def test_frames_and_overlap_add_grads(self, rng, geometry):
        plan = plan_stft(*geometry)  # one window, overlapping, hop == nfft
        x = rng.normal(size=(2, plan.lookback, 2))
        f = Tensor(rng.normal(size=(2, plan.window_count, plan.nfft, 2)))
        p, n, hop = plan.window_count, plan.nfft, plan.hop
        framed = windowed_frames(x, hop, p, n)
        for i in range(p):
            np.testing.assert_array_equal(framed[:, i], x[:, i * hop:i * hop + n])
        window = rng.uniform(0.5, 1.5, size=n)
        np.testing.assert_array_equal(windowed_frames(x, hop, p, n, window),
                                      framed * window[:, None])
        check_grads(lambda: mean_all(mul(overlap_add(f, hop, plan.lookback), x)), [f])

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
        lhs = (windowed_frames(x, hop, p, nfft) * y).sum()
        rhs = (x * overlap_add(Tensor(y), hop, plan.lookback).data).sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).sum() * np.abs(y).max())

    @pytest.mark.parametrize("geometry", [(6, 1, 6), (12, 3, 4), (512, 4, 128)])
    def test_tiling_frames_and_overlap_add_are_the_loop_bit_for_bit(self, rng, geometry):
        """Where the windows tile the lookback, framing and overlap-add are
        reshapes: they give the values of the gather by a window index and of
        the overlap-add loop, bit for bit, and so does overlap-add's backward
        (on data with no -0.0, which the loop's zero buffer would turn into +0.0)."""
        plan = plan_stft(*geometry)
        b, p, n, length, hop = 2, plan.window_count, plan.nfft, plan.lookback, plan.hop
        idx = np.add.outer(hop * np.arange(p), np.arange(n))

        def loop(f):
            out = np.zeros((b, length) + f.shape[3:])
            for i in range(p):
                out[:, i * hop:i * hop + n] += f[:, i]
            return out

        f = Tensor(rng.normal(size=(b, p, n, 3, 2)))
        x = rng.normal(size=(b, length, 3, 2))
        gx = rng.normal(size=x.shape)
        added, framed = overlap_add(f, hop, length), windowed_frames(x, hop, p, n)
        assert added.data.tobytes() == loop(f.data).tobytes()
        assert framed.tobytes() == x[:, idx].tobytes()
        assert np.shares_memory(added.data, f.data) and np.shares_memory(framed, x)
        added._backward(gx)
        assert f.grad.tobytes() == gx[:, idx].tobytes()

    @pytest.mark.parametrize("geometry", [(10, 3, 6), (96, 8, 26), (8, 3, 8), (12, 3, 4),
                                          (6, 1, 6)])
    def test_frames_are_a_read_only_view(self, rng, geometry):
        """Windows that overlap (or repeat, at hop 0) or tile the lookback are
        framed as a strided view of their input, equal to the gather by a
        window index; it is read-only, since overlapping windows share
        samples.  A strided input, as the channel-major skip gradient is,
        keeps its strides."""
        plan = plan_stft(*geometry)
        p, n, hop = plan.window_count, plan.nfft, plan.hop
        idx = np.add.outer(hop * np.arange(p), np.arange(n))
        base = rng.normal(size=(2, 3, plan.lookback, 4))
        for x in (base[:, 0], base.transpose(0, 2, 1, 3)):
            framed = windowed_frames(x, hop, p, n)
            assert np.shares_memory(framed, x) and not framed.flags.writeable
            assert framed.tobytes() == x[:, idx].tobytes()

    def test_frames_refuse_windows_past_the_input(self, rng):
        """The strided view must not read past its input: windows that end
        beyond it, or step backwards, are refused."""
        x = rng.normal(size=(2, 10, 1))
        with pytest.raises(ContractError, match="do not fit"):
            windowed_frames(x, 4, 3, 4)
        with pytest.raises(ContractError, match="do not fit"):
            windowed_frames(x, -1, 3, 4)
        assert windowed_frames(x, 3, 3, 4).shape == (2, 3, 4, 1)

    def test_block_matrix_layout_and_grads(self, rng):
        parts = Tensor(rng.normal(size=(2, 2, 2)))
        a, b = parts.data
        # a part in several blocks, and a block no entry names
        layout = BlockLayout.of([(0, 0, 0, 1.0), (1, 0, 2, -1.0), (0, 2, 1, 2.0),
                                 (1, 1, 1, 0.5)], 3)
        want = np.zeros((6, 6))
        want[0:2, 0:2] = a
        want[0:2, 4:6] = -b
        want[4:6, 2:4] = 2.0 * a
        want[2:4, 2:4] = 0.5 * b
        np.testing.assert_array_equal(block_matrix(parts, layout).data, want)
        x = Tensor(rng.normal(size=(4, 6)))

        def build():
            y = matmul(x, block_matrix(parts, layout))
            return mean_all(mul(y, y))

        check_grads(build, [parts, x])

    def test_block_matrix_gives_an_unused_part_a_zero_gradient(self, rng):
        """A part the layout places nowhere, as a masked weight plane, gets zeros."""
        parts = Tensor(rng.normal(size=(3, 2, 2)))
        layout = BlockLayout.of([(0, 0, 0, 1.0), (2, 1, 1, -1.0)], 2)
        mean_all(mul(block_matrix(parts, layout), rng.normal(size=(4, 4)))).backward()
        assert parts.grad.shape == (3, 2, 2)
        assert np.abs(parts.grad[[0, 2]]).max(axis=(1, 2)).min() > 0.0
        np.testing.assert_array_equal(parts.grad[1], np.zeros((2, 2)))

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


FACTORS = (np.random.default_rng(5).normal(size=(3, 4)),
           np.random.default_rng(6).normal(size=(2, 4)))
# op -> input shapes, the call, and which inputs' values its backward reads
TAPE_READS = {
    "add": ([(3, 4), (4,)], add, []),
    "mul by a constant": ([(3, 4)], lambda a: mul(a, 2.0), []),
    "lift_add_by_channel": ([(2, 4), (2, 3, 2, 4)], lambda basis, rec: lift_add_by_channel(
        FACTORS[0].reshape(2, 3, 2), basis, rec), []),
    "transpose": ([(2, 3, 4)], lambda a: transpose(a, (2, 0, 1)), []),
    "split": ([(4, 6)],
              lambda a: split(a, [(slice(None), slice(0, 3)), (slice(None), slice(3, 6))]),
              []),
    "stack": ([(3, 4), (3, 4)], lambda a, b: stack([a, b], axis=1), []),
    "reshape": ([(3, 4)], lambda a: reshape(a, (2, 6)), []),
    "split into transposed views": ([(2, 12)], lambda a: split(
        a, [(Ellipsis, 0, slice(None)), (Ellipsis, 1, slice(None))], (2, 2, 6), axes=(1, 0)),
        []),
    "lift": ([(2, 4)], lambda basis: lift(FACTORS[1].reshape(4, 2), basis), []),
    "relu": ([(3, 4)], relu, []),
    "overlap_add": ([(2, 3, 4, 2)], lambda f: overlap_add(f, 2, 8), []),
    "irfft_real": ([(3, 2, 5)], lambda x: irfft_real(x, 8), []),
    "block_matrix": ([(2, 2, 2)], lambda parts: block_matrix(
        parts, BlockLayout.of([(0, 0, 0, 1.0), (1, 1, 1, -1.0)], 2)), []),
    "mean_all": ([(3, 4)], mean_all, []),
    "matmul": ([(2, 3, 4), (4, 5)], matmul, [0, 1]),
    "mul by a Tensor": ([(3, 4), (3, 4)], mul, [0, 1]),
    "factored_matmul": ([(3, 8), (8, 5)], lambda x, w: factored_matmul(x, *FACTORS, w), [1]),
}


@pytest.mark.parametrize("shapes, call, read", TAPE_READS.values(), ids=TAPE_READS)
def test_the_tape_keeps_an_input_value_only_if_its_backward_reads_it(rng, shapes, call, read):
    """Once the caller drops an op's inputs and keeps its output, an input's
    value array is alive only if the op's backward reads it."""
    inputs = [Tensor(rng.normal(size=shape)) for shape in shapes]
    values = [weakref.ref(t.data) for t in inputs]
    out = call(*inputs)
    for t in out if isinstance(out, list) else [out]:
        # a view of an input is the output's value, not the tape's: keep a copy
        if any(np.shares_memory(t.data, i.data) for i in inputs):
            t.data = t.data.copy()
    del inputs
    assert [i for i, ref in enumerate(values) if ref() is not None] == read


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
