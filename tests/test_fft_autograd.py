"""FFT kernels against an independent oracle, and autograd gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import fftkit
from freqcast.autograd import (
    CTensor,
    Tensor,
    add,
    block_matrix,
    concat,
    frames,
    getitem,
    irfft_real,
    matmul,
    mean_all,
    mul,
    overlap_add,
    put_rows,
    relu,
    reshape,
    rfft_pair,
    sub,
    take_rows,
    transpose,
)
from freqcast.errors import ContractError
from freqcast.spectral import plan_stft

from conftest import max_rel_err, naive_dft, numeric_gradient


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
            x = getitem(x, (slice(1, 3), slice(None)))
            return mean_all(mul(x, x))

        check_grads(build, [a])

    def test_shared_gradient_is_never_written_in_place(self, rng):
        """add hands one gradient array to both parents; slicing one of them
        afterwards must not change the gradient the other one holds."""
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        w = rng.normal(size=(4, 3))

        def build():
            cut = getitem(a, (slice(1, 3),))
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
        """take_rows then put_rows of the 3 largest rows per (sample, channel)
        of a (3, 8, 2, E) tensor viewed as rows of E."""
        a = Tensor(rng.normal(size=(3, 8, 2, 2)))
        idx = np.argsort(-np.abs(a.data).sum(axis=3), axis=1)[:, :3, :]  # (3, 3, 2)
        rows = (np.arange(3)[:, None, None] * 8 + idx) * 2 + np.arange(2)

        def build():
            g = take_rows(a, rows)
            s = put_rows(g, rows, a.shape)
            return mean_all(mul(s, s))

        check_grads(build, [a])
        kept = take_rows(a, rows).data
        assert np.array_equal(kept, np.take_along_axis(a.data, idx[..., None], axis=1))
        back = put_rows(Tensor(kept), rows, a.shape).data
        assert np.array_equal(back.reshape(-1, 2)[rows.ravel()], kept.reshape(-1, 2))
        assert np.count_nonzero(np.abs(back).sum(axis=3)) == rows.size

    def test_scatter_index_bounds(self):
        """Rows outside [0, N) are refused both ways; numpy would raise a bare
        IndexError past the end and wrap a negative row silently."""
        for bad in ([0, 5], [0, -1]):
            rows = np.array(bad)
            with pytest.raises(ContractError, match=r"row index out of range \[0, 4\)"):
                put_rows(Tensor(np.ones((2, 3))), rows, (4, 3))
            with pytest.raises(ContractError, match=r"row index out of range \[0, 4\)"):
                take_rows(Tensor(np.ones((4, 3))), rows)

    @pytest.mark.parametrize("n", [8, 12])
    def test_fft_pair_grads(self, rng, n):
        x = Tensor(rng.normal(size=(2, n, 2)))

        def build():
            re, im = rfft_pair(x, axis=1)
            y = irfft_real(re, im, n, axis=1)
            return mean_all(mul(add(y, re[:, :1]), y))

        check_grads(build, [x])

    @pytest.mark.parametrize("axis", [0, -1])
    def test_concat_and_overlapping_slices_grads(self, rng, axis):
        widths = (3, 1, 4)
        parts = [Tensor(rng.normal(size=(w, 3) if axis == 0 else (3, w))) for w in widths]

        def cut(y, lo, hi):
            return getitem(y, (slice(lo, hi),) if axis == 0 else (Ellipsis, slice(lo, hi)))

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
        x = Tensor(rng.normal(size=(2, plan.lookback, 2)))
        f = Tensor(rng.normal(size=(2, plan.window_count, plan.nfft, 2)))
        framed = frames(x, plan.starts, plan.nfft).data
        for i, s in enumerate(plan.starts):
            np.testing.assert_array_equal(framed[:, i], x.data[:, s:s + plan.nfft])
        check_grads(lambda: mean_all(mul(frames(x, plan.starts, plan.nfft), f.data)), [x])
        window = rng.uniform(0.5, 1.5, size=plan.nfft)
        np.testing.assert_array_equal(frames(x, plan.starts, plan.nfft, window).data,
                                      framed * window[:, None])
        x.grad = None
        check_grads(lambda: mean_all(mul(frames(x, plan.starts, plan.nfft, window), f.data)),
                    [x])
        check_grads(lambda: mean_all(mul(overlap_add(f, plan.starts, plan.lookback),
                                         x.data)), [f])

    @settings(max_examples=60, deadline=None)
    @given(nfft=st.integers(1, 12), p=st.integers(1, 5), data=st.data())
    def test_frames_and_overlap_add_are_adjoint(self, nfft, p, data):
        hop = data.draw(st.integers(1, nfft), label="hop") if p > 1 else 0
        plan = plan_stft(nfft + (p - 1) * hop, p, nfft)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(size=(2, plan.lookback, 3))
        y = rng.normal(size=(2, p, nfft, 3))
        lhs = (frames(Tensor(x), plan.starts, nfft).data * y).sum()
        rhs = (x * overlap_add(Tensor(y), plan.starts, plan.lookback).data).sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).sum() * np.abs(y).max())

    def test_block_matrix_layout_and_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        # a tensor in several blocks, and two entries summed into one block
        entries = [(a, 0, 0, 1.0), (b, 0, 2, -1.0), (a, 2, 1, 2.0), (b, 2, 1, 0.5)]
        want = np.zeros((6, 6))
        want[0:2, 0:2] = a.data
        want[0:2, 4:6] = -b.data
        want[4:6, 2:4] = 2.0 * a.data + 0.5 * b.data
        np.testing.assert_array_equal(block_matrix(entries, 3).data, want)
        x = Tensor(rng.normal(size=(4, 6)))

        def build():
            y = matmul(x, block_matrix(entries, 3))
            return mean_all(mul(y, y))

        check_grads(build, [a, b, x])

    def test_backward_needs_scalar(self, rng):
        t = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ContractError):
            t.backward()

    def test_grad_accumulates_over_reuse(self, rng):
        a = Tensor(np.array([2.0]))
        out = mean_all(mul(a, a))
        out.backward()
        np.testing.assert_allclose(a.grad, [4.0])


class TestCTensor:
    def test_plane_shape_mismatch(self):
        with pytest.raises(ContractError):
            CTensor(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
