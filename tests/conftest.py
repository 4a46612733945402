import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from freqcast import autograd
from freqcast.autograd import Tensor
from freqcast.spectral import LiftFactors, SpectralWindows


@pytest.fixture(autouse=True)
def tape_recording_stays_on():
    """A test that leaves ``no_tape`` switched off fails here, where the leak
    is, instead of silently handing later tests no gradients."""
    assert autograd._recording, "tape recording was already off when the test started"
    yield
    assert autograd._recording, "the test left tape recording off"


@pytest.fixture(autouse=True)
def matmul_backward_runs_side_by_side(monkeypatch):
    """Every test runs matmul's side-by-side backward unless it pins
    ``autograd._blas_threads`` itself.  That function reads the BLAS thread
    variables once per process, and collecting ``bench/test_bench.py`` sets
    them to one thread; unpinned, a test would run one backward in a full
    run and the other when run alone on a machine with more CPUs.  The
    environment reader stays reachable as ``__wrapped__``."""
    def one_thread():
        return 1

    one_thread.__wrapped__ = autograd._blas_threads.__wrapped__
    monkeypatch.setattr(autograd, "_blas_threads", one_thread)


@st.composite
def plan_geometry(draw, max_p: int, max_nfft: int):
    """(p, nfft, hop) of a valid plan.  Half the draws tile the lookback (hop ==
    nfft, or p = 1 with hop 0); the others overlap (p > 1, hop < nfft)."""
    if draw(st.booleans(), label="tiles"):
        p, nfft = draw(st.integers(1, max_p), label="p"), draw(st.integers(1, max_nfft))
        return p, nfft, nfft if p > 1 else 0
    p, nfft = draw(st.integers(2, max_p), label="p"), draw(st.integers(2, max_nfft))
    return p, nfft, draw(st.integers(1, nfft - 1), label="hop")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_hc(rng, base):
    """A random base-``base`` hyper-complex number as its ``base // 2`` complex
    components."""
    parts = rng.uniform(-1.0, 1.0, size=(base // 2, 2))
    return tuple(complex(a, b) for a, b in parts)


def cvalue(c) -> np.ndarray:
    """The complex values of a per-window ``CTensor`` view: re + 1j * im."""
    return c.re.data + 1j * c.im.data


def identity_lifted(s) -> SpectralWindows:
    """Spectra given by their planes alone as the lifted spectra top-M reads:
    the planes are the factors' coefficients over an identity (E, E) basis,
    so a lift of finite planes gives them back bit for bit, up to the sign
    of a zero.  An infinite entry makes NaN of its neighbours (inf * 0)."""
    basis = Tensor(np.eye(s.shape[-1]))
    return SpectralWindows(None, s.plan, s.index, LiftFactors(s.planes.data, basis))


def lifted_planes(s) -> np.ndarray:
    """The full (B, p, 2, bins, D, E) planes of lifted spectra, which carry
    only their factors: the factors' product as ``autograd.lift`` forms it."""
    return autograd.lift(s.factors.coef, s.factors.basis).data


def naive_dft(x, axis=-1):
    """Independent O(n^2) DFT oracle: the textbook sum, nothing shared with
    the production kernels."""
    x = np.asarray(x, dtype=complex)
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for k in range(n):
        for t in range(n):
            out[..., k] += x[..., t] * np.exp(-2j * np.pi * k * t / n)
    return np.moveaxis(out, -1, axis)


def numeric_gradient(loss_fn, tensor: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued closure."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = loss_fn()
        flat[i] = old - h
        down = loss_fn()
        flat[i] = old
        grad[i] = (up - down) / (2 * h)
    return grad.reshape(tensor.data.shape)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def traced_peaks(*calls) -> list[float]:
    """The ``tracemalloc`` peak while each of ``calls`` runs, in MiB, all in one
    traced session: memory that an earlier call left held counts toward a
    later call's peak."""
    peaks = []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return peaks
