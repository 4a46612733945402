"""Loss, optimiser behaviour, and the training loop's contracts."""

import dataclasses
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import freqcast
from freqcast import data as data_io
from freqcast import train as train_mod
from freqcast import autograd
from freqcast.autograd import Tensor, mean_all, mul, no_tape
from freqcast.config import RunConfig
from freqcast.errors import ContractError, TrainingError
from freqcast.model import embed, forward, init_params
from freqcast.spectral import rstft
from freqcast.train import Adam, backward, fit, mse_loss, predict

SMALL = dict(lookback=16, horizon=4, embed=4, windows=2, nfft=8, top_m=4,
             hidden=8, batch=16, epochs=3, seed=5)


def small_cfg(**overrides):
    return RunConfig(**{**SMALL, **overrides}).validate()


def normalized_synth(seed=3, length=320, channels=2, kind="sinusoid_mix"):
    ds = data_io.synth_corpus(kind, seed, length, channels)
    train, val, _ = data_io.split_chronological(ds)
    stats = data_io.fit_norm_stats(train)
    return data_io.normalize(train, stats), data_io.normalize(val, stats)


class TestMseLoss:
    def test_equal_inputs_zero(self, rng):
        x = rng.normal(size=(2, 3, 2))
        assert float(mse_loss(Tensor(x), x).data) == 0.0

    def test_unit_error_everywhere(self):
        pred = Tensor(np.ones((2, 4, 3)))
        assert float(mse_loss(pred, np.zeros((2, 4, 3))).data) == pytest.approx(1.0)

    def test_hand_computed_case(self):
        pred = Tensor(np.array([[[1.0], [2.0]]]))
        target = np.zeros((1, 2, 1))
        assert float(mse_loss(pred, target).data) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mse_loss(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 3, 1)))


class TestBackward:
    def test_quadratic_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 2, 1)))
        loss = mse_loss(x, np.zeros_like(x.data))
        backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data / x.data.size, atol=1e-14)

    def test_consumed_tape_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 1)))
        loss = mse_loss(x, np.zeros_like(x.data))
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)

    def test_loss_without_a_tape_rejected(self, rng):
        """Inside no_tape() a loss keeps no history: a sweep from it would
        silently leave every parameter without a gradient."""
        x = Tensor(rng.normal(size=(2, 1, 1)))
        with no_tape():
            loss = mse_loss(x, np.zeros_like(x.data))
        with pytest.raises(ContractError, match="no tape"):
            backward(loss)

    def test_masked_weights_get_exactly_zero_gradient(self, rng):
        cfg = small_cfg(mask_mode="w_imag")
        params = init_params(cfg)
        x = rng.normal(size=(2, cfg.lookback, 2))
        y = rng.normal(size=(2, cfg.horizon, 2))
        loss = mse_loss(forward(x, params, cfg), y)
        backward(loss)
        for w in params.backbone.weights:
            g = w.im.grad
            assert g is None or np.abs(g).max() == 0.0
            assert w.re.grad is not None and np.abs(w.re.grad).max() > 0.0


class TestReleasedTape:
    """A backward sweep releases the tape it consumes, so a caller that keeps
    the loss, as ``fit`` does until the next step, keeps no graph alive."""

    def setup_method(self):
        self.cfg = small_cfg(batch=4)
        self.params = init_params(self.cfg)
        rng = np.random.default_rng(7)
        self.x = rng.normal(size=(4, self.cfg.lookback, 2))
        self.y = rng.normal(size=(4, self.cfg.horizon, 2))

    def test_no_interior_tensor_outlives_the_sweep(self):
        debug: dict = {}
        pred = forward(self.x, self.params, self.cfg, debug=debug)
        loss = mse_loss(pred, self.y)
        interior = {name: weakref.ref(t) for name, t in
                    [("pred", pred), ("embedded", debug["embedded"]),
                     ("reconstructed", debug["reconstructed"])]}
        del pred, debug
        backward(loss)
        assert {name: ref() for name, ref in interior.items()} == dict.fromkeys(interior)
        assert loss.grad is not None

    def test_leaves_keep_their_gradients(self):
        backward(mse_loss(forward(self.x, self.params, self.cfg), self.y))
        for name, t in self.params.named_tensors():
            assert t.grad is not None and np.isfinite(t.grad).all(), name
        # the block matrix hands its weight planes views of one array
        planes = [w.re.grad for w in self.params.backbone.weights]
        planes += [w.im.grad for w in self.params.backbone.weights]
        assert planes[0].base is not None
        assert all(g.base is planes[0].base for g in planes)

    def test_a_consumed_tape_cannot_be_swept_again(self):
        pred = forward(self.x, self.params, self.cfg)
        loss = mse_loss(pred, self.y)
        backward(loss)
        assert pred.grad is None and loss.grad is not None
        with pytest.raises(ContractError, match="single-use"):
            loss.backward()
        with pytest.raises(ContractError, match="single-use"):
            backward(mse_loss(pred, self.y))

    def test_a_consumed_tensor_is_still_refused_as_data(self):
        doubled = mul(Tensor(self.x[..., None]), 2.0)
        backward(mean_all(mul(doubled, doubled)))
        with pytest.raises(ContractError, match="computed by earlier ops"):
            embed(doubled, self.params)
        with pytest.raises(ContractError, match="computed by earlier ops"):
            rstft(doubled, self.cfg.plan(), self.params.embed_scale, self.params.embed_bias)

    def test_a_step_holds_no_earlier_step_graph(self):
        """Under tracemalloc, the second of two steps peaks at most 10% above
        the first, although the first step's loss is still held during it."""
        named = self.params.named_tensors()
        backward(mse_loss(forward(self.x, self.params, self.cfg), self.y))  # fill caches
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                for _, t in named:
                    t.grad = None
                tracemalloc.reset_peak()
                loss = mse_loss(forward(self.x, self.params, self.cfg), self.y)
                backward(loss)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class ReferenceAdam:
    """The per-tensor Adam that the flat one replaced, kept as an oracle."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = named_params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in named_params}

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, t in self.params:
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            t.data = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def mixed_params(rng):
    """Mixed shapes, a scalar, a tensor that never gets a gradient, a zero plane."""
    return [("w", Tensor(rng.normal(size=(3, 4)))), ("b", Tensor(rng.normal(size=4))),
            ("s", Tensor(rng.normal())), ("frozen", Tensor(rng.normal(size=(2, 3, 2)))),
            ("w.im", Tensor(np.zeros((4, 3))))]


def set_grads(named, rng, scale):
    for name, t in named:
        if name == "frozen":
            t.grad = None
        elif name == "w.im":  # a masked plane: exactly zero gradient
            t.grad = np.zeros_like(t.data)
        else:
            t.grad = scale * rng.normal(size=t.data.shape)


class TestAdam:
    def test_matches_per_tensor_reference_bit_for_bit(self):
        flat_named = mixed_params(np.random.default_rng(7))
        ref_named = mixed_params(np.random.default_rng(7))
        flat, ref = Adam(flat_named, lr=3e-2), ReferenceAdam(ref_named, lr=3e-2)
        for step in range(6):
            scale = 10.0 ** (step - 3)
            set_grads(flat_named, np.random.default_rng(step), scale)
            set_grads(ref_named, np.random.default_rng(step), scale)
            flat.step()
            ref.step()
            if step == 3:
                flat.decay_lr(0.5)
                ref.lr *= 0.5
        for (name, t), (_, r) in zip(flat_named, ref_named):
            assert t.data.shape == r.data.shape
            assert np.array_equal(t.data, r.data), name
            assert np.array_equal(flat.m[name], ref.m[name]), name
            assert np.array_equal(flat.v[name], ref.v[name]), name
        assert np.array_equal(dict(flat_named)["w.im"].data, np.zeros((4, 3)))
        assert flat.step_count == ref.step_count == 6

    def test_halves_match_the_serial_update_bit_for_bit(self, rng):
        """Five steps over an odd-length flat vector with one parameter that
        gets no gradient equal the whole-vector ufunc sequence on one thread."""
        shapes = [(3, 5), (7,), (), (4, 4)]  # 39 values: the halves are 19 and 20
        named = [(str(i), Tensor(rng.normal(size=s))) for i, s in enumerate(shapes)]
        opt = Adam(named, lr=3e-2)
        flat, m, v = np.concatenate([t.data.ravel() for _, t in named]), np.zeros(39), np.zeros(39)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-2
        for step in range(1, 6):
            for name, t in named:
                t.grad = None if name == "2" else rng.normal(size=t.data.shape)
            g = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                                for _, t in named])
            opt.step()
            bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            m = np.multiply(m, b1) + np.multiply(g, 1 - b1)
            v = np.multiply(v, b2) + np.multiply(np.multiply(g, g), 1 - b2)
            flat = flat - np.multiply(np.divide(m, bc1), lr) / (np.sqrt(np.divide(v, bc2)) + eps)
        assert opt.flat.size % 2 == 1
        assert np.array_equal(opt.flat, flat)
        assert np.array_equal(opt._m, m) and np.array_equal(opt._v, v)

    def test_overflow_in_the_upper_half_raises_under_errstate(self, monkeypatch):
        """The upper half runs on the worker thread, which must keep the
        caller's numpy error state."""
        begun = threading.Event()

        def upper_half_on_the_worker(first, second):
            def upper():
                begun.set()
                return first()

            def lower():
                begun.wait(10)  # so that the caller does not take the upper half too
                return second()

            return autograd.side_by_side(upper, lower)

        monkeypatch.setattr(train_mod, "side_by_side", upper_half_on_the_worker)
        low, high = Tensor(np.zeros(4)), Tensor(np.zeros(5))
        opt = Adam([("low", low), ("high", high)], lr=1e-3)
        low.grad, high.grad = np.ones(4), np.array([1.0, 1.0, 1.0, 1.0, 1e200])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                opt.step()
        assert begun.is_set()

    def test_step_writes_each_parameter_in_place(self, rng):
        named = mixed_params(rng)
        opt = Adam(named, lr=1e-2)
        buffers = [t.data for _, t in named]
        moments = [(opt.m[name], opt.v[name]) for name, _ in named]
        start = dict(named)["w"].data.copy()
        for _ in range(3):
            set_grads(named, rng, 1.0)
            opt.step()
        for (name, t), buf, (m, v) in zip(named, buffers, moments):
            assert t.data is buf
            assert opt.m[name] is m and opt.v[name] is v
            assert np.shares_memory(t.data, opt.flat)
        assert not np.array_equal(dict(named)["w"].data, start)

    def test_non_finite_gradient_changes_nothing(self, rng):
        first, second = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(2, 2)))
        opt = Adam([("first", first), ("second", second)], lr=1e-2)
        first.grad, second.grad = np.ones(3), np.ones((2, 2))
        opt.step()

        def state():
            return [first.data, second.data, *opt.m.values(), *opt.v.values()]

        before = [a.copy() for a in state()]
        first.grad = rng.normal(size=3)
        second.grad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(TrainingError, match="'second'"):
            opt.step()
        assert all(np.array_equal(a, b) for a, b in zip(before, state()))
        assert opt.step_count == 1

    def test_zero_gradient_leaves_params(self):
        t = Tensor(np.array([1.5, -2.0]))
        opt = Adam([("t", t)], lr=0.1)
        t.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(t.data, [1.5, -2.0])
        assert opt.step_count == 1

    def test_constant_gradient_steps_by_lr(self):
        t = Tensor(np.array([0.0]))
        opt = Adam([("t", t)], lr=1e-3)
        history = [float(t.data[0])]
        for _ in range(5):
            t.grad = np.array([1.0])
            opt.step()
            history.append(float(t.data[0]))
        deltas = np.diff(history)
        assert np.all(deltas < 0)
        np.testing.assert_allclose(deltas, -1e-3, rtol=1e-3)

    def test_moments_decay_after_gradients_stop(self):
        t = Tensor(np.array([0.0]))
        opt = Adam([("t", t)], lr=1e-3)
        t.grad = np.array([1.0])
        opt.step()
        m0, v0 = abs(opt.m["t"][0]), abs(opt.v["t"][0])
        for _ in range(10):
            t.grad = np.array([0.0])
            opt.step()
        assert abs(opt.m["t"][0]) < m0 * 0.5
        assert abs(opt.v["t"][0]) < v0

    def test_nan_gradient_names_the_tensor(self):
        t = Tensor(np.array([0.0]))
        opt = Adam([("embed.scale", t)], lr=1e-3)
        t.grad = np.array([np.nan])
        with pytest.raises(TrainingError, match="embed.scale"):
            opt.step()

    @pytest.mark.parametrize("index, name", [(0, "w"), (11, "w"), (12, "b"), (16, "s"),
                                             (17, "frozen"), (40, "w.im")])
    def test_nonfinite_names_the_parameter_holding_the_index(self, rng, index, name):
        opt = Adam(mixed_params(rng), lr=1e-2)
        assert opt.nonfinite(opt.flat) is None
        opt.flat[index] = np.inf
        assert opt.nonfinite(opt.flat) == name

    def test_lr_decay(self):
        opt = Adam([("t", Tensor(np.array([0.0])))], lr=1e-3)
        opt.decay_lr(0.9)
        assert opt.lr == pytest.approx(9e-4)


class TestFit:
    def test_constant_series_reaches_zero_error(self):
        cfg = small_cfg(epochs=2)
        const = np.full((200, 2), 7.0)
        stats = data_io.fit_norm_stats(const)
        split = data_io.normalize(const, stats)
        result = fit(split, split, cfg)
        assert result.best_val_mae < 1e-8

    def test_lr_schedule_is_logged(self):
        train, val = normalized_synth()
        cfg = small_cfg(epochs=3, lr=1e-3, lr_decay=0.9)
        result = fit(train, val, cfg)
        lrs = [r.lr for r in result.log]
        np.testing.assert_allclose(lrs, [1e-3, 9e-4, 8.1e-4], rtol=1e-12)
        assert [r.epoch for r in result.log] == [1, 2, 3]

    def test_seeded_runs_are_identical(self):
        train, val = normalized_synth()
        cfg = small_cfg(epochs=2)
        a = fit(train, val, cfg)
        b = fit(train, val, cfg)
        assert [dataclasses.astuple(r) for r in a.log] == [
            dataclasses.astuple(r) for r in b.log
        ]
        for (n1, t1), (n2, t2) in zip(a.params.named_tensors(), b.params.named_tensors()):
            assert n1 == n2 and np.array_equal(t1.data, t2.data)

    def test_returns_best_epoch_parameters(self):
        train, val = normalized_synth()
        cfg = small_cfg(epochs=3)
        result = fit(train, val, cfg)
        best = min(result.log, key=lambda r: r.val_mae)
        assert result.best_epoch == best.epoch
        x_val, y_val = data_io.make_windows(val, cfg.lookback, cfg.horizon)
        m = data_io.metrics(predict(result.params, cfg, x_val), y_val)
        assert m["mae"] == pytest.approx(result.best_val_mae, rel=1e-12)

    def test_best_epoch_is_restored_into_the_optimiser_buffer(self, monkeypatch):
        train, val = normalized_synth()
        cfg = small_cfg(epochs=3)
        made, seen = [], []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def scripted_evaluate(params, cfg, x, y):
            seen.append([t.data.copy() for _, t in params.named_tensors()])
            return {"mae": [0.5, 0.2, 0.9][len(seen) - 1], "rmse": 1.0}

        monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
        monkeypatch.setattr(train_mod, "evaluate", scripted_evaluate)
        result = fit(train, val, cfg)
        assert result.best_epoch == 2
        (opt,) = made
        for (name, t), best, last in zip(result.params.named_tensors(), seen[1], seen[2]):
            assert np.shares_memory(t.data, opt.flat), name
            assert np.array_equal(t.data, best), name
        assert any(not np.array_equal(b, c) for b, c in zip(seen[1], seen[2]))

    def test_empty_split_rejected(self):
        cfg = small_cfg()
        with pytest.raises(TrainingError):
            fit(np.zeros((0, 2)), np.zeros((10, 2)), cfg)

    def test_loss_nonincreasing_for_most_seeds(self):
        hits = 0
        for seed in range(10):
            train, val = normalized_synth(seed=seed)
            cfg = small_cfg(epochs=3, seed=seed)
            losses = [r.train_loss for r in fit(train, val, cfg).log]
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                hits += 1
        assert hits >= 9

    @pytest.mark.parametrize("mode", ["x_real", "w_imag+x_imag"])
    def test_masked_training_stays_finite(self, mode):
        train, val = normalized_synth()
        cfg = small_cfg(epochs=2, mask_mode=mode)
        result = fit(train, val, cfg)
        assert all(np.isfinite([r.train_loss, r.val_mae, r.val_rmse]).all()
                   for r in result.log)


class TestPredict:
    def setup_method(self):
        self.cfg = small_cfg(batch=4)
        self.params = init_params(self.cfg)
        self.x = np.random.default_rng(2).normal(size=(10, self.cfg.lookback, 2))

    def test_chunk_none_means_the_config_batch(self):
        out = predict(self.params, self.cfg, self.x)
        assert np.array_equal(out, predict(self.params, self.cfg, self.x, chunk=4))
        assert out.shape == (10, self.cfg.horizon, 2)

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_chunk_below_one_rejected(self, chunk):
        with pytest.raises(ContractError, match=f"chunk must be at least 1 window, got {chunk}"):
            predict(self.params, self.cfg, self.x, chunk=chunk)

    def test_input_without_windows_rejected(self):
        with pytest.raises(ContractError, match="no windows"):
            predict(self.params, self.cfg, self.x[:0])

    @pytest.mark.parametrize("chunk", [2.5, True, 4.0, "4"])
    def test_chunk_that_is_not_an_integer_rejected(self, chunk):
        """2.5 died in range() with a bare TypeError, and True meant 1."""
        with pytest.raises(ContractError, match=f"integer number of windows, got {chunk!r}"):
            predict(self.params, self.cfg, self.x, chunk=chunk)

    def test_numpy_integer_chunk_accepted(self):
        assert np.array_equal(predict(self.params, self.cfg, self.x, chunk=np.int64(3)),
                              predict(self.params, self.cfg, self.x, chunk=3))

    def test_nested_list_input_is_taken_as_an_array(self):
        """A list has no .shape: it died with a bare AttributeError."""
        assert np.array_equal(predict(self.params, self.cfg, self.x.tolist()),
                              predict(self.params, self.cfg, self.x))


class TestNoTape:
    def setup_method(self):
        self.cfg = small_cfg(batch=4)
        self.params = init_params(self.cfg)
        self.params.embed_bias.data[...] = np.random.default_rng(3).normal(size=self.cfg.embed)
        self.x = np.random.default_rng(2).normal(size=(10, self.cfg.lookback, 2))

    def test_forward_inside_records_no_parents_and_no_backward(self):
        with no_tape():
            assert not autograd._recording
            out = forward(self.x, self.params, self.cfg)
        assert out._parents == () and out._backward is None

    def test_recording_is_back_on_after_the_block_and_after_predict_raises(self):
        with no_tape():
            pass
        assert autograd._recording
        with pytest.raises(ContractError, match="lookback"):
            predict(self.params, self.cfg, self.x[:, 1:])
        assert autograd._recording
        loss = mse_loss(forward(self.x, self.params, self.cfg), np.zeros((10, 4, 2)))
        backward(loss)
        assert self.params.head_w1.grad is not None

    def test_forward_outside_still_refuses_a_computed_tensor(self):
        computed = Tensor(self.x) * 1.0
        with pytest.raises(ContractError, match="computed by earlier ops"):
            forward(computed, self.params, self.cfg)

    def test_predict_equals_forward_bit_for_bit(self):
        assert (predict(self.params, self.cfg, self.x, chunk=10).tobytes()
                == forward(self.x, self.params, self.cfg).data.tobytes())


FAULTS_PER_CHUNK = """
import resource, statistics
import numpy as np
from freqcast import train
from freqcast.config import RunConfig
from freqcast.model import init_params

assert train._keep_freed_buffers.cache_info().currsize == 0, "mallopt ran at import"
cfg = RunConfig(backbone="wm", lookback=512, horizon=96, windows=4, nfft=128,
                embed=8, top_m=8, hidden=64).validate()
params = init_params(cfg)
x = np.random.default_rng(0).normal(size=(12 * 32, 512, 4))
faults = []
for i in range(0, x.shape[0], 32):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train.predict(params, cfg, x[i:i + 32], chunk=32)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[1:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap is kept through glibc's mallopt; other C "
                           "libraries keep their own policy for freed buffers")
def test_predict_chunks_reuse_freed_buffers_without_page_faults():
    """After one warm-up chunk, a predict-long-sized chunk maps no new pages.

    Without the mallopt setting glibc unmaps each freed multi-MB buffer, and
    every chunk faults in about 6,450 pages again.
    """
    src = str(Path(freqcast.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_CHUNK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 64
