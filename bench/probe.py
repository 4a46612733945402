"""Timing and counting wrappers installed around freqcast from outside.

A ``Probe`` patches public names of the package for the length of a
``with`` block and puts every original back on exit, so the package itself
is never edited.  Untraced, it only marks where each batch starts and ends:
a train step runs from the end of ``Adam.zero_grads`` (the line before the
forward) to the end of ``Adam.step``; a predict chunk is one call of the
``forward`` name that ``train.predict`` looks up.  Traced, it also wraps the
stage names ``freqcast.model.forward`` calls, the loss, evaluation,
``Tensor.backward``, the four one-sided FFT kernels and ``Tensor.__init__``.

Stage times are exclusive: a single clock charges the time between two
stage boundaries to the innermost open stage.  Each tape node (a Tensor
created with a backward closure) is charged to the stage open when it was
created, and its closure is wrapped so that its backward time is charged to
``<stage>.bwd``.  The FFT kernels are timed inclusively, inside whichever
stage called them.  Nothing is recorded outside an open region: a batch, an
evaluation, or a region opened by hand with ``Probe.region``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import freqcast.autograd as autograd
import freqcast.fftkit as fftkit
import freqcast.model as model
import freqcast.train as train

perf = time.perf_counter

# stage label -> name the forward pipeline calls it by in freqcast.model
MODEL_STAGES = {
    "model.embed": "embed",
    "spectral.rstft": "rstft",
    "compress.top_m": "top_m_select",
    "backbones": "backbone_forward",
    "compress.pad": "position_aware_pad",
    "spectral.istft": "istft",
}
FFT_KERNELS = {
    "rfft_onesided": "fftkit.forward",
    "irfft_onesided": "fftkit.forward",
    "rfft_transpose": "fftkit.transpose",
    "irfft_transpose": "fftkit.transpose",
}
# time inside a batch that belongs to no layer: the batch loop itself and
# forward()'s own glue (input checks, plan lookup, masking)
UNATTRIBUTED = ("unattributed", "model.forward")


class Region:
    """Times (seconds) and counts summed over everything recorded into it."""

    def __init__(self):
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.energy: list[float] = []


class Probe:
    def __init__(self, traced: bool, batch_is_forward: bool):
        self.traced = traced
        self.batch_is_forward = batch_is_forward
        self.batch_ms: list[float] = []
        self.eval_ms: list[float] = []
        self.batches = Region()
        self.stack = ["unattributed"]
        self.active: Region | None = None
        self.last = perf()
        self._batch_t0 = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- the stage clock ------------------------------------------------------

    def _tick(self) -> None:
        now = perf()
        if self.active is not None:
            self.active.times[self.stack[-1]] += now - self.last
        self.last = now

    def enter(self, label: str) -> None:
        self._tick()
        self.stack.append(label)

    def exit(self) -> None:
        self._tick()
        self.stack.pop()

    @contextmanager
    def region(self, region: Region):
        outer = self.active
        self._tick()
        self.active = region
        try:
            yield region
        finally:
            self._tick()
            self.active = outer

    def _begin_batch(self) -> None:
        self._tick()
        self.active = self.batches
        self._batch_t0 = self.last

    def _end_batch(self) -> None:
        self._tick()
        self.active = None
        self.batch_ms.append((self.last - self._batch_t0) * 1e3)

    # -- installing and removing wrappers ---------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def __enter__(self) -> "Probe":
        probe = self
        adam = train.Adam

        class TimedAdam(adam):
            def zero_grads(self):
                super().zero_grads()
                probe._begin_batch()

            def step(self):
                probe.enter("train.adam_step")
                try:
                    super().step()
                finally:
                    probe.exit()
                probe._end_batch()

        self._patch(train, "Adam", TimedAdam)
        self._patch(train, "forward", self._wrap_forward(train.forward))
        if self.traced:
            self._install_traced()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)
        self.active = None
        self.stack = ["unattributed"]

    def _wrap_forward(self, fn):
        def forward(*args, **kwargs):
            if self.batch_is_forward:
                self._begin_batch()
            self.enter("model.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
                if self.batch_is_forward:
                    self._end_batch()

        return forward

    def _stage(self, label: str, fn, after=None):
        def staged(*args, **kwargs):
            self.enter(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None and self.active is not None:
                after(args, out)
            return out

        return staged

    def _install_traced(self) -> None:
        for label, name in MODEL_STAGES.items():
            after = {"compress.top_m": self._record_energy,
                     "spectral.istft": self._enter_head}.get(label)
            self._patch(model, name, self._stage(label, getattr(model, name), after))
        self._patch(train, "mse_loss", self._stage("train.loss", train.mse_loss))
        self._patch(train, "evaluate", self._wrap_evaluate(train.evaluate))
        for name, key in FFT_KERNELS.items():
            self._patch(fftkit, name, self._wrap_kernel(getattr(fftkit, name), key))
        self._patch(autograd.Tensor, "__init__", self._wrap_init(autograd.Tensor.__init__))
        self._patch(autograd.Tensor, "backward", self._wrap_backward(autograd.Tensor.backward))

    def _enter_head(self, args, out) -> None:
        # everything forward() does after synthesis is the skip connection
        # and the read-out head
        if self.stack[-1] == "model.forward":
            self._tick()
            self.stack[-1] = "model.head"

    def _record_energy(self, args, out) -> None:
        self.enter("trace.self")
        total = sum(float((c.re.data ** 2 + c.im.data ** 2).sum()) for c in args[0].windows)
        kept = sum(float((c.re.data ** 2 + c.im.data ** 2).sum()) for c in out.windows)
        self.active.energy.append(kept / total if total > 0 else 1.0)
        self.exit()

    def _wrap_evaluate(self, fn):
        def evaluate(*args, **kwargs):
            t0 = perf()
            with self.region(Region()):
                out = fn(*args, **kwargs)
            self.eval_ms.append((perf() - t0) * 1e3)
            return out

        return evaluate

    def _wrap_kernel(self, fn, key: str):
        def kernel(*args, **kwargs):
            region = self.active
            if region is None:
                return fn(*args, **kwargs)
            t0 = perf()
            out = fn(*args, **kwargs)
            region.times[key] += perf() - t0
            region.counts["fftkit.calls"] += 1
            return out

        return kernel

    def _wrap_init(self, init):
        probe = self

        def __init__(self, data, parents=(), backward=None):
            region = probe.active
            if backward is not None and region is not None:
                stage = probe.stack[-1]
                region.counts["autograd.tape_nodes"] += 1
                region.counts[stage + ".nodes"] += 1
                if backward.__qualname__.startswith("matmul."):
                    region.counts["autograd.matmul_calls"] += 1
                inner, label = backward, stage + ".bwd"

                def backward(g):
                    probe.enter(label)
                    try:
                        inner(g)
                    finally:
                        probe.exit()

            init(self, data, parents, backward)

        return __init__

    def _wrap_backward(self, fn):
        probe = self

        def backward(self):
            t0 = perf()
            probe.enter("autograd.sort")
            try:
                fn(self)
            finally:
                probe.exit()
            if probe.active is not None:
                probe.active.times["autograd.backward"] += perf() - t0

        return backward
