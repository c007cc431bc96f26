"""The helper thread of the wide extractor forward and backward.

Inside train(), model.extractor_activations hands every second wide
batch's forward arithmetic to autodiff.offload, and
model.feature_extract's backward each wide hidden layer's weight
gradient; the offloaded jobs run on the one worker thread of a
ThreadPoolExecutor, which starts with the first job. These tests check
what that thread must not change: an error on it reaches the caller and
leaves no thread behind, an error on the main thread waits for the job in
flight, the gradients after such an error are still the sequential
step's, a batch of the wrong width is refused before any job is queued,
a default-shape train() starts no thread, and a step holds at most one
weight-gradient buffer and one layer activation more than the sequential
step.
"""

import signal
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from openset_ssl import autodiff as ad
from openset_ssl import model
from openset_ssl.data import GenConfig, gen_synthetic
from openset_ssl.errors import DimensionError
from openset_ssl.losses import loss_all
from openset_ssl.model import init_params
from openset_ssl.trainer import TrainConfig, train

HIDDEN, B, MU, D_IN, K = (256, 256), 256, 2, 32, 4
SEQUENTIAL = 1 << 62  # an OFFLOAD_MIN_SIZE that no gradient reaches


@contextmanager
def time_limit(seconds):
    """TimeoutError on this thread if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wide_step():
    """params and a function that runs one step's forward and backward at
    train_wide's shapes and returns the parameter gradients."""
    rng = np.random.default_rng(0)
    params = init_params(D_IN, HIDDEN, K, rng)
    x, y = rng.normal(size=(B, D_IN)), np.arange(B) % K
    u, i_batch = rng.normal(size=(MU * B, D_IN)), rng.normal(size=(MU * B, D_IN))
    cfg = TrainConfig(b=B, mu=MU, hidden=HIDDEN, e_fix=1, tau=0.3)

    def step(epoch):
        for t in params.parameters():
            t.zero_grad()
        total, bd = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), epoch)
        assert epoch == 1 or bd.fm_mask_count > 0
        total.backward()
        return [t.grad for t in params.parameters()]

    return params, step


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_helper_error_is_raised_on_the_main_thread(monkeypatch):
    """A job that raises MemoryError on the helper in the middle of
    training ends train() with that error, on this thread and in time;
    the helper is joined, and a later wide backward, with the helper or
    without it, gives the sequential backward's gradients."""
    threads_before = threading.active_count()
    runs_on = []
    real_offload = ad.offload

    def failing_offload(fn, *args):
        def job(*job_args):
            runs_on.append(threading.current_thread())
            if len(runs_on) == 7:
                raise MemoryError("job 7 ran out of memory")
            fn(*job_args)

        return real_offload(job, *args)

    monkeypatch.setattr(ad, "offload", failing_offload)
    with time_limit(60), pytest.raises(MemoryError, match="job 7 ran out of memory"):
        train(gen_synthetic(GenConfig(d_in=D_IN), 0), TrainConfig(b=B, hidden=HIDDEN, e_fix=1, e_max=2, i_max=5))
    assert len(runs_on) == 7 and threading.main_thread() not in runs_on
    assert threading.active_count() == threads_before
    monkeypatch.undo()
    assert_later_step_is_sequential(monkeypatch)


def test_forward_error_on_the_helper_is_raised_on_the_main_thread(monkeypatch):
    """Likewise for a batch's forward arithmetic: a MemoryError in the
    helper's third forward ends train() on this thread, in time, and
    leaves no thread behind."""
    threads_before = threading.active_count()
    runs_on = []
    real_forward = model._layers_forward

    def failing_forward(outs, h, layers):
        if threading.current_thread() is not threading.main_thread():
            runs_on.append(threading.current_thread())
            if len(runs_on) == 3:
                raise MemoryError("forward 3 ran out of memory")
        real_forward(outs, h, layers)

    monkeypatch.setattr(model, "_layers_forward", failing_forward)
    with time_limit(60), pytest.raises(MemoryError, match="forward 3 ran out of memory"):
        train(gen_synthetic(GenConfig(d_in=D_IN), 0), TrainConfig(b=B, hidden=HIDDEN, e_fix=1, e_max=2, i_max=5))
    # the step's other helper batch was queued with the third and ran before the join
    assert len(runs_on) == 4
    assert threading.active_count() == threads_before
    monkeypatch.undo()
    assert_later_step_is_sequential(monkeypatch)


def test_interrupt_on_the_main_thread_waits_for_the_job_in_flight(monkeypatch):
    """A KeyboardInterrupt on this thread while the helper's forward is
    still running ends train() with that interrupt, after the job has
    finished, and leaves no thread behind; a later wide step is still the
    sequential step."""
    threads_before = threading.active_count()
    interrupt, raised, events, submitted = KeyboardInterrupt(), threading.Event(), [], []
    real_forward, real_offload = model._layers_forward, ad.offload

    def offload(fn, *args):
        submitted.append(fn)
        return real_offload(fn, *args)

    def forward(outs, h, layers):
        if threading.current_thread() is not threading.main_thread():
            raised.wait(10)  # so the job is in flight when this thread raises
            real_forward(outs, h, layers)
            events.append("job done")
        elif submitted:
            events.append("raise")
            raised.set()
            raise interrupt
        else:
            real_forward(outs, h, layers)

    monkeypatch.setattr(ad, "offload", offload)
    monkeypatch.setattr(model, "_layers_forward", forward)
    with time_limit(60), pytest.raises(KeyboardInterrupt) as caught:
        train(gen_synthetic(GenConfig(d_in=D_IN), 0), TrainConfig(b=B, hidden=HIDDEN, e_fix=1, e_max=2, i_max=5))
    assert caught.value is interrupt
    assert events[:2] == ["raise", "job done"]
    assert threading.active_count() == threads_before
    monkeypatch.undo()
    assert_later_step_is_sequential(monkeypatch)


@pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
def test_a_thread_starts_only_when_a_job_is_handed_off(monkeypatch, wide):
    """At the default shapes no job reaches OFFLOAD_MIN_SIZE and train()
    starts no thread; a wide train() starts the one helper thread, which
    is gone when it returns."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    if wide:
        train(gen_synthetic(GenConfig(d_in=D_IN), 0), TrainConfig(b=B, hidden=HIDDEN, e_fix=1, e_max=1, i_max=2))
    else:
        train(gen_synthetic(GenConfig(), 0), TrainConfig(e_fix=1, e_max=2, i_max=5))
    assert len(started) == (1 if wide else 0)
    assert all(t.name.startswith("openset_ssl.helper") and not t.is_alive() for t in started)


def assert_later_step_is_sequential(monkeypatch):
    """A wide step with the helper gives the sequential step's gradients."""
    _, step = wide_step()
    with ad.helper_thread():
        threaded = step(2)
    monkeypatch.setattr(model, "OFFLOAD_MIN_SIZE", SEQUENTIAL)
    sequential = step(2)
    assert all(np.array_equal(got, want) for got, want in zip(threaded, sequential))


def test_steps_under_fast_thread_switching_equal_the_sequential_step(monkeypatch):
    """With the interpreter switching threads every microsecond, the
    helper's forward and backward jobs interleave with this thread at
    every point they can; the gradients are the sequential step's each
    time."""
    _, step = wide_step()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with time_limit(60), ad.helper_thread():
            threaded = [step(epoch) for epoch in (1, 2, 2)]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(model, "OFFLOAD_MIN_SIZE", SEQUENTIAL)
    for epoch, grads in zip((1, 2, 2), threaded):
        assert all(np.array_equal(got, want) for got, want in zip(grads, step(epoch)))


def test_wrong_width_batch_raises_before_any_job_is_queued(monkeypatch):
    """The pseudo-inlier batch comes last in a self-training step's
    forward plan; its wrong width is found before the gated batches
    ahead of it are computed or handed to the helper."""
    params, _ = wide_step()
    rng = np.random.default_rng(1)
    x, y, u = rng.normal(size=(B, D_IN)), np.arange(B) % K, rng.normal(size=(MU * B, D_IN))
    jobs, forwards = [], []
    monkeypatch.setattr(ad, "offload", lambda fn, *args: jobs.append(fn))
    monkeypatch.setattr(model, "_layers_forward", lambda *args: forwards.append(args))
    cfg = TrainConfig(b=B, mu=MU, hidden=HIDDEN, e_fix=1)
    with ad.helper_thread(), pytest.raises(DimensionError, match=rf"expected input of shape \[B, {D_IN}\]"):
        loss_all(params, x, y, u, rng.normal(size=(MU * B, D_IN + 1)), cfg, rng, 2)
    assert jobs == [] and forwards == []


@pytest.mark.parametrize("epoch", [1, 2], ids=["warmup", "selftrain"])
def test_step_peaks_no_higher_than_sequential_plus_one_weight_and_one_activation(monkeypatch, epoch):
    """While the helper computes a weight gradient, this thread holds its
    [hidden, hidden] buffer and computes the [rows, hidden] input
    gradient; a step may peak higher than the sequential step by those
    two arrays and no more."""
    _, step = wide_step()
    with monkeypatch.context() as mp:
        mp.setattr(model, "OFFLOAD_MIN_SIZE", SEQUENTIAL)
        step(epoch)
        sequential = traced_peak_bytes(lambda: step(epoch))
    with ad.helper_thread():
        step(epoch)
        threaded = traced_peak_bytes(lambda: step(epoch))
    rows = MU * B
    assert threaded <= sequential + 8 * (HIDDEN[1] * HIDDEN[1] + rows * HIDDEN[1])


def test_offload_outside_a_helper_block_runs_at_once():
    out = np.zeros(3)
    wait = ad.offload(np.add, np.ones(3), 1.0, out)
    assert np.array_equal(out, [2.0, 2.0, 2.0])
    assert wait() is None

    def fail():
        raise MemoryError("no room")

    with pytest.raises(MemoryError, match="no room"):
        ad.offload(fail)

