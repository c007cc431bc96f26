"""Reference clock: wall time converted to a fixed host speed.

The shared host the benchmark runs on changes speed by up to twice for
stretches of tens of seconds to minutes, on every core at once and in CPU
time as much as in wall time, so a whole run can land in a slow stretch
and neither a longer run nor the fastest operation of a run steadies the
figures. The benchmark therefore times, next to the program, a fixed
reference kernel of its own (small numpy calls, a BLAS matmul and csv
text of float reprs, the kinds of work the workloads do) and
reports each interval as the time it would take on a host where the
kernel takes REF_KERNEL_MS: measured seconds x REF_KERNEL_MS / kernel ms.
The kernel never calls the program, so a change to the program moves the
converted times as much as it moves the wall times.

The host also flickers between speeds several times a second, so samples
are taken every SAMPLE_EVERY_S, inside the program's operations too, and
each sample gives the host speed from halfway since the previous sample to
halfway to the next: a training step takes the speed of the sample nearest
to it, and a long interval the time-weighted mean of the samples over it.
(A median over a long interval would jump between the fast and the slow
speed as their shares cross one half.) The time spent in samples is left
out of every interval, so calibrating inside an operation does not add to
its time.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import signal
import time
from statistics import median

import numpy as np

# The kernel took about 0.26 ms in fast stretches and up to 0.5 ms in slow
# ones on the 2-vCPU build host (numpy 2.4, OpenBLAS on one thread), so
# converted times are of the size of wall times there.
REF_KERNEL_MS = 0.35
KERNEL_CALLS = 16  # per sample; the sample is their median
SAMPLE_EVERY_S = 0.1  # between samples taken inside an operation

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((64, 64)) * 0.1 for _ in range(3)]
_X = _rng.standard_normal((64, 64))
_WIDE = _rng.standard_normal((128, 128)) * 0.1
_ROWS = _rng.standard_normal((3, 16))


def kernel() -> float:
    """About a third each: small numpy calls, a BLAS matmul, and Python
    text work (csv rows of float reprs written and parsed back)."""
    h = _X
    for w in _SMALL:
        h = np.maximum(h @ w, 0.0)
    e = np.exp(h - h.max(axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    for w in reversed(_SMALL):
        g = (g * (g > 0)) @ w.T
    acc = float((_WIDE @ _WIDE).sum()) + float(g.sum())
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in _ROWS:
        writer.writerow([repr(float(v)) for v in row])
    for row in csv.reader(io.StringIO(buf.getvalue())):
        acc += sum(float(v) for v in row)
    return acc


class RefClock:
    """Samples of the reference kernel over one benchmark run."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_ms: list[float] = []
        self._bounds: list[float] = []  # halfway between consecutive samples
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        times = []
        with np.errstate(all="ignore"):  # whatever error state the interrupted program set
            for _ in range(KERNEL_CALLS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
        if self.ends:
            self._bounds.append((self.ends[-1] + start) / 2)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_ms.append(median(times) * 1e3)
        self._sampling = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_EVERY_S while the block runs. A timer
        signal interrupts the program between two Python bytecodes, so the
        samples need no hook in the program and go on inside long calls."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sampled_s(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] spent taking samples."""
        lo, hi = bisect.bisect_right(self.ends, start), bisect.bisect_left(self.starts, end)
        return sum(min(self.ends[k], end) - max(self.starts[k], start) for k in range(lo, hi))

    def ref_s(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed, samples left out.
        Each sample gives the host speed from halfway since the previous
        sample to halfway to the next."""
        total, t = 0.0, start
        k = bisect.bisect_right(self._bounds, start)
        while t < end:
            piece_end = min(end, self._bounds[k]) if k < len(self._bounds) else end
            own = max(0.0, min(self.ends[k], piece_end) - max(self.starts[k], t))
            total += (piece_end - t - own) * REF_KERNEL_MS / self.kernel_ms[k]
            t, k = piece_end, k + 1
        return total
