"""Fixed reference work that measures the host's speed, and a clock
that converts measured host seconds into nominal host seconds.

The benchmark runs on a shared host whose speed moves under it: on a
2-vCPU shared Xeon VM the same code runs at one of two speeds about 1.5×
apart, switching every few seconds, and the share of slow time drifts
over minutes.  A run of 20 seconds cannot average that away: the raw
throughput of ten runs spread by up to a third of its median.

:func:`slowdown` times four small fixed kernels, one for each kind of
work the simulator does — interpreter arithmetic, an interpreter event
loop (a binary heap, slotted objects, a dict of counters, a seeded random
stream), numpy vector operations and zlib compression — and returns how
many times slower they ran than on the nominal host.  Over the same
stretches of host time, 20-second windows of the corrected throughput
spread between a quarter and a half as much as the raw one, on each
workload tried; no single kernel did as well on all of them.

:class:`HostClock` samples the slowdown about every
:data:`SAMPLE_INTERVAL_S` of a timed call and converts each stretch
between two samples into nominal seconds, so that ``sim_s_per_s`` counts
simulated body-seconds per nominal host second.  Inside a call it samples
when one of :data:`TICKS` returns (each body's or member's run, each
cohort shard's encoding); the time it spends sampling there is not
counted.

The kernels are part of the benchmark, not of the program under test: no
change to ``src/`` can make them faster or slower.  numpy is imported on
the first measurement, not at import, so that its import stays inside
the program's set-up time.
"""

from __future__ import annotations

import functools
import gc
import heapq
import importlib
import random
import time
import zlib

#: Passes per measurement; for each kernel the fastest pass counts.
PASSES = 3
#: Seconds the four kernels' fastest passes take together on the nominal
#: host: the 2-vCPU shared Xeon VM (Python 3.11, numpy 2.4) in its fast
#: state.  Only a scale: every figure is compared with the parent's on
#: the same host.
NOMINAL_S = 0.024

#: Seconds of a timed call between two samples of the slowdown.
SAMPLE_INTERVAL_S = 0.5
#: A call that ends this soon after a sample is not sampled again.
RESAMPLE_AFTER_S = 0.05
#: ``(module, class or None, attribute)``: functions whose return inside
#: a timed call is a chance to sample.  Patched like the tracing wrappers:
#: on the stock class, or in the namespace of the module that calls them.
TICKS = (
    ("repro.netsim.simulator", "BodyNetworkSimulator", "run"),
    ("repro.cohort.engine", None, "encode_shard"),
)

_ARITHMETIC_STEPS = 60_000
_EVENTS = 8_000
_NODES = 50
_VECTOR_LENGTH = 60_000
_VECTOR_PASSES = 5
_COMPRESS_BYTES = 150_000


class _Node:
    __slots__ = ("name", "period", "energy", "count")

    def __init__(self, name, period):
        self.name = name
        self.period = period
        self.energy = 0.0
        self.count = 0


def _arithmetic():
    total = 0
    for i in range(_ARITHMETIC_STEPS):
        total += (i * i) % 7
    return total


def _events():
    rng = random.Random(1)
    nodes = [_Node(f"n{i}", 0.001 * (i + 1)) for i in range(_NODES)]
    queue = [(node.period, index) for index, node in enumerate(nodes)]
    heapq.heapify(queue)
    counts = {}
    for _ in range(_EVENTS):
        now, index = heapq.heappop(queue)
        node = nodes[index]
        node.energy += 1e-6 * node.period
        node.count += 1
        counts[node.name] = counts.get(node.name, 0) + 1
        jitter = node.period * rng.random() * 1e-3
        heapq.heappush(queue, (now + node.period + jitter, index))
    return len(counts)


class _Inputs:
    """The vector kernel's input and buffers and the bytes to compress,
    made once on first use; the buffers keep the kernel from allocating,
    so that sampling does not raise the peak resident set."""

    numpy = None

    @classmethod
    def ready(cls):
        if cls.numpy is None:
            import numpy

            rng = numpy.random.default_rng(0)
            cls.vector = rng.random(_VECTOR_LENGTH)
            cls.work = numpy.empty_like(cls.vector)
            cls.running = numpy.empty_like(cls.vector)
            cls.data = rng.integers(0, 16, _COMPRESS_BYTES,
                                    dtype=numpy.uint8).tobytes()
            cls.numpy = numpy


def _vector():
    numpy, work, running = _Inputs.numpy, _Inputs.work, _Inputs.running
    total = 0.0
    for _ in range(_VECTOR_PASSES):
        work[:] = _Inputs.vector
        work.sort()
        numpy.cumsum(work, out=running)
        numpy.divide(running, -running[-1], out=running)
        numpy.exp(running, out=running)
        total += float(running.sum())
    return total


def _compress():
    return len(zlib.compress(_Inputs.data, 6))


KERNELS = (_arithmetic, _events, _vector, _compress)


def kernel_seconds(passes=PASSES):
    """Wall time of each kernel's fastest of *passes* passes.

    The garbage collector is off meanwhile, so that a sample taken inside
    a timed call neither runs a collection the program would have paid
    for nor leaves one behind.
    """
    _Inputs.ready()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = [float("inf")] * len(KERNELS)
        for _ in range(passes):
            for index, kernel in enumerate(KERNELS):
                started = time.perf_counter()
                kernel()
                best[index] = min(best[index],
                                  time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


def slowdown():
    """How many times slower than nominal the host runs right now."""
    return sum(kernel_seconds()) / NOMINAL_S


class HostClock:
    """Times calls in host seconds and in nominal host seconds.

    The slowdown is sampled when the clock is made, at the end of every
    timed call and, inside a call, at a :meth:`tick` that comes at least
    :data:`SAMPLE_INTERVAL_S` after the last sample.  A stretch between
    two samples counts its host seconds divided by the mean slowdown of
    its two ends as nominal seconds.
    """

    def __init__(self):
        self.slowdown = slowdown()
        self.timing = False
        self.mark = self.wall = self.nominal = 0.0

    def start(self):
        self.timing = True
        self.wall = self.nominal = 0.0
        self.mark = time.perf_counter()

    def tick(self):
        """Sample inside a timed call, if the last sample is old enough."""
        if self.timing and (time.perf_counter() - self.mark
                            >= SAMPLE_INTERVAL_S):
            self._sample()

    def stop(self):
        """End the timed call; returns its ``(host s, nominal s)``."""
        if time.perf_counter() - self.mark >= RESAMPLE_AFTER_S:
            self._sample()
        else:   # sampled just now: the short tail keeps that slowdown
            stretch = time.perf_counter() - self.mark
            self.wall += stretch
            self.nominal += stretch / self.slowdown
        self.timing = False
        return self.wall, self.nominal

    def _sample(self):
        stretch = time.perf_counter() - self.mark
        before = self.slowdown
        self.slowdown = slowdown()
        self.wall += stretch
        self.nominal += stretch / ((before + self.slowdown) / 2.0)
        self.mark = time.perf_counter()


def install_ticks(patches, clock):
    """Make each function of :data:`TICKS` tick *clock* when it returns."""

    def make(original):
        @functools.wraps(original)
        def ticking(*args, **kwargs):
            result = original(*args, **kwargs)
            clock.tick()
            return result
        return ticking

    for module_name, class_name, attribute in TICKS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        patches.replace(owner, attribute, make)
