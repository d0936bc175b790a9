"""The estimator every timing metric shares.

Machine speed in the sandbox drifts by 10-60 % on a seconds timescale
and is hit by short pre-emption spikes, so one long wall-clock run does
not repeat.  Work is therefore cut into short fixed-count *segments*,
each bracketed by one run of a fixed calibration kernel.  A segment's
speed factor is ``f = mean(kernel before, kernel after) / CAL_REF_MS``;
a calibrated rate is ``raw * f`` and a calibrated time ``raw / f``, i.e.
both are expressed in the seconds of a reference machine on which the
kernel takes ``CAL_REF_MS``.  A metric is the **median over segments**
of the per-segment calibrated statistic, reported with
``spread = IQR / median``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from bench_e2e.cpus import on_cpu

#: kernel time on the reference machine; never edited, like the kernel
CAL_REF_MS = 28.0
#: iterations of the kernel's numpy part
N_NUMPY = 600
#: bracketing calibrations further apart than this flag the segment
UNSTEADY_RATIO = 0.25


class CalibrationKernel:
    """The fixed unit of work machine speed is measured in.

    Two timed parts of about equal length, the two kinds of code the
    program under test spends its time in: elementwise numpy over small
    gathered blocks, and a random walk over 40 000 small dicts and
    strings.  A short untimed lead-in (string splitting, trigram sets)
    runs first and takes the cost of a thread that just woke up or just
    moved to ``cpu``.  The issue sketched a tight interpreter loop on
    integers (``s += i * i % 7``) instead; the slow phases of a shared
    host slow that loop by up to 1.6x while the program slows by 1.2x, so
    it over-corrects, and of every part tried it tracked all four
    workloads worst (README, Estimator).  Never edited: every committed
    number is in units of this kernel.

    ``cpu`` is the CPU the program under test is pinned to.  The slow
    phases come and go per virtual CPU, so a kernel timed on the other
    one says nothing about the program: :meth:`time_ms` moves the
    calling thread onto ``cpu`` for the run and back afterwards.
    """

    def __init__(self, cpu: int | None = None):
        self.cpu = cpu
        rng = np.random.default_rng(0)
        self._query = rng.standard_normal(384).astype(np.float32)
        self._bank = rng.standard_normal((6000, 384)).astype(np.float32)
        self._rows = [rng.integers(0, 6000, 40) for _ in range(N_NUMPY)]
        self._objects = [
            {"name": f"tool_{i}",
             "desc": f"description of tool number {i} " * 3,
             "params": [f"p{j}" for j in range(4)]}
            for i in range(40_000)]
        self._order = rng.permutation(len(self._objects)).tolist()[:16_000]
        self._text = " ".join(
            f"Turn on the {room} light in room {i} and set level {i % 7}"
            for i, room in enumerate(
                ["kitchen", "bedroom", "hall", "garage"] * 40))

    def _lead_in(self) -> int:
        seen: dict[str, int] = {}
        n = 0
        for _ in range(6):
            tokens = self._text.lower().split()
            for token in tokens:
                seen[token] = seen.get(token, 0) + 1
            grams = [token[i:i + 3] for token in tokens[:300]
                     for i in range(len(token) - 2)]
            n += len(set(grams))
        return n

    def _numpy(self) -> float:
        # elementwise only: a BLAS call would wake OpenBLAS's worker
        # threads, whose spin-wait then burns the second CPU (and shows
        # up as process CPU time) well into the segment that follows
        total = 0.0
        query = self._query
        for rows in self._rows:
            block = self._bank[rows]
            scores = (block * query).sum(axis=1)
            pooled = block.sum(axis=0)
            pooled /= np.sqrt((pooled * pooled).sum())
            total += float(pooled[int(scores.argmax())])
        return total

    def _objects_walk(self) -> int:
        n = 0
        objects = self._objects
        for i in self._order:
            entry = objects[i]
            n += len(entry["desc"]) + len(entry["params"])
            entry["name"].startswith("tool")
        return n

    def run(self) -> tuple[float, int]:
        """The timed parts; what they return pins them in a self-test."""
        return self._numpy(), self._objects_walk()

    def time_ms(self) -> float:
        """Milliseconds one run of the kernel takes right now on ``cpu``."""
        with on_cpu(self.cpu):
            self._lead_in()
            started = time.perf_counter()
            self.run()
            return (time.perf_counter() - started) * 1e3


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_spread(values: list[float]) -> tuple[float, float]:
    """``(median, IQR / median)`` — the form every metric is printed in."""
    if not values:
        return 0.0, 0.0
    median = statistics.median(values)
    if len(values) < 2 or median == 0.0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def speed_factor(cal_before: float, cal_after: float) -> float:
    """``f`` of one bracketed interval (> 1 on a slower-than-reference box)."""
    return (cal_before + cal_after) / 2.0 / CAL_REF_MS


@dataclass
class Segment:
    """One measured, calibration-bracketed slice of a round."""

    index: int
    requests: int
    failed: int
    #: perf_counter stamps; CLOCK_MONOTONIC, so comparable across processes
    started: float
    ended: float
    cpu_s: float
    #: per completed request, milliseconds
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    #: kernel milliseconds just before and just after the segment
    cal_before: float = CAL_REF_MS
    cal_after: float = CAL_REF_MS

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def completed(self) -> int:
        return self.requests - self.failed

    @property
    def f(self) -> float:
        return speed_factor(self.cal_before, self.cal_after)

    @property
    def unsteady(self) -> bool:
        """The machine changed speed across the segment: treat with care."""
        low, high = sorted((self.cal_before, self.cal_after))
        return (high - low) / low > UNSTEADY_RATIO

    @property
    def raw_req_per_s(self) -> float:
        return self.completed / self.wall_s

    def cal_req_per_s(self, pinned: bool = False) -> float:
        """Completed requests per calibrated second.

        ``pinned``: an open loop completes what its schedule offers, so
        its rate is set by the schedule's clock, not the machine's, and
        scaling it by ``f`` would only add the kernel's noise.
        """
        return self.raw_req_per_s * (1.0 if pinned else self.f)

    def cal_latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q) / self.f

    @property
    def cal_cpu_ms_per_req(self) -> float:
        return self.cpu_s * 1e3 / max(1, self.completed) / self.f
