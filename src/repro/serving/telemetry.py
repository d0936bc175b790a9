"""Serving metrics: queue depth, batch sizes, latency percentiles.

All record methods are lock-protected — admissions happen on the event
loop thread while flushes and completions are recorded from the batch
worker — and :meth:`Telemetry.snapshot` returns the plain-dict view
behind :meth:`Gateway.metrics` and ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from collections.abc import Sequence

from repro.obs.prometheus import FAMILIES, join_labels


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Implemented locally (nearest-rank with interpolation, like
    ``numpy.percentile``'s default) so telemetry snapshots stay cheap and
    dependency-free; returns 0.0 for an empty sample.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


def _process_memory() -> tuple[int, int]:
    """``(resident, peak resident)`` bytes of this process from
    ``/proc/self/status``; ``(0, 0)`` where that file does not exist."""
    try:
        with open("/proc/self/status", "rb") as status:
            text = status.read()
    except OSError:
        return 0, 0
    # each line reads "VmRSS:\t  123456 kB"
    return tuple(int(text.split(key, 1)[1].split(None, 1)[0]) * 1024
                 for key in (b"VmRSS:", b"VmHWM:"))


class _Ring:
    """Fixed-capacity sample buffer: overwrites oldest once full."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._samples: list[float] = []
        self._cursor = 0

    def push(self, value: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity

    def values(self) -> list[float]:
        return list(self._samples)


#: Bound on each retained latency / queue-wait / queue-depth sample
#: list, so a long-lived gateway cannot grow without limit; once full,
#: new samples overwrite the oldest (each list is its own ring buffer).
MAX_SAMPLES = 100_000


class Telemetry:
    """Thread-safe counters and samples for one gateway instance.

    The sample lists are rings of :data:`MAX_SAMPLES`, so the
    latency/queue-wait/queue-depth percentiles in :meth:`snapshot` are
    **windowed** over the most recent observations — they are not
    lifetime statistics.  Counters and the batch-size histogram, by
    contrast, are lifetime-exact; pair them with the snapshot's
    ``uptime_s`` (or deltas across ``snapshot_seq``) to derive rates.
    """

    def __init__(self):
        self._started_at = time.monotonic()
        self._snapshot_seq = 0
        self._lock = threading.Lock()
        #: one cell per counter row of FAMILIES: label tuple -> total
        self._counters: dict[str, dict[tuple[str, ...], float]] = {
            family.key: {} for family in FAMILIES if family.kind == "counter"}
        self._batch_sizes: Counter[int] = Counter()
        self._queue_depths = _Ring(MAX_SAMPLES)
        self._latencies_s = _Ring(MAX_SAMPLES)
        self._queue_waits_s = _Ring(MAX_SAMPLES)
        self._queue_wait_sum_s = 0.0
        self._queue_wait_count = 0
        self._memory_bytes = (0, 0)
        self._embedder_cache = (0, 0.0)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _add(self, key: str, *labels: str, amount: float = 1) -> None:
        """Bump one counter cell; the caller holds the lock."""
        cell = self._counters[key]
        cell[labels] = cell.get(labels, 0) + amount

    def record_admission(self, queue_depth: int) -> None:
        """One request accepted into the queue (depth *after* enqueue)."""
        with self._lock:
            self._add("requests_admitted")
            self._queue_depths.push(float(queue_depth))

    def record_rejection(self) -> None:
        """One request bounced by admission control."""
        with self._lock:
            self._add("requests_rejected")

    def record_flush(self, batch_size: int,
                     queue_waits_s: Sequence[float] = ()) -> None:
        """One micro-batch cut and dispatched; ``queue_waits_s`` is each
        of its requests' enqueue-to-dequeue wait."""
        with self._lock:
            self._add("n_batches")
            self._batch_sizes[int(batch_size)] += 1
            for wait_s in queue_waits_s:
                self._queue_waits_s.push(wait_s)
            self._queue_wait_sum_s += sum(queue_waits_s)
            self._queue_wait_count += len(queue_waits_s)

    def record_plan_lookup(self, hit: bool) -> None:
        """One plan-cache probe (only recorded when the cache is enabled)."""
        with self._lock:
            self._add("plan_cache_hits" if hit else "plan_cache_misses")

    def record_catalog_swap(self, tenant: str) -> None:
        """One tenant's tool catalog hot-swapped by ``Gateway.update_catalog``."""
        with self._lock:
            self._add("catalog_swaps", tenant)

    def record_deadline_timeout(self) -> None:
        """One request abandoned because its end-to-end deadline expired."""
        with self._lock:
            self._add("deadline_timeouts")

    def record_shed_request(self, tenant: str) -> None:
        """One request rejected because its tenant is shed (budget ladder)."""
        with self._lock:
            self._add("shed_requests", tenant)

    def record_fault(self, hook: str) -> None:
        """One injected fault fired at ``hook`` (chaos harness only)."""
        with self._lock:
            self._add("faults_injected", hook)

    def record_energy(self, tenant: str, energy_j: float,
                      carbon_g: float) -> None:
        """One request's attributed energy/carbon (see ``repro.power``)."""
        with self._lock:
            self._add("energy_j", tenant, amount=float(energy_j))
            self._add("carbon_g", tenant, amount=float(carbon_g))

    def record_budget_transition(self, scope: str, target: str,
                                 direction: str) -> None:
        """One budget-controller ladder move: ``scope`` is the tenant,
        ``target`` the new rung, ``direction`` down|up."""
        with self._lock:
            self._add("budget_transitions", scope, direction, target)

    def record_process_memory(self) -> None:
        """Read the process's resident and peak resident bytes now (what
        ``Gateway.metrics_text`` does before each render)."""
        memory = _process_memory()
        with self._lock:
            self._memory_bytes = memory

    def record_embedder_cache(self, cache_info: dict) -> None:
        """The session embedder's :meth:`CachedEmbedder.cache_info` now
        (what ``Gateway.metrics_text`` does before each render)."""
        lookups = cache_info["hits"] + cache_info["misses"]
        hit_rate = cache_info["hits"] / lookups if lookups else 0.0
        with self._lock:
            self._embedder_cache = (cache_info["size"], hit_rate)

    def record_completion(self, latency_s: float, ok: bool = True) -> None:
        """One request finished (``latency_s`` is submit-to-response)."""
        with self._lock:
            if ok:
                self._add("requests_completed")
                self._latencies_s.push(float(latency_s))
            else:
                self._add("requests_failed")

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time metrics dict (JSON-serializable).

        Latency, queue-wait and queue-depth percentiles are **windowed**
        over the most recent :data:`MAX_SAMPLES` observations (the
        sample rings), not the process lifetime; counters (and
        ``queue_wait_sum_s`` / ``queue_wait_count``) are lifetime-exact.
        ``uptime_s`` (monotonic seconds since construction) and
        ``snapshot_seq`` (incremented per snapshot) let scrapers compute
        rates and detect restarts between scrapes.
        """
        with self._lock:
            self._snapshot_seq += 1
            out = {
                "uptime_s": time.monotonic() - self._started_at,
                "snapshot_seq": self._snapshot_seq,
            }
            for family in FAMILIES:
                cell = self._counters.get(family.key)
                if cell is None:  # a gauge: derived below
                    continue
                out[family.key] = sum(cell.values())
                if family.labels:
                    out[family.breakdown_key] = {
                        join_labels(labels): value
                        for labels, value in cell.items()}
            latencies = self._latencies_s.values()
            queue_waits = self._queue_waits_s.values()
            out["queue_wait_sum_s"] = self._queue_wait_sum_s
            out["queue_wait_count"] = self._queue_wait_count
            depths = self._queue_depths.values()
            sizes = dict(sorted(self._batch_sizes.items()))
            (out["process_resident_bytes"],
             out["process_peak_resident_bytes"]) = self._memory_bytes
            (out["embedder_cache_entries"],
             out["embedder_cache_hit_rate"]) = self._embedder_cache
        # sort each ring once; percentile() re-sorting a sorted list is linear
        latencies.sort()
        queue_waits.sort()
        n_batches = out["n_batches"]
        plan_lookups = out["plan_cache_hits"] + out["plan_cache_misses"]
        n_batched = sum(size * count for size, count in sizes.items())
        out.update({
            "mean_batch_size": (n_batched / n_batches) if n_batches else 0.0,
            "max_batch_size": max(sizes) if sizes else 0,
            "batch_size_histogram": {str(size): count for size, count in sizes.items()},
            "queue_depth_max": max(depths) if depths else 0.0,
            "queue_depth_mean": (sum(depths) / len(depths)) if depths else 0.0,
            "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
            "latency_p95_ms": percentile(latencies, 95.0) * 1e3,
            "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
            "latency_mean_ms": (sum(latencies) / len(latencies) * 1e3
                                if latencies else 0.0),
            "queue_wait_p50_ms": percentile(queue_waits, 50.0) * 1e3,
            "queue_wait_p95_ms": percentile(queue_waits, 95.0) * 1e3,
            "plan_cache_hit_rate": (out["plan_cache_hits"] / plan_lookups
                                    if plan_lookups else 0.0),
        })
        return out
