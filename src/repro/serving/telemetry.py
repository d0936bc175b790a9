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


class Telemetry:
    """Thread-safe counters and samples for one gateway instance.

    Parameters
    ----------
    max_samples:
        Bound on the retained latency / queue-wait / queue-depth sample
        lists so a long-lived gateway cannot grow without limit; once
        full, new samples overwrite the oldest (each list is its own
        ring buffer).  Counters and the batch-size histogram are exact
        regardless.

    Because the sample lists are rings, the latency/queue-wait/queue-depth
    percentiles in :meth:`snapshot` are **windowed** over the most
    recent ``max_samples`` observations — they are not lifetime
    statistics.  Counters, by contrast, are lifetime-exact; pair them
    with the snapshot's ``uptime_s`` (or deltas across ``snapshot_seq``)
    to derive rates.
    """

    def __init__(self, max_samples: int = 100_000):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._started_at = time.monotonic()
        self._snapshot_seq = 0
        self._lock = threading.Lock()
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._batch_sizes: Counter[int] = Counter()
        self._queue_depths = _Ring(max_samples)
        self._latencies_s = _Ring(max_samples)
        self._queue_waits_s = _Ring(max_samples)
        self._queue_wait_sum_s = 0.0
        self._queue_wait_count = 0
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._catalog_swaps: Counter[str] = Counter()
        self._worker_restarts = 0
        self._slice_retries = 0
        self._inline_fallbacks = 0
        self._batch_quarantines = 0
        self._quarantined_requests = 0
        self._deadline_timeouts = 0
        self._shed_requests: Counter[str] = Counter()
        self._faults_injected: Counter[str] = Counter()
        self._degrade_transitions: Counter[str] = Counter()
        self._energy_j: dict[str, float] = {}
        self._carbon_g: dict[str, float] = {}
        self._budget_transitions: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_admission(self, queue_depth: int) -> None:
        """One request accepted into the queue (depth *after* enqueue)."""
        with self._lock:
            self._admitted += 1
            self._queue_depths.push(float(queue_depth))

    def record_rejection(self) -> None:
        """One request bounced by admission control."""
        with self._lock:
            self._rejected += 1

    def record_flush(self, batch_size: int,
                     queue_waits_s: Sequence[float] = ()) -> None:
        """One micro-batch cut and dispatched; ``queue_waits_s`` is each
        of its requests' enqueue-to-dequeue wait."""
        with self._lock:
            self._batch_sizes[int(batch_size)] += 1
            for wait_s in queue_waits_s:
                self._queue_waits_s.push(wait_s)
            self._queue_wait_sum_s += sum(queue_waits_s)
            self._queue_wait_count += len(queue_waits_s)

    def record_plan_lookup(self, hit: bool) -> None:
        """One plan-cache probe (only recorded when the cache is enabled)."""
        with self._lock:
            if hit:
                self._plan_cache_hits += 1
            else:
                self._plan_cache_misses += 1

    def record_catalog_swap(self, tenant: str) -> None:
        """One tenant's tool catalog hot-swapped by ``Gateway.update_catalog``."""
        with self._lock:
            self._catalog_swaps[tenant] += 1

    def record_worker_restart(self) -> None:
        """One worker-pool crash detected; an async respawn was kicked off."""
        with self._lock:
            self._worker_restarts += 1

    def record_slice_retry(self) -> None:
        """One failed worker slice resubmitted to the (possibly new) pool."""
        with self._lock:
            self._slice_retries += 1

    def record_inline_fallback(self) -> None:
        """One failed worker slice executed inline after retries ran out."""
        with self._lock:
            self._inline_fallbacks += 1

    def record_batch_quarantine(self, batch_size: int) -> None:
        """One failed micro-batch of ``batch_size`` requests re-processed
        request-by-request (both the batch and its requests are counted)."""
        with self._lock:
            self._batch_quarantines += 1
            self._quarantined_requests += int(batch_size)

    def record_deadline_timeout(self) -> None:
        """One request abandoned because its end-to-end deadline expired."""
        with self._lock:
            self._deadline_timeouts += 1

    def record_shed_request(self, tenant: str) -> None:
        """One request rejected because its tenant is shed (degradation)."""
        with self._lock:
            self._shed_requests[tenant] += 1

    def record_fault(self, hook: str) -> None:
        """One injected fault fired at ``hook`` (chaos harness only)."""
        with self._lock:
            self._faults_injected[hook] += 1

    def record_degradation(self, tenant: str, rung: str, direction: str) -> None:
        """One degradation-ladder transition (``direction`` is down|up)."""
        with self._lock:
            self._degrade_transitions[f"{tenant}:{direction}:{rung}"] += 1

    def record_energy(self, tenant: str, energy_j: float,
                      carbon_g: float) -> None:
        """One request's attributed energy/carbon (see ``repro.power``)."""
        with self._lock:
            self._energy_j[tenant] = (
                self._energy_j.get(tenant, 0.0) + float(energy_j))
            self._carbon_g[tenant] = (
                self._carbon_g.get(tenant, 0.0) + float(carbon_g))

    def record_budget_transition(self, scope: str, target: str,
                                 direction: str) -> None:
        """One budget-controller action: a tenant's ladder move
        (``scope`` is the tenant, ``target`` the new rung) or a device
        power-mode move (``scope="device"``, ``target`` the new mode);
        ``direction`` is down|up."""
        with self._lock:
            self._budget_transitions[f"{scope}:{direction}:{target}"] += 1

    def record_completion(self, latency_s: float, ok: bool = True) -> None:
        """One request finished (``latency_s`` is submit-to-response)."""
        with self._lock:
            if ok:
                self._completed += 1
                self._latencies_s.push(float(latency_s))
            else:
                self._failed += 1

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time metrics dict (JSON-serializable).

        Latency, queue-wait and queue-depth percentiles are **windowed**
        over the most recent ``max_samples`` observations (the sample
        rings), not the process lifetime; counters (and
        ``queue_wait_sum_s`` / ``queue_wait_count``) are lifetime-exact.
        ``uptime_s`` (monotonic seconds since construction) and
        ``snapshot_seq`` (incremented per snapshot) let scrapers compute
        rates and detect restarts between scrapes.
        """
        with self._lock:
            self._snapshot_seq += 1
            snapshot_seq = self._snapshot_seq
            uptime_s = time.monotonic() - self._started_at
            latencies = self._latencies_s.values()
            queue_waits = self._queue_waits_s.values()
            queue_wait_sum_s = self._queue_wait_sum_s
            queue_wait_count = self._queue_wait_count
            depths = self._queue_depths.values()
            sizes = dict(sorted(self._batch_sizes.items()))
            admitted, rejected = self._admitted, self._rejected
            completed, failed = self._completed, self._failed
            plan_hits, plan_misses = self._plan_cache_hits, self._plan_cache_misses
            catalog_swaps = dict(self._catalog_swaps)
            worker_restarts = self._worker_restarts
            slice_retries = self._slice_retries
            inline_fallbacks = self._inline_fallbacks
            batch_quarantines = self._batch_quarantines
            quarantined_requests = self._quarantined_requests
            deadline_timeouts = self._deadline_timeouts
            shed_requests = dict(self._shed_requests)
            faults_injected = dict(self._faults_injected)
            degrade_transitions = dict(self._degrade_transitions)
            energy_j = dict(self._energy_j)
            carbon_g = dict(self._carbon_g)
            budget_transitions = dict(self._budget_transitions)
        # sort each ring once; percentile() re-sorting a sorted list is linear
        latencies.sort()
        queue_waits.sort()
        n_batches = sum(sizes.values())
        plan_lookups = plan_hits + plan_misses
        n_batched = sum(size * count for size, count in sizes.items())
        return {
            "uptime_s": uptime_s,
            "snapshot_seq": snapshot_seq,
            "requests_admitted": admitted,
            "requests_rejected": rejected,
            "requests_completed": completed,
            "requests_failed": failed,
            "n_batches": n_batches,
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
            "queue_wait_sum_s": queue_wait_sum_s,
            "queue_wait_count": queue_wait_count,
            "plan_cache_hits": plan_hits,
            "plan_cache_misses": plan_misses,
            "plan_cache_hit_rate": (plan_hits / plan_lookups
                                    if plan_lookups else 0.0),
            "catalog_swaps": sum(catalog_swaps.values()),
            "catalog_swaps_by_tenant": catalog_swaps,
            "worker_restarts": worker_restarts,
            "slice_retries": slice_retries,
            "inline_fallbacks": inline_fallbacks,
            "batch_quarantines": batch_quarantines,
            "quarantined_requests": quarantined_requests,
            "deadline_timeouts": deadline_timeouts,
            "shed_requests": sum(shed_requests.values()),
            "shed_requests_by_tenant": shed_requests,
            "faults_injected": sum(faults_injected.values()),
            "faults_injected_by_hook": faults_injected,
            "degrade_transitions": sum(degrade_transitions.values()),
            "degrade_transitions_detail": degrade_transitions,
            "energy_j": sum(energy_j.values()),
            "energy_j_by_tenant": energy_j,
            "carbon_g": sum(carbon_g.values()),
            "carbon_g_by_tenant": carbon_g,
            "budget_transitions": sum(budget_transitions.values()),
            "budget_transitions_detail": budget_transitions,
        }
