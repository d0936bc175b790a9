"""Seeded inputs: the same ``--seed`` gives the same requests and schedule.

The program under test only ever sees what is generated here — suite
names with ``(n_queries, seed)`` to load, qids to serve, and (for the
open loop) the instants at which to send them.
"""

from __future__ import annotations

import numpy as np

#: Zipf exponent of query popularity in ``gw_open_zipf``
ZIPF_S = 1.1


def suite_seed(seed: int, round_index: int) -> int:
    """The suite seed of one round: rounds of a run see different
    queries, so the deterministic metrics average over more of them; a
    traced round reuses its untraced twin's ``round_index``."""
    return seed * 16 + round_index


def served_stream(tenants: tuple[str, ...], qids: dict[str, list[str]],
                  start: int, count: int) -> list[tuple[str, str]]:
    """``count`` fresh requests, tenants alternating, from each tenant's
    qid list beginning at per-tenant offset ``start``."""
    stream = []
    for position in range(count):
        tenant = tenants[position % len(tenants)]
        stream.append((tenant, qids[tenant][start + position // len(tenants)]))
    return stream


def _rng(seed: int, round_index: int, purpose: int) -> np.random.Generator:
    """One independent stream per (run seed, round, purpose); the
    warm-up passes ``segment=-1``, hence the ``+ 1`` at the call sites."""
    return np.random.default_rng([seed, round_index, purpose])


def poisson_due_times(seed: int, round_index: int, segment: int,
                      count: int, rate_per_s: float) -> list[float]:
    """Arrival offsets (s from segment start) of a Poisson process.

    Conditioned on exactly ``count`` arrivals in ``count / rate_per_s``
    seconds — i.e. sorted uniforms — so every segment offers the same
    rate over the same span and only the spacing is random.
    """
    span_s = count / rate_per_s
    return np.sort(_rng(seed, round_index, 2 * (segment + 1) + 1).uniform(
        0.0, span_s, size=count)).tolist()


def zipf_stream(tenants: tuple[str, ...], qids: dict[str, list[str]],
                pool: int, seed: int, round_index: int, segment: int,
                count: int) -> list[tuple[str, str]]:
    """``count`` requests, tenants alternating, each query drawn by
    popularity rank ~ Zipf(``ZIPF_S``) from the tenant's first ``pool``
    queries — a few hot queries repeat, the tail arrives once."""
    weights = 1.0 / np.arange(1, pool + 1) ** ZIPF_S
    ranks = _rng(seed, round_index, 2 * (segment + 1)).choice(
        pool, size=count, p=weights / weights.sum())
    return [(tenants[position % len(tenants)],
             qids[tenants[position % len(tenants)]][int(rank)])
            for position, rank in enumerate(ranks)]
