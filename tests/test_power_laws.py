"""One joule per request: the laws joining the power mode, the episode
and the energy meter.

(a) An episode served while the meter holds power mode *M* equals the
    sequential runner's episode on ``orin_in_mode(M)``, bit for bit, for
    every suite and every mode of ``MODE_LADDER``, and its response
    records *M*.
(b) Every ``EnergyRecord.energy_j`` is its episode's ``energy_j`` bit for
    bit, and a tenant's ``/metrics`` joules are the sum of its episodes'.
(c) ``LoadReport.failures`` holds (b) as its ``ENERGY`` check; a request
    abandoned at its deadline is still metered, but its episode is not
    kept, so a deadline switches the check off.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
from functools import cache

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.hardware.power_modes import orin_in_mode
from repro.obs.prometheus import escape_label_value
from repro.power import MODE_LADDER
from repro.registry import SUITES
from repro.serving import DeadlineExceededError, Gateway, SessionManager
from repro.serving.loadgen import run_load
from repro.specs import ServingSpec
from repro.suites import load_suite

SCHEME, MODEL, QUANT = "lis-k3", "hermes2-pro-8b", "q4_K_M"
N_QUERIES = 6
CONFIG = ServingSpec(default_scheme=SCHEME, default_model=MODEL,
                     default_quant=QUANT)


@cache
def _suite(name: str):
    return load_suite(name, n_queries=N_QUERIES)


@cache
def _served(name: str, mode: str):
    """Serve every query of ``name`` once, concurrently, with the meter
    in ``mode``; returns (episodes by qid, the tenant's energy records,
    the drained metrics snapshot, the ``/metrics`` text, the responses'
    power modes)."""
    suite = _suite(name)

    async def serve():
        sessions = SessionManager(embedder=CachedEmbedder())
        session = sessions.register("t", suite)
        async with Gateway(sessions, config=CONFIG) as gateway:
            gateway.power_meter.set_power_mode(mode)
            responses = await asyncio.gather(*(
                gateway.submit("t", query) for query in suite.queries))
        return ({response.episode.qid: response.episode
                 for response in responses},
                list(session.energy_window), gateway.metrics(),
                gateway.metrics_text(),
                [response.power_mode for response in responses])

    return asyncio.run(serve())


@pytest.mark.parametrize("mode", MODE_LADDER)
@pytest.mark.parametrize("name", sorted(SUITES.names()))
def test_served_in_a_mode_equals_the_runner_on_that_modes_device(name, mode):
    """Law (a): the power mode reaches the episode, and only through the
    device it runs on."""
    episodes, _, _, _, modes = _served(name, mode)
    assert modes == [mode] * N_QUERIES
    reference = ExperimentRunner(_suite(name), embedder=CachedEmbedder()).run(
        SCHEME, MODEL, QUANT, device=orin_in_mode(mode)).episodes
    assert len(episodes) == len(reference) == N_QUERIES
    for episode in reference:
        assert dataclasses.asdict(episodes[episode.qid]) == \
            dataclasses.asdict(episode), (name, mode, episode.qid)


@pytest.mark.parametrize("mode", MODE_LADDER)
@pytest.mark.parametrize("name", sorted(SUITES.names()))
def test_the_meter_reads_each_episodes_joules(name, mode):
    """Law (b): one joule ledger, from the episode to ``/metrics``."""
    episodes, records, metrics, text, _ = _served(name, mode)
    assert sorted(record.qid for record in records) == sorted(episodes)
    for record in records:
        assert record.energy_j == episodes[record.qid].energy_j
        assert record.power_mode == mode
    total = metrics["energy_j_by_tenant"]["t"]
    assert total == pytest.approx(
        math.fsum(episode.energy_j for episode in episodes.values()),
        rel=1e-12)
    label = escape_label_value("t")
    assert f'repro_energy_joules_total{{tenant="{label}"}} {total!r}' \
        in text.splitlines()


def test_load_report_checks_the_energy_ledger():
    """Law (c): a sound run passes ``ENERGY``; a run whose metered joules
    lost one episode's does not."""
    sessions = SessionManager(embedder=CachedEmbedder())
    sessions.register("home", _suite("edgehome"))
    sessions.register("geo", _suite("geoengine"))
    report = run_load(Gateway(sessions, config=CONFIG), 16, 4)
    assert report.failures(CONFIG) == []
    by_tenant = report.gateway_metrics["energy_j_by_tenant"]
    (key, episode), *_ = report.episodes.items()
    by_tenant[key[0]] -= episode.energy_j
    [failure] = report.failures(CONFIG)
    assert failure.startswith(f"ENERGY: tenant {key[0]!r} metered")
    # a deadline makes a metered request without a kept episode expected
    assert report.failures(CONFIG.replace(timeout_ms=1e6)) == []


def test_a_request_abandoned_at_its_deadline_is_still_metered():
    suite = _suite("edgehome")
    query = suite.queries[0]
    reference = ExperimentRunner(suite, embedder=CachedEmbedder()).run(
        SCHEME, MODEL, QUANT, n_queries=1).episodes[0]

    async def serve():
        sessions = SessionManager(embedder=CachedEmbedder())
        sessions.register("t", suite)
        gateway = Gateway(sessions, config=CONFIG)
        async with gateway:
            agent = sessions.get("t").agent_for(SCHEME, MODEL, QUANT)
            release = threading.Event()
            run = agent.run_planned_many

            def held(*args):
                release.wait(timeout=60)
                return run(*args)

            agent.run_planned_many = held
            try:
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit("t", query, timeout_ms=50.0)
            finally:
                release.set()
        return gateway.metrics()

    metrics = asyncio.run(serve())
    assert metrics["requests_completed"] == 0
    assert metrics["energy_j_by_tenant"] == {"t": reference.energy_j}
