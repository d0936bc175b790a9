"""One joule per request: the laws joining the episode and the energy
meter, and the two tables that keep the board at MAXN on ``q4_K_M``.

(a) On a lower nvpmodel mode's device, ``default`` and ``lis-k3`` on
    ``hermes2-pro-8b``/``q4_K_M`` cost these joules and seconds per
    request against MAXN, over every query of each suite.  15W spends
    2–9% more joules on every cell for about twice the time; 30W saves
    1–6% for 22–34% more time.  At a fixed grid intensity gCO₂ follows
    joules, so the gateway has no power-mode axis and serves at MAXN; a
    re-fit of ``POWER_MODES`` shows up here as a diff and reopens that
    decision.
(a') CarbonCall's other knob, quantization: ``lis-k3`` on
    ``hermes2-pro-8b`` costs these joules per request under each quant
    against ``q4_K_M``, at these success rates, over every query of each
    suite.  ``q8_0`` costs 40–47% more; ``q4_1`` and ``q4_0`` save at most
    3% (``q4_0`` on bfcl) and cost more elsewhere, while ``q4_0`` loses
    .07–.11 success.  So no rung switches quantization, nothing steers
    on grid intensity, and gCO₂ is joules times one constant; a re-fit of
    the quant profiles shows up here as a diff.
(b) Every ``EnergyRecord.energy_j`` is its episode's ``energy_j`` bit for
    bit, and a tenant's ``/metrics`` joules are the sum of its episodes'.
    Served at a non-default ``BudgetSpec.intensity_g_per_kwh``, every
    ``EnergyRecord.carbon_g`` is its episode's
    ``energy_j / J_PER_KWH * intensity`` bit for bit, and the tenant's
    ``/metrics`` grams are the sum of the records'.
(c) ``LoadReport.failures`` holds (b) as its ``ENERGY`` check; a request
    abandoned at its deadline is still metered, but its episode is not
    kept, so a deadline switches the check off.
"""

from __future__ import annotations

import asyncio
import math
import threading
from functools import cache

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.hardware.power_modes import orin_in_mode
from repro.obs.prometheus import escape_label_value
from repro.power.meter import J_PER_KWH
from repro.registry import SUITES
from repro.serving import DeadlineExceededError, Gateway, SessionManager
from repro.serving.loadgen import run_load
from repro.specs import POWER_MODE_NAMES, BudgetSpec, ServingSpec
from repro.suites import load_suite

SCHEME, MODEL, QUANT = "lis-k3", "hermes2-pro-8b", "q4_K_M"
N_QUERIES = 6
CONFIG = ServingSpec(default_scheme=SCHEME, default_model=MODEL,
                     default_quant=QUANT)
#: law (b)'s grid intensity, away from BudgetSpec's 400.0 default, under a
#: joule cap no request reaches (the ladder never moves)
INTENSITY_G_PER_KWH = 250.0
METERED_CONFIG = CONFIG.replace(budget=BudgetSpec(
    energy_budget_j=1e9, intensity_g_per_kwh=INTENSITY_G_PER_KWH))

#: law (a), per (suite, scheme): MAXN's joules and seconds per request,
#: then each lower mode's joules and seconds as ratios against MAXN
MODE_TABLE = {
    ("bfcl", "default"): {
        "MAXN": (877.9, 26.06), "30W": (0.991, 1.342), "15W": (1.093, 2.255)},
    ("bfcl", "lis-k3"): {
        "MAXN": (171.6, 7.07), "30W": (0.948, 1.237), "15W": (1.047, 1.972)},
    ("browser", "default"): {
        "MAXN": (540.3, 20.76), "30W": (0.939, 1.234), "15W": (1.023, 1.963)},
    ("browser", "lis-k3"): {
        "MAXN": (458.2, 20.02), "30W": (0.936, 1.217), "15W": (1.031, 1.918)},
    ("edgehome", "default"): {
        "MAXN": (485.5, 15.59), "30W": (0.977, 1.306), "15W": (1.073, 2.158)},
    ("edgehome", "lis-k3"): {
        "MAXN": (182.7, 7.69), "30W": (0.944, 1.230), "15W": (1.042, 1.952)},
    ("geoengine", "default"): {
        "MAXN": (1293.1, 45.26), "30W": (0.959, 1.270), "15W": (1.050, 2.061)},
    ("geoengine", "lis-k3"): {
        "MAXN": (681.4, 29.57), "30W": (0.937, 1.220), "15W": (1.033, 1.924)},
}

#: law (a'), per suite, ``lis-k3`` on ``hermes2-pro-8b``: ``q4_K_M``'s
#: joules per request and each other quant's joules as a ratio to it,
#: each with its success rate
QUANT_TABLE = {
    "bfcl": {"q4_K_M": (171.6, 0.813), "q8_0": (1.407, 0.796),
             "q4_1": (1.035, 0.796), "q4_0": (0.970, 0.713)},
    "browser": {"q4_K_M": (458.2, 0.752), "q8_0": (1.467, 0.800),
                "q4_1": (1.057, 0.774), "q4_0": (1.083, 0.643)},
    "edgehome": {"q4_K_M": (182.7, 0.852), "q8_0": (1.449, 0.883),
                 "q4_1": (1.047, 0.813), "q4_0": (1.024, 0.765)},
    "geoengine": {"q4_K_M": (681.4, 0.557), "q8_0": (1.401, 0.600),
                  "q4_1": (0.996, 0.557), "q4_0": (1.014, 0.487)},
}


@cache
def _suite(name: str):
    return load_suite(name, n_queries=N_QUERIES)


@cache
def _runner(name: str) -> ExperimentRunner:
    """A runner over every query of ``name`` (230 for each suite)."""
    return ExperimentRunner(load_suite(name), embedder=CachedEmbedder())


@cache
def _per_request(name: str, scheme: str, mode: str) -> tuple[float, float]:
    """Mean joules and seconds per request of ``scheme`` on ``name``, run
    on ``mode``'s device."""
    episodes = _runner(name).run(
        scheme, MODEL, QUANT, device=orin_in_mode(mode)).episodes
    return (math.fsum(episode.energy_j for episode in episodes) / len(episodes),
            math.fsum(episode.time_s for episode in episodes) / len(episodes))


@pytest.mark.parametrize("mode", POWER_MODE_NAMES)
@pytest.mark.parametrize("name", sorted(SUITES.names()))
def test_each_power_mode_costs_the_pinned_joules_and_seconds(name, mode):
    """Law (a): what a lower mode costs, the table behind serving at MAXN."""
    for scheme in ("default", "lis-k3"):
        energy_j, time_s = _per_request(name, scheme, mode)
        if mode == "MAXN":
            got = (round(energy_j, 1), round(time_s, 2))
        else:
            maxn_j, maxn_s = _per_request(name, scheme, "MAXN")
            got = (round(energy_j / maxn_j, 3), round(time_s / maxn_s, 3))
        assert got == MODE_TABLE[name, scheme][mode], (name, scheme, mode)


@cache
def _quantized(name: str, quant: str) -> tuple[float, float]:
    """Mean joules per request and success rate of ``lis-k3`` on
    ``name`` under ``quant``, on the agent's own device."""
    episodes = _runner(name).run(SCHEME, MODEL, quant).episodes
    return (math.fsum(episode.energy_j for episode in episodes) / len(episodes),
            sum(episode.success for episode in episodes) / len(episodes))


@pytest.mark.parametrize("quant", ["q4_K_M", "q8_0", "q4_1", "q4_0"])
@pytest.mark.parametrize("name", sorted(SUITES.names()))
def test_each_quantization_costs_the_pinned_joules(name, quant):
    """Law (a'): what a quantization switch costs, the table behind
    serving on ``q4_K_M`` with gCO₂ at one constant intensity."""
    energy_j, success = _quantized(name, quant)
    if quant == QUANT:
        got = (round(energy_j, 1), round(success, 3))
    else:
        got = (round(energy_j / _quantized(name, QUANT)[0], 3),
               round(success, 3))
    assert got == QUANT_TABLE[name][quant], (name, quant)


@cache
def _served(name: str):
    """Serve every query of ``name`` once, concurrently, at law (b)'s
    grid intensity; returns (episodes by qid, the tenant's energy
    records, the drained metrics snapshot, the ``/metrics`` text)."""
    suite = _suite(name)

    async def serve():
        sessions = SessionManager(embedder=CachedEmbedder())
        session = sessions.register("t", suite)
        async with Gateway(sessions, config=METERED_CONFIG) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("t", query) for query in suite.queries))
        return ({response.episode.qid: response.episode
                 for response in responses},
                list(session.energy_window), gateway.metrics(),
                gateway.metrics_text())

    return asyncio.run(serve())


# the one mode the gateway serves in (law (a) says why)
@pytest.mark.parametrize("mode", ["MAXN"])
@pytest.mark.parametrize("name", sorted(SUITES.names()))
def test_the_meter_reads_each_episodes_joules(name, mode):
    """Law (b): one joule ledger, from the episode to ``/metrics``, and
    gCO₂ as those joules times the spec's one grid intensity."""
    episodes, records, metrics, text = _served(name)
    assert sorted(record.qid for record in records) == sorted(episodes)
    for record in records:
        energy_j = episodes[record.qid].energy_j
        assert record.energy_j == energy_j
        assert record.carbon_g == energy_j / J_PER_KWH * INTENSITY_G_PER_KWH
    total = metrics["energy_j_by_tenant"]["t"]
    assert total == pytest.approx(
        math.fsum(episode.energy_j for episode in episodes.values()),
        rel=1e-12)
    label = escape_label_value("t")
    lines = text.splitlines()
    assert f'repro_energy_joules_total{{tenant="{label}"}} {total!r}' in lines
    prefix = f'repro_carbon_grams_total{{tenant="{label}"}} '
    [grams] = [float(line[len(prefix):]) for line in lines
               if line.startswith(prefix)]
    assert grams == pytest.approx(
        math.fsum(record.carbon_g for record in records), rel=1e-12)


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
