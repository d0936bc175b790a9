"""Integration tests for the HTTP front door (``repro.serving.http``).

Every endpoint is exercised through the in-process
:class:`asgi_client.ASGITestClient` — the app coroutine runs directly on
the test's event loop, no sockets — plus each row of the
:data:`~repro.serving.http.app.ERROR_STATUS` table: 429 (queue full),
503 (shed tenant), 504 (deadline), 404 (unknown tenant / qid / route)
and 400 (validation).  ``/metrics`` output goes through the same strict
exposition parser the observability tests use.
"""

from __future__ import annotations

import asyncio

import pytest

from asgi_client import ASGITestClient, lifespan_shutdown, lifespan_startup
from repro.core.episode import EpisodeResult
from repro.embedding.cache import CachedEmbedder
from repro.obs.trace import request_trace_id
from repro.power import BudgetController
from repro.serving import Gateway, SessionManager
from repro.serving.http import create_app
from repro.serving.http.app import ERROR_STATUS, METRICS_CONTENT_TYPE
from repro.specs import BudgetSpec, ServingSpec
from repro.suites import load_suite
from repro.tools.catalog import load_catalog
from test_obs_prometheus import _parse_exposition
from test_serving_equivalence import _hold_batch_worker

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=6)


def make_app(suite, **overrides):
    sessions = SessionManager(embedder=CachedEmbedder())
    sessions.register("home", suite)
    kwargs = dict(max_batch_size=4,
                  default_scheme="lis-k3", default_model=MODEL,
                  default_quant=QUANT)
    kwargs.update(overrides)
    return create_app(Gateway(sessions, config=ServingSpec(**kwargs)))


def step_rung(gateway, direction: int, tenant: str = "home"):
    """Move the tenant one rung, the way the budget controller does."""
    controller = BudgetController(
        gateway.sessions, BudgetSpec(energy_budget_j=1.0),
        meter=gateway.power_meter, telemetry=gateway.telemetry,
        tracer=gateway.tracer)
    return controller._step(gateway.sessions.get(tenant), direction)


def serve(suite, scenario, **overrides):
    """Boot app + client, run ``scenario(client, app)``, tear down."""

    async def go():
        app = make_app(suite, **overrides)
        async with app:
            return await scenario(ASGITestClient(app), app)

    return asyncio.run(go())


# ----------------------------------------------------------------------
# POST /v1/call
# ----------------------------------------------------------------------
def test_call_by_qid(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        return await client.post("/v1/call",
                                 {"tenant": "home", "qid": qid})

    response = serve(suite, scenario)
    assert response.status == 200
    payload = response.json()
    assert payload["tenant"] == "home"
    assert payload["batch_size"] >= 1
    assert payload["latency_s"] > 0.0
    assert "power_mode" not in payload
    # the deterministic trace id rides in body and header alike
    assert payload["trace_id"] == request_trace_id("home", qid, 0)
    assert response.trace_id == payload["trace_id"]
    episode = EpisodeResult.from_dict(payload["episode"])
    assert episode.qid == qid
    assert isinstance(episode.success, bool)
    assert episode.steps


def test_call_by_exact_query_text(suite):
    query = suite.queries[1]

    async def scenario(client, app):
        return await client.post("/v1/call",
                                 {"tenant": "home", "query": query.text})

    response = serve(suite, scenario)
    assert response.status == 200
    assert response.json()["episode"]["qid"] == query.qid


def test_call_repeats_get_distinct_trace_ids(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        first = await client.post("/v1/call", {"tenant": "home", "qid": qid})
        second = await client.post("/v1/call", {"tenant": "home", "qid": qid})
        return first, second

    first, second = serve(suite, scenario)
    assert first.trace_id == request_trace_id("home", qid, 0)
    assert second.trace_id == request_trace_id("home", qid, 1)
    assert first.trace_id != second.trace_id


def test_call_honors_scheme_override(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        return await client.post(
            "/v1/call", {"tenant": "home", "qid": qid, "scheme": "lis-k1"})

    response = serve(suite, scenario)
    assert response.status == 200
    episode = EpisodeResult.from_dict(response.json()["episode"])
    # k=1 retrieval presents exactly one tool per step (default is k=3)
    assert all(step.n_tools_presented == 1 for step in episode.steps)


# ----------------------------------------------------------------------
# the error table, row by row
# ----------------------------------------------------------------------
def test_error_table_orders_subclasses_before_bases():
    """The first matching row wins, so a subclass listed after its base
    would be unreachable — pin the order."""
    types = [exc_type for exc_type, _ in ERROR_STATUS]
    for index, exc_type in enumerate(types):
        for later in types[index + 1:]:
            assert not issubclass(later, exc_type) or later is exc_type, \
                f"{later.__name__} is shadowed by {exc_type.__name__}"


def test_queue_full_maps_to_429(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        # capacity 1: both submits land in the same loop turn, before
        # the scheduler cuts the first, so the second bounces
        return await asyncio.gather(
            client.post("/v1/call", {"tenant": "home", "qid": qid}),
            client.post("/v1/call", {"tenant": "home",
                                     "qid": suite.queries[1].qid}))

    first, second = serve(suite, scenario, queue_capacity=1,
                          max_batch_size=8)
    assert first.status == 200
    assert second.status == 429
    error = second.json()["error"]
    assert error["type"] == "QueueFullError"
    assert error["status"] == 429
    assert error["capacity"] == 1
    assert error["depth"] >= 1
    assert error["per_tenant"] == {"home": 1}
    # admission rejections still carry the request's trace id
    assert second.trace_id == request_trace_id(
        "home", suite.queries[1].qid, 0)


def test_shed_tenant_maps_to_503(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        step_rung(app.gateway, +1)
        step_rung(app.gateway, +1)
        shed = await client.post("/v1/call", {"tenant": "home", "qid": qid})
        step_rung(app.gateway, -1)
        step_rung(app.gateway, -1)
        recovered = await client.post("/v1/call",
                                      {"tenant": "home", "qid": qid})
        return shed, recovered

    shed, recovered = serve(suite, scenario)
    assert shed.status == 503
    assert shed.json()["error"]["type"] == "TenantShedError"
    assert recovered.status == 200


def test_deadline_maps_to_504(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        # the batch worker is held inside the episode run, so the
        # request is still executing when its deadline expires
        _, release = _hold_batch_worker(app.gateway, "home")
        try:
            return await client.post(
                "/v1/call", {"tenant": "home", "qid": qid, "timeout_ms": 5})
        finally:
            release.set()

    response = serve(suite, scenario)
    assert response.status == 504
    error = response.json()["error"]
    assert error["type"] == "DeadlineExceededError"
    assert "deadline" in error["message"]
    assert response.trace_id == request_trace_id("home", qid, 0)


def test_unknown_tenant_maps_to_404(suite):
    async def scenario(client, app):
        return await client.post(
            "/v1/call", {"tenant": "ghost", "qid": suite.queries[0].qid})

    response = serve(suite, scenario)
    assert response.status == 404
    assert response.json()["error"]["type"] == "UnknownTenantError"


def test_unknown_qid_maps_to_404(suite):
    async def scenario(client, app):
        return await client.post("/v1/call",
                                 {"tenant": "home", "qid": "no-such-query"})

    response = serve(suite, scenario)
    assert response.status == 404


@pytest.mark.parametrize("body, match", [
    ({"qid": "x"}, "tenant"),                                 # missing tenant
    ({"tenant": "home"}, "exactly one"),                      # neither qid/query
    ({"tenant": "home", "qid": "a", "query": "b"}, "exactly one"),
    ({"tenant": "home", "qid": "a", "bogus": 1}, "unknown field"),
    ({"tenant": "home", "qid": 7}, "'qid' must be a str"),
    ({"tenant": "home", "qid": "a", "timeout_ms": "soon"}, "timeout_ms"),
    ({"tenant": "home", "qid": "a", "scheme": 3}, "'scheme' must be a str"),
])
def test_call_validation_maps_to_400(suite, body, match):
    async def scenario(client, app):
        return await client.post("/v1/call", body)

    response = serve(suite, scenario)
    assert response.status == 400
    error = response.json()["error"]
    assert error["status"] == 400
    assert match in error["message"]


def test_malformed_json_maps_to_400(suite):
    async def scenario(client, app):
        broken = await client.post("/v1/call", body=b"{not json")
        non_object = await client.post("/v1/call", body=b"[1, 2]")
        not_utf8 = await client.post("/v1/call", body=b'{"tenant": "\xff"}')
        return broken, non_object, not_utf8

    broken, non_object, not_utf8 = serve(suite, scenario)
    assert broken.status == 400
    assert non_object.status == 400
    assert "JSON object" in non_object.json()["error"]["message"]
    assert not_utf8.status == 400
    error = not_utf8.json()["error"]
    assert error["type"] == "BadRequestError"
    assert error["message"].startswith("request body is not valid UTF-8 JSON: ")


def test_unrouted_path_maps_to_404(suite):
    async def scenario(client, app):
        return await client.get("/v2/nope")

    response = serve(suite, scenario)
    assert response.status == 404
    assert response.json()["error"]["type"] == "NotFound"


def test_wrong_method_maps_to_405_with_allow_header(suite):
    async def scenario(client, app):
        health = await client.post("/healthz", {})
        tenant = await client.request("PATCH", "/v1/tenants/home")
        return health, tenant

    health, tenant = serve(suite, scenario)
    assert health.status == 405
    assert health.headers["allow"] == "GET"
    assert tenant.status == 405
    assert set(tenant.headers["allow"].split(", ")) == \
        {"GET", "PUT", "DELETE"}


# ----------------------------------------------------------------------
# tenant administration
# ----------------------------------------------------------------------
def test_list_and_get_tenants(suite):
    async def scenario(client, app):
        listing = await client.get("/v1/tenants")
        one = await client.get("/v1/tenants/home")
        missing = await client.get("/v1/tenants/ghost")
        return listing, one, missing

    listing, one, missing = serve(suite, scenario)
    assert listing.status == 200
    tenants = listing.json()["tenants"]
    assert [t["name"] for t in tenants] == ["home"]
    assert one.status == 200
    summary = one.json()
    assert summary["suite"] == "edgehome"
    assert summary["catalog"] == "edgehome"
    assert summary["n_queries"] == len(suite.queries)
    assert summary["n_tools"] == len(suite.catalog)
    assert summary["catalog_version"] == suite.catalog.version
    assert missing.status == 404


def test_put_registers_new_tenant_and_serves_it(suite):
    bfcl_qid = load_suite("bfcl", n_queries=4).queries[0].qid

    async def scenario(client, app):
        created = await client.put(
            "/v1/tenants/team-b", {"suite": "bfcl", "n_queries": 4})
        served = await client.post("/v1/call",
                                   {"tenant": "team-b", "qid": bfcl_qid})
        listing = await client.get("/v1/tenants")
        return created, served, listing

    created, served, listing = serve(suite, scenario)
    assert created.status == 201
    assert created.json()["suite"] == "bfcl"
    assert created.json()["n_queries"] == 4
    assert served.status == 200
    assert [t["name"] for t in listing.json()["tenants"]] == \
        ["home", "team-b"]


def test_put_hot_swaps_existing_tenant_catalog(suite):
    compressed = load_catalog("edgehome", variant="compressed")

    async def scenario(client, app):
        swapped = await client.put(
            "/v1/tenants/home",
            {"catalog": {"name": "edgehome", "variant": "compressed"}})
        summary = await client.get("/v1/tenants/home")
        return swapped, summary

    swapped, summary = serve(suite, scenario)
    assert swapped.status == 200
    assert swapped.json() == {"name": "home", "swapped": True,
                              "catalog_version": compressed.version}
    assert summary.json()["catalog_variant"] == "compressed"
    assert summary.json()["catalog_version"] == compressed.version


@pytest.mark.parametrize("path, body, match", [
    ("/v1/tenants/home", {}, "hot-swap"),               # no-op PUT on existing
    ("/v1/tenants/home", {"suite": "bfcl"}, "cannot be changed"),
    ("/v1/tenants/new", {"suite": "no-such-suite"}, "no-such-suite"),
    ("/v1/tenants/new", {}, "suite"),                   # new tenant, no suite
    ("/v1/tenants/new", {"suite": "bfcl", "bogus": 1}, "unknown field"),
    ("/v1/tenants/new", {"suite": "bfcl", "catalog": 9}, "catalog"),
])
def test_put_tenant_validation_maps_to_400(suite, path, body, match):
    async def scenario(client, app):
        return await client.put(path, body)

    response = serve(suite, scenario)
    assert response.status == 400
    assert match in response.json()["error"]["message"]


def test_delete_tenant(suite):
    async def scenario(client, app):
        deleted = await client.delete("/v1/tenants/home")
        gone = await client.get("/v1/tenants/home")
        again = await client.delete("/v1/tenants/home")
        return deleted, gone, again

    deleted, gone, again = serve(suite, scenario)
    assert deleted.status == 200
    assert deleted.json() == {"name": "home", "deleted": True}
    assert gone.status == 404
    assert again.status == 404


def test_delete_then_put_resets_the_ladder(suite):
    """A removed tenant's rung must not outlive it: the next tenant of
    that name starts at ``full`` and steps down from there, serving its
    own catalog at every rung."""

    async def scenario(client, app):
        gateway = app.gateway
        assert step_rung(gateway, +1) == "reduced-k"
        await client.delete("/v1/tenants/home")
        created = await client.put(
            "/v1/tenants/home", {"suite": "geoengine", "n_queries": 4})
        rung = gateway.rung("home")
        stepped = step_rung(gateway, +1)
        return created, rung, stepped, gateway.sessions.get("home").suite

    created, rung, stepped, new_suite = serve(suite, scenario)
    assert created.status == 201
    assert rung == "full"
    assert stepped == "reduced-k"
    assert new_suite.catalog.name == "geoengine"
    assert new_suite.catalog.variant == "full"


def test_delete_then_put_unsheds_the_name(suite):
    async def scenario(client, app):
        step_rung(app.gateway, +1)  # scheme override
        step_rung(app.gateway, +1)  # shed
        await client.delete("/v1/tenants/home")
        await client.put("/v1/tenants/home",
                         {"suite": "edgehome", "n_queries": 4})
        status = await client.get("/v1/tenants/home/status")
        served = await client.post(
            "/v1/call", {"tenant": "home", "qid": suite.queries[0].qid})
        return status, served

    status, served = serve(suite, scenario)
    assert status.json()["shed"] is False
    assert status.json()["scheme_override"] is None
    assert served.status == 200


def test_delete_then_put_restarts_trace_ids_and_plan_cache(suite):
    """DELETE drops everything kept for the tenant: the successor's
    first request is repeat 0 (its trace id, hence its
    sampling, must not depend on its predecessor's traffic) and a
    plan-cache miss (same suite, same catalog version: the predecessor's
    plans were reachable, so the new tenant's recommender was never
    asked)."""
    qid = suite.queries[0].qid

    async def scenario(client, app):
        for _ in range(2):
            await client.post("/v1/call", {"tenant": "home", "qid": qid})
        await client.delete("/v1/tenants/home")
        await client.put("/v1/tenants/home",
                         {"suite": "edgehome", "n_queries": 6})
        before = app.gateway.metrics()
        first = await client.post("/v1/call", {"tenant": "home", "qid": qid})
        return before, first, app.gateway.metrics()

    before, first, after = serve(suite, scenario, plan_cache_size=64)
    assert (before["plan_cache_misses"], before["plan_cache_hits"]) == (1, 1)
    assert first.trace_id == request_trace_id("home", qid, 0)
    assert (after["plan_cache_misses"], after["plan_cache_hits"]) == (2, 1)


def test_tenant_status_reports_rung_shed_and_cost(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        await client.post("/v1/call", {"tenant": "home", "qid": qid})
        healthy = await client.get("/v1/tenants/home/status")
        step_rung(app.gateway, +1)
        step_rung(app.gateway, +1)
        shed = await client.get("/v1/tenants/home/status")
        missing = await client.get("/v1/tenants/ghost/status")
        return healthy, shed, missing

    healthy, shed, missing = serve(suite, scenario)
    assert healthy.status == 200
    status = healthy.json()
    assert status["rung"] == "full"
    assert status["shed"] is False
    assert status["scheme_override"] is None
    assert status["catalog_version"] == suite.catalog.version
    assert status["cost"]["requests"] == 1
    assert status["cost"]["total_tokens"] > 0
    assert shed.json()["shed"] is True
    assert missing.status == 404


def test_tenant_status_reports_budget_and_power_fields(suite):
    """The status endpoint surfaces the carbon/power subsystem: the
    rung and the spent window against the budget (no power mode: the
    board serves at MAXN)."""
    qid = suite.queries[0].qid
    budget = BudgetSpec(energy_budget_j=1e-6, window_requests=1,
                        settle_requests=1, intensity_g_per_kwh=500.0,
                        interval_ms=600_000.0)

    async def scenario(client, app):
        await client.post("/v1/call", {"tenant": "home", "qid": qid})
        before = await client.get("/v1/tenants/home/status")
        # one controller tick: the impossible budget steps the tenant
        # down a rung
        app.gateway.budget.tick()
        after = await client.get("/v1/tenants/home/status")
        return before, after

    before, after = serve(suite, scenario, budget=budget)
    assert before.status == 200
    status = before.json()
    assert status["rung"] == "full"
    assert set(status) == {"name", "catalog_version", "rung", "shed",
                           "scheme_override", "cost", "budget"}
    assert status["budget"]["window_requests"] == 1
    assert status["budget"]["window_energy_j"] > 0.0
    assert status["budget"]["window_carbon_g"] > 0.0
    assert status["budget"]["energy_budget_j"] == 1e-6

    degraded = after.json()
    assert degraded["rung"] == "reduced-k"


# ----------------------------------------------------------------------
# health + metrics
# ----------------------------------------------------------------------
def test_healthz_ok_while_running(suite):
    async def scenario(client, app):
        return await client.get("/healthz")

    response = serve(suite, scenario)
    assert response.status == 200
    health = response.json()
    assert health["status"] == "ok"
    assert health["scheduler_running"] is True
    assert health["tenants"] == ["home"]
    assert set(health) == {"status", "scheduler_running", "pending", "tenants"}


def test_healthz_unavailable_before_startup(suite):
    async def go():
        app = make_app(suite)  # gateway never started
        return await ASGITestClient(app).get("/healthz")

    response = asyncio.run(go())
    assert response.status == 503
    assert response.json()["status"] == "unavailable"


def test_metrics_parse_with_strict_exposition_parser(suite):
    qid = suite.queries[0].qid

    async def scenario(client, app):
        await client.post("/v1/call", {"tenant": "home", "qid": qid})
        return await client.get("/metrics")

    response = serve(suite, scenario)
    assert response.status == 200
    assert response.headers["content-type"] == METRICS_CONTENT_TYPE
    families = _parse_exposition(response.text)
    assert families["repro_requests_completed_total"] == [({}, 1.0)]
    assert families["repro_requests_admitted_total"] == [({}, 1.0)]
    assert families["repro_batch_size_count"] == [({}, 1.0)]


# ----------------------------------------------------------------------
# lifespan protocol (what an external ASGI server drives)
# ----------------------------------------------------------------------
def test_lifespan_starts_and_stops_the_gateway(suite):
    async def go():
        app = make_app(suite)
        handle = await lifespan_startup(app)
        running = app.gateway.scheduler.running
        response = await ASGITestClient(app).post(
            "/v1/call", {"tenant": "home", "qid": suite.queries[0].qid})
        await lifespan_shutdown(handle)
        return running, response, app.gateway.scheduler.running

    running, response, stopped = asyncio.run(go())
    assert running is True
    assert response.status == 200
    assert stopped is False


def test_startup_is_idempotent_over_a_prestarted_gateway(suite):
    async def go():
        app = make_app(suite)
        await app.gateway.start()
        async with app:  # must not double-start
            return await ASGITestClient(app).get("/healthz")

    assert asyncio.run(go()).status == 200
