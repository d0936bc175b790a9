"""A stopped serving stack is freed by reference counting alone.

Every shipped construction path runs here with the cyclic collector
disabled.  When the last reference drops, two laws hold:

* weakrefs to the gateway, the HTTP app, the tenant sessions, their
  agents and the embedder are dead at once — no generation-2
  collection is needed to release the Search Levels and the direction
  bank behind them;
* ``gc.collect()`` then finds no unreachable object of a ``repro``
  type, so no reference cycle runs through the package.

asyncio's own ``_SelectorSocketTransport`` self-cycle is stdlib; it
holds no ``repro`` object once a connection closes, so the second law
needs no exclusion for it.

A removed tenant is freed the same way on a server that keeps running
and sees no further traffic.
"""

from __future__ import annotations

import asyncio
import gc
import json
import weakref

import pytest

from repro import open_session
from repro.embedding.cache import CachedEmbedder
from repro.engines.testing import MockOpenAIServer
from repro.serving import Gateway, SessionManager
from repro.serving.http import AsgiServer, create_app
from repro.specs import (
    AgentSpec,
    BudgetSpec,
    EngineSpec,
    FaultPlan,
    HttpSpec,
    ObsSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
)
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
TENANT = "edgehome"
#: stalls and failed requests, both (``test_faults_fail_requests``)
FAULTS = FaultPlan(seed=1, slow_batch_rate=0.5, slow_batch_ms=1.0,
                   exception_rate=0.5)


def _repro_garbage() -> list[str]:
    """Collect with ``DEBUG_SAVEALL`` and name every ``repro`` type found."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                        for obj in gc.garbage
                        if type(obj).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def assert_freed(scenario) -> None:
    """Run ``scenario()`` with ``gc`` off; it returns ``{name: weakref}``
    and keeps no strong reference when it returns."""
    gc.collect()
    gc.disable()
    try:
        refs = scenario()
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        garbage = _repro_garbage()
    finally:
        gc.enable()
    assert alive == [], f"still alive without a collection: {alive}"
    assert garbage == [], f"reference cycles through: {garbage}"


def _serving_refs(gateway, embedder) -> dict:
    tenant = gateway.sessions.get(TENANT)
    return {
        "gateway": weakref.ref(gateway),
        "sessions": weakref.ref(gateway.sessions),
        "tenant": weakref.ref(tenant),
        "agent": weakref.ref(tenant.agent_for("lis-k3", MODEL, QUANT)),
        "levels": weakref.ref(tenant.runner.levels),
        "embedder": weakref.ref(embedder),
    }


def _serving_spec(**overrides) -> ServingSpec:
    fields = dict(
        tenants=(TenantSpec(TENANT, SuiteSpec(TENANT, n_queries=4)),),
        max_batch_size=4, default_scheme="lis-k3", default_model=MODEL,
        default_quant=QUANT)
    fields.update(overrides)
    return ServingSpec(**fields)


def serve_and_drop(spec: ServingSpec):
    """Boot ``open_session(spec).serve()``, serve every query twice
    (failures allowed), stop, and hand back weakrefs only."""
    def scenario() -> dict:
        embedder = CachedEmbedder()
        gateway = open_session(spec, embedder=embedder).serve()

        async def go():
            async with gateway:
                qids = [query.qid for query in
                        gateway.sessions.get(TENANT).suite.queries] * 2
                return await asyncio.gather(
                    *(gateway.submit(TENANT, qid) for qid in qids),
                    return_exceptions=True)

        outcomes = asyncio.run(go())
        assert len(outcomes) == 8
        return _serving_refs(gateway, embedder)

    return scenario


# ----------------------------------------------------------------------
# the offline path
# ----------------------------------------------------------------------
def test_session_run_is_freed():
    def scenario() -> dict:
        embedder = CachedEmbedder()
        session = open_session(TENANT, n_queries=4, embedder=embedder)
        run = session.run(AgentSpec("lis-k3", MODEL, QUANT))
        assert len(run.episodes) == 4
        agent = session.build_agent(AgentSpec("lis-k3", MODEL, QUANT))
        agent.run(session.suite.queries[0])
        return {"session": weakref.ref(session),
                "runner": weakref.ref(session.runner),
                "levels": weakref.ref(session.levels),
                "agent": weakref.ref(agent),
                "embedder": weakref.ref(embedder)}

    assert_freed(scenario)


# ----------------------------------------------------------------------
# Session.serve(): every gateway configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="plain"),
    pytest.param({"obs": ObsSpec(sink="memory")}, id="traced"),
    pytest.param({"plan_cache_size": 16}, id="plan-cache"),
    pytest.param({"faults": FAULTS}, id="faults"),
    pytest.param({"budget": BudgetSpec(energy_budget_j=1e-6,
                                       window_requests=1,
                                       settle_requests=1,
                                       interval_ms=1.0)}, id="budget"),
])
def test_stopped_gateway_is_freed(overrides):
    assert_freed(serve_and_drop(_serving_spec(**overrides)))


def test_faults_fail_requests():
    """The ``faults`` case above covers failed requests, not only stalls."""
    spec = _serving_spec(faults=FAULTS)

    async def go():
        async with open_session(spec, embedder=CachedEmbedder()).serve() as gw:
            return await asyncio.gather(
                *(gw.submit(TENANT, query.qid)
                  for query in gw.sessions.get(TENANT).suite.queries * 2),
                return_exceptions=True)

    outcomes = asyncio.run(go())
    assert any(isinstance(outcome, Exception) for outcome in outcomes)
    assert not all(isinstance(outcome, Exception) for outcome in outcomes)


# ----------------------------------------------------------------------
# the HTTP edge over loopback sockets
# ----------------------------------------------------------------------
async def _http(port: int, method: str, path: str,
                payload: dict | None = None) -> tuple[int, dict | str]:
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.1\r\nconnection: close\r\n"
                 f"content-length: {len(body)}\r\n\r\n".encode("latin-1")
                 + body)
    await writer.drain()
    reply = await asyncio.wait_for(reader.read(), timeout=30.0)
    writer.close()
    await writer.wait_closed()
    head, _, data = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    text = data.decode("utf-8")
    return status, (json.loads(text) if text.startswith("{") else text)


def test_http_app_is_freed():
    qid = load_suite(TENANT, n_queries=4).queries[0].qid

    def scenario() -> dict:
        embedder = CachedEmbedder()
        sessions = SessionManager(embedder=embedder)
        app = create_app(Gateway(sessions, config=_serving_spec(tenants=())))
        refs = {}

        async def go():
            async with app, AsgiServer(app, http=HttpSpec(port=0)) as server:
                port = server.port
                assert (await _http(port, "PUT", "/v1/tenants/home", {
                    "suite": TENANT, "n_queries": 4}))[0] == 201
                assert (await _http(port, "PUT", "/v1/tenants/gone", {
                    "suite": TENANT, "n_queries": 4}))[0] == 201
                refs["removed"] = weakref.ref(sessions.get("gone"))
                for tenant in ("home", "gone"):
                    status, reply = await _http(port, "POST", "/v1/call", {
                        "tenant": tenant, "qid": qid})
                    assert status == 200, reply
                assert (await _http(port, "DELETE", "/v1/tenants/gone"))[0] \
                    == 200
                status, reply = await _http(port, "PUT", "/v1/tenants/home", {
                    "catalog": {"name": TENANT, "variant": "compressed"}})
                assert status == 200 and reply["swapped"], reply
                assert (await _http(port, "POST", "/v1/call", {
                    "tenant": "home", "qid": qid}))[0] == 200
                assert (await _http(port, "GET", "/v1/tenants/home/status"))[0] \
                    == 200
                assert (await _http(port, "GET", "/metrics"))[0] == 200
                home = sessions.get("home")
                refs["tenant"] = weakref.ref(home)
                refs["agent"] = weakref.ref(
                    home.agent_for("lis-k3", MODEL, QUANT))

        asyncio.run(go())
        refs.update(app=weakref.ref(app), gateway=weakref.ref(app.gateway),
                    sessions=weakref.ref(sessions),
                    embedder=weakref.ref(embedder))
        return refs

    assert_freed(scenario)


# ----------------------------------------------------------------------
# an engine-backed tenant
# ----------------------------------------------------------------------
def test_openai_http_tenant_is_freed():
    with MockOpenAIServer() as server:
        engine = EngineSpec(name="openai_http", base_url=server.base_url)
        assert_freed(serve_and_drop(_serving_spec(tenants=(TenantSpec(
            TENANT, SuiteSpec(TENANT, n_queries=4), engine=engine),))))


# ----------------------------------------------------------------------
# a removed tenant on a server that keeps running
# ----------------------------------------------------------------------
def test_deregistered_tenant_is_freed_on_an_idle_server():
    """After ``deregister`` with no further traffic, nothing the
    scheduler or its worker kept from the last batch holds the removed
    session."""
    spec = _serving_spec()

    async def go():
        async with open_session(spec, embedder=CachedEmbedder()).serve() as gw:
            session = gw.sessions.get(TENANT)
            await gw.submit(TENANT, session.suite.queries[0].qid)
            ref = weakref.ref(session)
            agent = weakref.ref(session.agent_for("lis-k3", MODEL, QUANT))
            del session
            gw.sessions.deregister(TENANT)
            # the worker thread may still be returning from the batch it
            # just delivered: give refcounting a moment to free the
            # session; the full collection after it only tells the two
            # failure modes apart
            for _ in range(200):
                if ref() is None and agent() is None:
                    break
                await asyncio.sleep(0.005)
            before = ref() is None and agent() is None
            gc.collect()
            return before, ref() is None and agent() is None

    gc.collect()
    gc.disable()
    try:
        freed_at_once, freed = asyncio.run(go())
    finally:
        gc.enable()
    assert freed, "the removed tenant outlived a full collection"
    assert freed_at_once, "the removed tenant needed the cyclic collector"
