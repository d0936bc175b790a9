"""The HTTP front door: a plain-ASGI application over one Gateway.

``create_app(gateway)`` returns an ``app(scope, receive, send)``
callable — no FastAPI, no starlette — wiring the gateway's whole
operator surface to HTTP:

====== ============================== =======================================
Method Path                           What it does
====== ============================== =======================================
POST   ``/v1/call``                   Serve one request (qid or exact text)
GET    ``/v1/tenants``                List registered tenants
GET    ``/v1/tenants/{name}``         One tenant's serving summary
PUT    ``/v1/tenants/{name}``         Register a tenant / hot-swap catalog
DELETE ``/v1/tenants/{name}``         Remove a tenant (``Gateway.remove_tenant``)
GET    ``/v1/tenants/{name}/status``  Degradation rung + cost snapshot
GET    ``/healthz``                   Gateway + worker-pool liveness
GET    ``/metrics``                   Prometheus text exposition
====== ============================== =======================================

Serving exceptions map to status codes **once**, in :data:`ERROR_STATUS`
— the same table the tests exercise row by row — and every response that
went through :meth:`Gateway.submit` carries the request's deterministic
trace id in an ``X-Trace-Id`` header (success and failure alike).
"""

from __future__ import annotations

import math

from repro.serving.batcher import QueueFullError, SchedulerStoppedError
from repro.serving.gateway import DeadlineExceededError, Gateway, TenantShedError
from repro.serving.http.limits import RateLimiter
from repro.serving.http.router import Router
from repro.serving.http.wire import (
    BadRequestError,
    check_fields,
    parse_json,
    read_body,
    require_field,
    send_json,
    send_text,
)
from repro.serving.session import UnknownTenantError
from repro.specs import CatalogSpec, SuiteSpec

#: The error-mapping table: first matching row wins, so subclasses
#: (``BadRequestError`` < ``ValueError``, ``UnknownTenantError`` <
#: ``KeyError``) must precede their bases.  Anything unmatched is a 500.
ERROR_STATUS: tuple[tuple[type[BaseException], int], ...] = (
    (QueueFullError, 429),
    (DeadlineExceededError, 504),
    (TenantShedError, 503),
    (SchedulerStoppedError, 503),
    (UnknownTenantError, 404),
    (KeyError, 404),          # unknown qid / query text
    (BadRequestError, 400),
    (ValueError, 400),        # spec/config validation
)

#: Prometheus text exposition content type (no OpenMetrics negotiation)
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_CALL_FIELDS = ("tenant", "qid", "query", "scheme", "model", "quant",
                "timeout_ms")
_TENANT_PUT_FIELDS = ("suite", "catalog", "n_queries", "seed")


def error_payload(exc: BaseException, status: int) -> dict:
    """The JSON body for one mapped error."""
    payload = {"error": {
        "type": type(exc).__name__,
        "message": str(exc),
        "status": status,
    }}
    if isinstance(exc, QueueFullError):
        # operators triaging a 429 need to see *who* is flooding
        payload["error"]["depth"] = exc.depth
        payload["error"]["capacity"] = exc.capacity
        payload["error"]["per_tenant"] = exc.per_tenant
    return payload


def map_error(exc: BaseException) -> tuple[int, dict]:
    """Resolve one exception through :data:`ERROR_STATUS`."""
    for exc_type, status in ERROR_STATUS:
        if isinstance(exc, exc_type):
            return status, error_payload(exc, status)
    return 500, error_payload(exc, 500)


class GatewayHTTPApp:
    """The ASGI callable; holds the gateway and the route table.

    Usable three ways: mounted in any ASGI server (``lifespan`` events
    start/stop the gateway), driven directly by the in-process test
    client (``async with app: ...``), or served over real sockets by
    :func:`repro.serving.http.serve_gateway`.

    ``http`` (an :class:`~repro.specs.HttpSpec`, default the gateway
    config's) carries the edge-hardening knobs: with ``api_key`` set,
    every route except ``/healthz`` demands ``Authorization: Bearer
    <key>`` (401 otherwise); with ``rate_limit_rps`` set, ``POST
    /v1/call`` runs each tenant through a token bucket and answers 429
    with a ``Retry-After`` header once drained.  Both are off by
    default — the edge stays a transparent wire.
    """

    def __init__(self, gateway: Gateway, http=None):
        self.gateway = gateway
        if http is None:
            http = getattr(gateway.config, "http", None)
        self.http = http
        self.api_key = getattr(http, "api_key", None)
        rps = getattr(http, "rate_limit_rps", None)
        self.rate_limiter = (
            RateLimiter(rps, getattr(http, "rate_limit_burst", None))
            if rps is not None else None)
        self.router = Router()
        self.router.add("POST", "/v1/call", self._call)
        self.router.add("GET", "/v1/tenants", self._list_tenants)
        self.router.add("GET", "/v1/tenants/{name}", self._get_tenant)
        self.router.add("PUT", "/v1/tenants/{name}", self._put_tenant)
        self.router.add("DELETE", "/v1/tenants/{name}", self._delete_tenant)
        self.router.add("GET", "/v1/tenants/{name}/status", self._tenant_status)
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("GET", "/metrics", self._metrics)

    # ------------------------------------------------------------------
    # ASGI entry
    # ------------------------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"unsupported ASGI scope type {scope['type']!r}")
        # liveness probes must never need credentials (or a kubelet-style
        # monitor with no secret would restart a healthy server)
        if self.api_key is not None and scope["path"] != "/healthz":
            if self._bearer_token(scope) != self.api_key:
                await send_json(send, 401, {"error": {
                    "type": "Unauthorized",
                    "message": "missing or invalid API key; send "
                               "'Authorization: Bearer <key>'",
                    "status": 401}},
                    headers={"www-authenticate": "Bearer"})
                return
        handler, params, allowed = self.router.resolve(
            scope["method"], scope["path"])
        if handler is None:
            if allowed:
                await send_json(send, 405, {"error": {
                    "type": "MethodNotAllowed",
                    "message": f"{scope['method']} not allowed for "
                               f"{scope['path']}",
                    "status": 405}},
                    headers={"allow": ", ".join(allowed)})
            else:
                await send_json(send, 404, {"error": {
                    "type": "NotFound",
                    "message": f"no route for {scope['path']}",
                    "status": 404}})
            return
        try:
            await handler(receive, send, params)
        except Exception as exc:  # noqa: BLE001 - mapped, never a socket drop
            status, payload = map_error(exc)
            headers = {}
            trace_id = getattr(exc, "trace_id", "")
            if trace_id:
                headers["x-trace-id"] = trace_id
            await send_json(send, status, payload, headers=headers)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def startup(self) -> None:
        """Start the gateway unless something already did (idempotent, so
        a pre-started gateway can be wrapped and served as-is)."""
        if not self.gateway.scheduler.running:
            await self.gateway.start()

    async def shutdown(self) -> None:
        await self.gateway.stop()

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                try:
                    await self.startup()
                except Exception as exc:  # noqa: BLE001 - report, don't hang
                    await send({"type": "lifespan.startup.failed",
                                "message": str(exc)})
                    return
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.shutdown()
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def __aenter__(self) -> "GatewayHTTPApp":
        await self.startup()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _bearer_token(scope) -> str | None:
        """The ``Authorization: Bearer`` credential in ``scope``, if any."""
        for name, value in scope.get("headers", ()):
            if name.lower() == b"authorization":
                text = value.decode("latin-1")
                if text.lower().startswith("bearer "):
                    return text[7:].strip()
                return None
        return None

    async def _call(self, receive, send, params) -> None:
        payload = parse_json(await read_body(receive))
        check_fields(payload, _CALL_FIELDS)
        tenant = require_field(payload, "tenant")
        if self.rate_limiter is not None:
            wait_s = self.rate_limiter.try_acquire(tenant)
            if wait_s > 0.0:
                await send_json(send, 429, {"error": {
                    "type": "RateLimited",
                    "message": f"tenant {tenant!r} exceeded "
                               f"{self.http.rate_limit_rps:g} requests/s",
                    "status": 429,
                    "retry_after_s": wait_s}},
                    headers={"retry-after": str(max(1, math.ceil(wait_s)))})
                return
        qid = payload.get("qid")
        text = payload.get("query")
        if (qid is None) == (text is None):
            raise BadRequestError(
                "provide exactly one of 'qid' or 'query' (exact suite "
                "query text)")
        overrides = {}
        for name in ("scheme", "model", "quant"):
            value = payload.get(name)
            if value is not None and not isinstance(value, str):
                raise BadRequestError(
                    f"field {name!r} must be a str, "
                    f"got {type(value).__name__}")
            overrides[name] = value
        timeout_ms = payload.get("timeout_ms")
        if timeout_ms is not None and not isinstance(
                timeout_ms, (int, float)):
            raise BadRequestError(
                f"field 'timeout_ms' must be a number, "
                f"got {type(timeout_ms).__name__}")
        if qid is not None:
            if not isinstance(qid, str):
                raise BadRequestError(
                    f"field 'qid' must be a str, got {type(qid).__name__}")
            query = qid
        else:
            if not isinstance(text, str):
                raise BadRequestError(
                    f"field 'query' must be a str, got {type(text).__name__}")
            query = self.gateway.sessions.get(tenant).resolve_text(text)
        response = await self.gateway.submit(
            tenant, query, timeout_ms=timeout_ms, **overrides)
        await send_json(send, 200, {
            "tenant": response.tenant,
            "trace_id": response.trace_id,
            "batch_size": response.batch_size,
            "queued_s": response.queued_s,
            "latency_s": response.latency_s,
            "episode": response.episode.to_dict(),
        }, headers={"x-trace-id": response.trace_id})

    def _tenant_summary(self, session) -> dict:
        catalog = session.suite.catalog
        return {
            "name": session.name,
            "suite": session.suite.name,
            "catalog": catalog.name,
            "catalog_variant": catalog.variant,
            "catalog_version": session.catalog_version,
            "n_tools": len(catalog),
            "n_queries": len(session.suite.queries),
        }

    async def _list_tenants(self, receive, send, params) -> None:
        sessions = self.gateway.sessions
        tenants = [self._tenant_summary(sessions.get(name))
                   for name in sorted(sessions.tenant_names)]
        await send_json(send, 200, {"tenants": tenants})

    async def _get_tenant(self, receive, send, params) -> None:
        session = self.gateway.sessions.get(params["name"])
        await send_json(send, 200, self._tenant_summary(session))

    async def _put_tenant(self, receive, send, params) -> None:
        name = params["name"]
        payload = parse_json(await read_body(receive))
        check_fields(payload, _TENANT_PUT_FIELDS)
        catalog = payload.get("catalog")
        if catalog is not None and not isinstance(catalog, (str, dict)):
            raise BadRequestError(
                "field 'catalog' must be a catalog name or a CatalogSpec "
                f"object, got {type(catalog).__name__}")
        if name in self.gateway.sessions.tenant_names:
            # existing tenant: the only mutation is a catalog hot-swap
            if "suite" in payload:
                raise BadRequestError(
                    f"tenant {name!r} already registered; its suite cannot "
                    f"be changed in place (DELETE then re-PUT)")
            if catalog is None:
                raise BadRequestError(
                    f"tenant {name!r} already registered; PUT with a "
                    f"'catalog' field to hot-swap its tool catalog")
            spec = (CatalogSpec(catalog) if isinstance(catalog, str)
                    else CatalogSpec.from_dict(catalog))
            version = self.gateway.update_catalog(name, spec)
            await send_json(send, 200, {
                "name": name, "swapped": True, "catalog_version": version})
            return
        suite_name = require_field(payload, "suite")
        suite_spec = SuiteSpec(
            suite_name,
            n_queries=payload.get("n_queries"),
            seed=payload.get("seed"),
            catalog=catalog)
        try:
            suite = suite_spec.load()
        except KeyError as exc:
            # an unknown suite/catalog name is the client's mistake, not
            # a missing resource on an existing route
            raise BadRequestError(str(exc)) from None
        session = self.gateway.sessions.register(name, suite)
        config = self.gateway.config
        session.warm(config.default_scheme, config.default_model,
                     config.default_quant)
        await send_json(send, 201, self._tenant_summary(session))

    async def _delete_tenant(self, receive, send, params) -> None:
        name = params["name"]
        self.gateway.remove_tenant(name)
        await send_json(send, 200, {"name": name, "deleted": True})

    async def _tenant_status(self, receive, send, params) -> None:
        name = params["name"]
        session = self.gateway.sessions.get(name)
        costs = self.gateway.costs()
        await send_json(send, 200, {
            "name": name,
            "catalog_version": session.catalog_version,
            "rung": self.gateway.rung(name),
            "rung_source": self.gateway.rung_source(name),
            "power_mode": self.gateway.power_mode(),
            "shed": self.gateway.is_shed(name),
            "scheme_override": self.gateway.scheme_override(name),
            "cost": costs.get("by_tenant", {}).get(name, {}),
            "budget": self.gateway.budget_status(name),
        })

    async def _healthz(self, receive, send, params) -> None:
        health = self.gateway.health()
        ok = health["scheduler_running"] and health.get("workers_running",
                                                        True)
        health["status"] = "ok" if ok else "unavailable"
        await send_json(send, 200 if ok else 503, health)

    async def _metrics(self, receive, send, params) -> None:
        await send_text(send, 200, self.gateway.metrics_text(),
                        content_type=METRICS_CONTENT_TYPE)


def create_app(gateway: Gateway, http=None) -> GatewayHTTPApp:
    """Build the ASGI app over ``gateway`` (the factory servers mount).

    ``http`` (an :class:`~repro.specs.HttpSpec`) supplies the edge
    hardening knobs — API-key auth and per-tenant rate limiting;
    ``None`` falls back to the spec stored on the gateway config, and a
    config without one leaves both off.
    """
    return GatewayHTTPApp(gateway, http=http)
