"""Edge hardening on the HTTP front door: API-key auth + rate limiting.

Both knobs live on :class:`~repro.specs.HttpSpec` and are **off by
default** — the first tests pin that, so adding hardening cannot break
an existing deployment.  Auth is a Bearer check in front of routing
(``/healthz`` stays open for probes); rate limiting is a per-tenant
token bucket answering 429 with a ``Retry-After`` hint.  The
:class:`~repro.serving.http.limits.RateLimiter` itself is tested with
an injected clock — no sleeps, no flakes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.serving import Gateway, SessionManager
from repro.serving.http import ASGITestClient, create_app
from repro.serving.http.limits import RateLimiter
from repro.specs import HttpSpec, ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=6)


def make_app(suite, http: HttpSpec | None = None):
    sessions = SessionManager(embedder=CachedEmbedder())
    sessions.register("home", suite)
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                         default_scheme="lis-k3", default_model=MODEL,
                         default_quant=QUANT)
    return create_app(Gateway(sessions, config=config), http=http)


def serve(suite, scenario, http: HttpSpec | None = None):
    async def go():
        app = make_app(suite, http=http)
        async with app:
            return await scenario(ASGITestClient(app), app)

    return asyncio.run(go())


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# the token bucket itself
# ----------------------------------------------------------------------
class TestRateLimiter:
    def test_burst_defaults_to_ceil_rps(self):
        assert RateLimiter(2.5).burst == 3
        assert RateLimiter(0.5).burst == 1
        assert RateLimiter(4.0, burst=10).burst == 10

    def test_rps_must_be_positive(self):
        with pytest.raises(ValueError, match="rps"):
            RateLimiter(0.0)

    def test_burst_admitted_then_throttled(self):
        clock = FakeClock()
        limiter = RateLimiter(1.0, burst=2, clock=clock)
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") == 0.0
        wait = limiter.try_acquire("t")
        assert wait == pytest.approx(1.0)  # bucket empty: 1 token / 1 rps

    def test_refills_over_time(self):
        clock = FakeClock()
        limiter = RateLimiter(2.0, burst=1, clock=clock)
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") > 0.0
        clock.advance(0.5)  # 2 rps x 0.5 s = exactly one token back
        assert limiter.try_acquire("t") == 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(10.0, burst=2, clock=clock)
        clock.advance(3600.0)  # an hour idle never banks more than burst
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") > 0.0

    def test_keys_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(1.0, burst=1, clock=clock)
        assert limiter.try_acquire("tenant-a") == 0.0
        assert limiter.try_acquire("tenant-a") > 0.0
        assert limiter.try_acquire("tenant-b") == 0.0  # own bucket

    def test_wait_hint_shrinks_as_bucket_refills(self):
        clock = FakeClock()
        limiter = RateLimiter(1.0, burst=1, clock=clock)
        limiter.try_acquire("t")
        long_wait = limiter.try_acquire("t")
        clock.advance(0.6)
        short_wait = limiter.try_acquire("t")
        assert 0.0 < short_wait < long_wait


# ----------------------------------------------------------------------
# HttpSpec knobs
# ----------------------------------------------------------------------
class TestHttpSpec:
    def test_hardening_off_by_default(self):
        spec = HttpSpec()
        assert spec.api_key is None
        assert spec.rate_limit_rps is None

    def test_burst_requires_rps(self):
        with pytest.raises(ValueError, match="rate_limit_rps"):
            HttpSpec(rate_limit_burst=5)

    def test_rps_must_be_positive(self):
        with pytest.raises(ValueError, match="rate_limit_rps"):
            HttpSpec(rate_limit_rps=0.0)

    def test_empty_api_key_rejected(self):
        with pytest.raises(ValueError, match="api_key"):
            HttpSpec(api_key="")


# ----------------------------------------------------------------------
# Bearer auth in front of routing
# ----------------------------------------------------------------------
AUTH = HttpSpec(api_key="sk-secret")


class TestAuth:
    def test_off_by_default(self, suite):
        async def scenario(client, app):
            return await client.get("/v1/tenants")

        assert serve(suite, scenario).status == 200

    def test_missing_key_is_401(self, suite):
        async def scenario(client, app):
            return await client.get("/v1/tenants")

        response = serve(suite, scenario, http=AUTH)
        assert response.status == 401
        assert response.headers["www-authenticate"] == "Bearer"
        error = response.json()["error"]
        assert error["type"] == "Unauthorized"
        assert "Bearer" in error["message"]

    def test_wrong_key_is_401(self, suite):
        async def scenario(client, app):
            return await client.post(
                "/v1/call", {"tenant": "home"},
                headers={"Authorization": "Bearer sk-wrong"})

        assert serve(suite, scenario, http=AUTH).status == 401

    def test_non_bearer_scheme_is_401(self, suite):
        async def scenario(client, app):
            return await client.get(
                "/v1/tenants", headers={"Authorization": "Basic dXNlcg=="})

        assert serve(suite, scenario, http=AUTH).status == 401

    def test_correct_key_passes(self, suite):
        qid = suite.queries[0].qid

        async def scenario(client, app):
            return await client.post(
                "/v1/call", {"tenant": "home", "qid": qid},
                headers={"Authorization": "Bearer sk-secret"})

        response = serve(suite, scenario, http=AUTH)
        assert response.status == 200
        assert response.json()["episode"]["qid"] == qid

    def test_scheme_word_is_case_insensitive(self, suite):
        async def scenario(client, app):
            return await client.get(
                "/v1/tenants", headers={"Authorization": "bearer sk-secret"})

        assert serve(suite, scenario, http=AUTH).status == 200

    def test_healthz_exempt_for_probes(self, suite):
        async def scenario(client, app):
            return await client.get("/healthz")

        response = serve(suite, scenario, http=AUTH)
        assert response.status == 200
        assert response.json()["status"] == "ok"


# ----------------------------------------------------------------------
# per-tenant rate limiting on /v1/call
# ----------------------------------------------------------------------
class TestRateLimiting:
    def test_429_with_retry_after(self, suite):
        qid = suite.queries[0].qid
        http = HttpSpec(rate_limit_rps=1.0, rate_limit_burst=1)

        async def scenario(client, app):
            # deterministic: freeze the limiter's clock so the second
            # request always lands inside the same bucket window
            app.rate_limiter = RateLimiter(1.0, burst=1, clock=FakeClock())
            first = await client.post("/v1/call",
                                      {"tenant": "home", "qid": qid})
            second = await client.post("/v1/call",
                                       {"tenant": "home", "qid": qid})
            return first, second

        first, second = serve(suite, scenario, http=http)
        assert first.status == 200
        assert second.status == 429
        assert int(second.headers["retry-after"]) >= 1
        error = second.json()["error"]
        assert error["type"] == "RateLimited"
        assert "home" in error["message"]
        assert error["retry_after_s"] > 0.0

    def test_tenants_throttle_independently(self, suite):
        qid = suite.queries[0].qid
        http = HttpSpec(rate_limit_rps=1.0, rate_limit_burst=1)

        async def scenario(client, app):
            app.rate_limiter = RateLimiter(1.0, burst=1, clock=FakeClock())
            sessions = app.gateway.sessions
            sessions.register("work", suite)
            home = await client.post("/v1/call",
                                     {"tenant": "home", "qid": qid})
            throttled = await client.post("/v1/call",
                                          {"tenant": "home", "qid": qid})
            work = await client.post("/v1/call",
                                     {"tenant": "work", "qid": qid})
            return home, throttled, work

        home, throttled, work = serve(suite, scenario, http=http)
        assert home.status == 200
        assert throttled.status == 429
        assert work.status == 200  # a noisy neighbour starves nobody else

    def test_refill_readmits(self, suite):
        qid = suite.queries[0].qid
        http = HttpSpec(rate_limit_rps=1.0, rate_limit_burst=1)

        async def scenario(client, app):
            clock = FakeClock()
            app.rate_limiter = RateLimiter(1.0, burst=1, clock=clock)
            await client.post("/v1/call", {"tenant": "home", "qid": qid})
            throttled = await client.post("/v1/call",
                                          {"tenant": "home", "qid": qid})
            clock.advance(1.5)
            recovered = await client.post("/v1/call",
                                          {"tenant": "home", "qid": qid})
            return throttled, recovered

        throttled, recovered = serve(suite, scenario, http=http)
        assert throttled.status == 429
        assert recovered.status == 200

    def test_off_by_default(self, suite):
        qid = suite.queries[0].qid

        async def scenario(client, app):
            assert app.rate_limiter is None
            responses = []
            for _ in range(5):
                responses.append(await client.post(
                    "/v1/call", {"tenant": "home", "qid": qid}))
            return responses

        assert all(r.status == 200 for r in serve(suite, scenario))

    def test_auth_and_limits_compose(self, suite):
        qid = suite.queries[0].qid
        http = HttpSpec(api_key="sk-secret", rate_limit_rps=1.0,
                        rate_limit_burst=1)
        bearer = {"Authorization": "Bearer sk-secret"}

        async def scenario(client, app):
            app.rate_limiter = RateLimiter(1.0, burst=1, clock=FakeClock())
            unauthed = await client.post("/v1/call",
                                         {"tenant": "home", "qid": qid})
            ok = await client.post("/v1/call", {"tenant": "home", "qid": qid},
                                   headers=bearer)
            throttled = await client.post(
                "/v1/call", {"tenant": "home", "qid": qid}, headers=bearer)
            return unauthed, ok, throttled

        unauthed, ok, throttled = serve(suite, scenario, http=http)
        assert unauthed.status == 401  # auth wins before the bucket
        assert ok.status == 200
        assert throttled.status == 429
