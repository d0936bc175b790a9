"""Boot ``repro serve`` for real and smoke the HTTP front door.

The one thing the in-process tier-1 tests cannot cover: the actual
``python -m repro serve`` process — argument parsing, gateway boot, the
asyncio sockets server, signal handling.  This script writes a serving
spec with two tenants over the same suite — one on the simulated
engine, one on the ``openai_http`` engine pointed at an in-process
:class:`~repro.engines.testing.MockOpenAIServer` — launches the server
on it on an ephemeral port, and drives ``/healthz``, ``POST /v1/call``
and ``/metrics`` (whose two process-memory gauges must be positive, and
whose embedder-cache gauges must be within the cache's bound) over a
real connection.  It calls the engine-backed
tenant and checks the mock saw the chat request, lists the tenants,
reads one's status, deletes it and gets a 404 for it; registers, reads
and calls a tenant whose name travels percent-encoded in the path
(``café``).  The spec sets a per-tenant rate limit of one call per
``1 / RATE_LIMIT_RPS`` seconds, so each tenant's one call above is
admitted and a second call to the first tenant gets a 429 with a
``Retry-After``.  Then it SIGINTs the server and asserts a clean exit.

A second server boots on a spec that sets ``HttpSpec.api_key``: a
call without the key or with a wrong one gets a 401 with
``WWW-Authenticate``, ``/healthz`` stays open, and with the key a call
by the query's exact text returns the episode the same call by qid
returns.  stdlib only (subprocess + http.client), like everything else
on the serving edge.

Run:  PYTHONPATH=src python scripts/serve_smoke.py [--uvicorn]

``--uvicorn`` smokes the same endpoints through the optional uvicorn
mount (``repro serve --uvicorn``) instead of the builtin asyncio
server — CI's http-extras job runs this leg after installing uvicorn,
so uvicorn's path decoding referees the builtin server's.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engines.testing import MockOpenAIServer  # noqa: E402
from repro.serving.http import HTTPConnection  # noqa: E402
from repro.specs import (  # noqa: E402
    EngineSpec,
    HttpSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
)
from repro.suites import load_suite  # noqa: E402

BANNER = re.compile(r"serving tenants \[(?P<tenants>[^\]]*)\] at "
                    r"http://(?P<host>[\d.]+):(?P<port>\d+)")
#: uvicorn's own ready line (it never prints our banner)
UVICORN_BANNER = re.compile(
    r"Uvicorn running on http://(?P<host>[\d.]+):(?P<port>\d+)")
SUITE, N_QUERIES = "edgehome", 6
#: the tenant served through the openai_http engine
ENGINE_TENANT = f"{SUITE}-http"
#: a tenant name that is not plain ASCII, and its path segment on the wire
ENCODED_TENANT, ENCODED_SEGMENT = "café", "caf%C3%A9"
BOOT_TIMEOUT_S = 60.0
#: one token per 100 s and a burst of one: a tenant's second call inside
#: the smoke is always refused
RATE_LIMIT_RPS = 0.01
#: the bearer key of the authenticated leg
API_KEY = "sk-smoke"


def wait_for_banner(process: subprocess.Popen, tenants: str,
                    uvicorn: bool = False) -> tuple[str, int]:
    """Read server stdout until the ready banner names the bound port."""
    pattern = UVICORN_BANNER if uvicorn else BANNER
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before binding (rc={process.poll()})")
        print(f"  server: {line.rstrip()}")
        match = pattern.search(line)
        if match:
            if not uvicorn:
                assert match.group("tenants") == tenants
            return match.group("host"), int(match.group("port"))
    raise SystemExit(f"no ready banner within {BOOT_TIMEOUT_S:.0f}s")


def drive(conn: HTTPConnection, qid: str, mock: MockOpenAIServer) -> None:
    """Every request the smoke makes, over one keep-alive connection."""
    health = conn.get("/healthz")
    assert health.status == 200, health.text
    assert health.json()["status"] == "ok"
    print(f"  /healthz ok (tenants {health.json()['tenants']})")

    call = conn.post("/v1/call", {"tenant": SUITE, "qid": qid})
    assert call.status == 200, call.text
    payload = call.json()
    assert payload["episode"]["qid"] == qid
    assert call.trace_id == payload["trace_id"] != ""
    print(f"  /v1/call ok (trace {payload['trace_id']}, "
          f"{payload['latency_s'] * 1e3:.1f} ms)")

    metrics = conn.get("/metrics")
    assert metrics.status == 200
    assert "version=0.0.4" in metrics.headers["content-type"]
    assert "repro_requests_completed_total 1" in metrics.text
    memory = {line.split()[0]: float(line.split()[1])
              for line in metrics.text.splitlines()
              if line.startswith("repro_process_")}
    assert sorted(memory) == ["repro_process_peak_resident_bytes",
                              "repro_process_resident_bytes"], memory
    assert all(value > 0 for value in memory.values()), memory
    gauges = {line.split()[0]: float(line.split()[1])
              for line in metrics.text.splitlines()
              if line.startswith("repro_embedder_cache_")}
    assert 0 < gauges["repro_embedder_cache_entries"] <= 1024, gauges
    assert 0 < gauges["repro_embedder_cache_hit_rate"] <= 1, gauges
    print(f"  /metrics ok ({len(metrics.text.splitlines())} lines)")

    call = conn.post("/v1/call", {"tenant": ENGINE_TENANT, "qid": qid})
    assert call.status == 200, call.text
    assert call.json()["episode"]["qid"] == qid
    assert mock.app.requests and mock.app.requests[0]["messages"], \
        "the openai_http tenant never reached the mock engine"
    print(f"  /v1/call as {ENGINE_TENANT} ok "
          f"({len(mock.app.requests)} chat requests to the mock engine)")

    listed = conn.get("/v1/tenants")
    assert listed.status == 200, listed.text
    assert [tenant["name"] for tenant in listed.json()["tenants"]] == [
        SUITE, ENGINE_TENANT]
    status = conn.get(f"/v1/tenants/{ENGINE_TENANT}/status")
    assert status.status == 200, status.text
    assert status.json()["rung"] == "full"
    deleted = conn.request("DELETE", f"/v1/tenants/{ENGINE_TENANT}")
    assert deleted.status == 200, deleted.text
    assert deleted.json() == {"name": ENGINE_TENANT, "deleted": True}
    gone = conn.post("/v1/call", {"tenant": ENGINE_TENANT, "qid": qid})
    assert gone.status == 404, gone.text
    assert gone.json()["error"]["type"] == "UnknownTenantError"
    print("  GET /v1/tenants, /status, DELETE and the 404 after it ok")

    path = f"/v1/tenants/{ENCODED_SEGMENT}"
    put = conn.request("PUT", path, {"suite": SUITE, "n_queries": N_QUERIES})
    assert put.status == 201, put.text
    assert put.json()["name"] == ENCODED_TENANT
    got = conn.get(path)
    assert got.status == 200, got.text
    assert got.json()["name"] == ENCODED_TENANT
    call = conn.post("/v1/call", {"tenant": ENCODED_TENANT, "qid": qid})
    assert call.status == 200, call.text
    assert call.json()["tenant"] == ENCODED_TENANT
    print(f"  PUT/GET {path} and /v1/call as {ascii(ENCODED_TENANT)} ok")

    limited = conn.post("/v1/call", {"tenant": SUITE, "qid": qid})
    assert limited.status == 429, limited.text
    assert limited.json()["error"]["type"] == "RateLimited"
    assert int(limited.headers["retry-after"]) >= 1, limited.headers
    print(f"  second /v1/call as {SUITE} rate-limited "
          f"(Retry-After {limited.headers['retry-after']} s)")


def drive_auth(conn: HTTPConnection, query) -> None:
    """The authenticated leg: 401s without the key, calls with it."""
    health = conn.get("/healthz")
    assert health.status == 200, health.text
    body = {"tenant": SUITE, "qid": query.qid}
    for headers in ({}, {"Authorization": "Bearer wrong-key"}):
        refused = conn.post("/v1/call", body, headers=headers)
        assert refused.status == 401, refused.text
        assert refused.headers["www-authenticate"] == "Bearer"
    print("  /healthz open; /v1/call without or with a wrong key: 401")

    auth = {"Authorization": f"Bearer {API_KEY}"}
    by_qid = conn.post("/v1/call", body, headers=auth)
    assert by_qid.status == 200, by_qid.text
    by_text = conn.post("/v1/call", {"tenant": SUITE, "query": query.text},
                        headers=auth)
    assert by_text.status == 200, by_text.text
    assert by_text.json()["episode"] == by_qid.json()["episode"]
    print("  with the key: /v1/call by qid and by exact text, "
          "one episode")


def serve(spec: ServingSpec, uvicorn: bool, drive_server) -> None:
    """Boot ``repro serve`` on ``spec``, run ``drive_server(conn)``, then
    SIGINT the server and assert a clean shutdown."""
    with tempfile.TemporaryDirectory() as scratch:
        spec_path = Path(scratch) / "serving.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        command = [sys.executable, "-m", "repro", "serve",
                   "--spec", str(spec_path), "--port", "0"]
        if uvicorn:
            command.append("--uvicorn")
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            tenants = ", ".join(sorted(tenant.name for tenant in spec.tenants))
            host, port = wait_for_banner(process, tenants, uvicorn=uvicorn)
            with HTTPConnection(host, port) as conn:
                drive_server(conn)
        except BaseException:
            process.kill()
            process.wait()
            raise

    process.send_signal(signal.SIGINT)
    remainder = process.communicate(timeout=30.0)[0]
    for line in remainder.splitlines():
        print(f"  server: {line}")
    assert process.returncode == 0, \
        f"server exited {process.returncode} on SIGINT"
    assert "shutdown complete" in remainder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uvicorn", action="store_true",
                        help="smoke through the uvicorn mount (requires the "
                             "optional uvicorn extra)")
    args = parser.parse_args(argv)

    query = load_suite(SUITE, n_queries=N_QUERIES).queries[0]
    suite = SuiteSpec(SUITE, n_queries=N_QUERIES)
    with MockOpenAIServer() as mock:
        spec = ServingSpec(tenants=(
            TenantSpec(SUITE, suite),
            TenantSpec(ENGINE_TENANT, suite, engine=EngineSpec(
                "openai_http", base_url=mock.base_url))),
            http=HttpSpec(rate_limit_rps=RATE_LIMIT_RPS, rate_limit_burst=1))
        serve(spec, args.uvicorn, lambda conn: drive(conn, query.qid, mock))
    print("OK: served, scraped, and shut down cleanly")

    spec = ServingSpec(tenants=(TenantSpec(SUITE, suite),),
                       http=HttpSpec(api_key=API_KEY))
    serve(spec, args.uvicorn, lambda conn: drive_auth(conn, query))
    print("OK: authenticated by key, served by text, and shut down cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
