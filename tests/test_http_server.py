"""The builtin HTTP/1.1 server over real sockets: framing and paths.

``tests/test_serving_http.py`` drives the ASGI app in-process; this file
puts :class:`~repro.serving.http.server.AsgiServer` on a loopback port
and writes raw bytes at it.  The laws: a request the server cannot frame
gets a 400 and a closed connection, never a desynchronised one; a framed
body the app cannot decode (not UTF-8, not a JSON object) gets a 400 and
the connection stays open for the next request; a client
that vanishes mid-body is dropped quietly; no exception escapes the
connection task (the loop's exception handler must stay silent); and
``scope["path"]`` arrives percent-decoded, as uvicorn gives it, so a
tenant name means the same thing under either server.

The head parser is also fuzzed with Hypothesis: any bytes either parse
or raise ``_BadRequest``.
"""

from __future__ import annotations

import asyncio
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.cache import CachedEmbedder
from repro.serving import Gateway, SessionManager
from repro.serving.http import AsgiServer, create_app
from repro.serving.http.server import (
    MAX_BODY_BYTES,
    _BadRequest,
    _body_length,
    _parse_head,
)
from repro.specs import HttpSpec, ServingSpec
from repro.suites import load_suite


async def echo_app(scope, receive, send) -> None:
    """Answer every request with its path, raw path and body as JSON."""
    message = await receive()
    body = json.dumps({
        "path": scope["path"],
        "raw_path": scope["raw_path"].decode("latin-1"),
        "body": message["body"].decode("latin-1"),
    }).encode("utf-8")
    await send({"type": "http.response.start", "status": 200,
                "headers": [(b"content-type", b"application/json")]})
    await send({"type": "http.response.body", "body": body})


async def _exchange(port: int, raw: bytes) -> bytes:
    """Write ``raw`` on a fresh connection, half-close it, and return all
    the server wrote before closing its side."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()
    reply = await asyncio.wait_for(reader.read(), timeout=10.0)
    writer.close()
    await writer.wait_closed()
    return reply


def exchange(raw: bytes, app=echo_app) -> tuple[bytes, list[dict]]:
    """``raw`` through a fresh server: ``(reply bytes, loop errors)``."""
    async def go():
        errors: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        async with AsgiServer(app, http=HttpSpec(port=0)) as server:
            reply = await _exchange(server.port, raw)
            # let the connection task finish; an exception it never
            # handled is reported when the finished task is collected
            for _ in range(5):
                await asyncio.sleep(0)
            gc.collect()
        return reply, errors

    return asyncio.run(go())


def responses(reply: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a reply stream into ``(status, headers, body)`` triples."""
    out = []
    while reply:
        head, _, rest = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        length = int(headers["content-length"])
        out.append((int(lines[0].split(" ")[1]), headers, rest[:length]))
        reply = rest[length:]
    return out


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["abc", "-5", "1_0", "+3", "", "\xb2"])
def test_unframeable_content_length_is_400_and_close(value):
    reply, errors = exchange(
        f"POST /v1/call HTTP/1.1\r\ncontent-length: {value}\r\n\r\n"
        .encode("latin-1"))
    [(status, headers, body)] = responses(reply)
    assert status == 400
    assert headers["connection"] == "close"
    assert "content-length" in json.loads(body)["error"]["message"]
    assert errors == []


def test_chunked_body_is_400_not_a_second_request():
    reply, errors = exchange(
        b"POST /v1/call HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n")
    [(status, headers, _)] = responses(reply)
    assert status == 400
    assert headers["connection"] == "close"
    assert errors == []


def test_body_cut_short_closes_quietly():
    reply, errors = exchange(
        b"POST /v1/call HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
    assert reply == b""
    assert errors == []


def test_pipelined_requests_stay_in_sync():
    reply, errors = exchange(
        b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz"
        b"GET /b HTTP/1.1\r\n\r\n"
        b"POST /c HTTP/1.1\r\nconnection: close\r\ncontent-length: 1\r\n\r\nq")
    echoed = [(status, json.loads(body)) for status, _, body in responses(reply)]
    assert [(status, payload["path"], payload["body"])
            for status, payload in echoed] == [
        (200, "/a", "xyz"), (200, "/b", ""), (200, "/c", "q")]
    assert errors == []


def test_path_is_percent_decoded_and_raw_path_stays_raw():
    reply, _ = exchange(
        b"GET /v1/tenants/caf%C3%A9?x=1 HTTP/1.1\r\nconnection: close\r\n\r\n")
    [(status, _, body)] = responses(reply)
    assert status == 200
    assert json.loads(body)["path"] == "/v1/tenants/café"
    assert json.loads(body)["raw_path"] == "/v1/tenants/caf%C3%A9"


# ----------------------------------------------------------------------
# a percent-encoded tenant name through the whole gateway
# ----------------------------------------------------------------------
def test_percent_encoded_tenant_round_trips_over_a_socket():
    qid = load_suite("edgehome", n_queries=4).queries[0].qid
    config = ServingSpec(max_batch_size=4, default_scheme="lis-k3",
                         default_model="hermes2-pro-8b", default_quant="q4_K_M")
    app = create_app(Gateway(SessionManager(embedder=CachedEmbedder()),
                             config=config))

    def request(method: str, path: str, payload: dict | None = None) -> bytes:
        body = json.dumps(payload).encode("utf-8") if payload else b""
        return (f"{method} {path} HTTP/1.1\r\nconnection: close\r\n"
                f"content-length: {len(body)}\r\n\r\n").encode("latin-1") + body

    async def go():
        async with app, AsgiServer(app, http=HttpSpec(port=0)) as server:
            replies = []
            for raw in (
                request("PUT", "/v1/tenants/caf%C3%A9",
                        {"suite": "edgehome", "n_queries": 4}),
                request("GET", "/v1/tenants/caf%C3%A9"),
                request("POST", "/v1/call",
                        {"tenant": "café", "qid": qid}),
            ):
                [(status, _, body)] = responses(
                    await _exchange(server.port, raw))
                replies.append((status, json.loads(body)))
            return replies, app.gateway.sessions.tenant_names

    (put, get, call), names = asyncio.run(go())
    assert put[0] == 201 and put[1]["name"] == "café"
    assert get[0] == 200 and get[1]["name"] == "café"
    assert call[0] == 200 and call[1]["tenant"] == "café"
    assert call[1]["episode"]["qid"] == qid
    assert names == ["café"]


# ----------------------------------------------------------------------
# a well-framed body the app cannot decode is a 400 on a live connection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("body,message", [
    (b'{"tenant": "\xff"}', "request body is not valid UTF-8 JSON: "),
    (b'["tenant", "home"]', "request body must be a JSON object, got list"),
])
def test_undecodable_body_is_400_and_keeps_the_connection(body, message):
    app = create_app(Gateway(SessionManager(embedder=CachedEmbedder()),
                             config=ServingSpec()))
    raw = (f"POST /v1/call HTTP/1.1\r\ncontent-length: {len(body)}\r\n\r\n"
           .encode("latin-1") + body
           + b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")

    async def go():
        errors: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        async with app, AsgiServer(app, http=HttpSpec(port=0)) as server:
            reply = await _exchange(server.port, raw)
        return reply, errors

    reply, errors = asyncio.run(go())
    (status, headers, error), (health, _, _) = responses(reply)
    assert status == 400
    assert headers.get("connection") != "close"
    assert json.loads(error)["error"]["type"] == "BadRequestError"
    assert json.loads(error)["error"]["message"].startswith(message)
    assert health == 200
    assert errors == []


# ----------------------------------------------------------------------
# the head parser never raises anything but _BadRequest
# ----------------------------------------------------------------------
_FRAGMENTS = st.sampled_from([
    b"GET ", b"POST ", b"/v1/call", b"/v1/tenants/caf%C3%A9", b"%", b"?q=1",
    b" HTTP/1.1", b" HTTP/2", b"\r\n", b":", b" ", b"content-length: ",
    b"Content-Length:", b"transfer-encoding: chunked", b"connection: close",
    b"0", b"7", b"-5", b"abc", b"1_0", b"\xb2", b"99999999999999999999",
    b"\xff\xfe", b"\x00",
])
_HEADS = st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=6)),
                  max_size=24).map(b"".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_HEADS, st.binary(max_size=128)))
def test_any_head_parses_or_is_a_bad_request(raw):
    try:
        method, path, headers = _parse_head(raw + b"\r\n\r\n")
        length = _body_length(headers)
    except _BadRequest:
        return
    assert method == method.upper()
    assert "?" not in path
    assert "transfer-encoding" not in headers
    assert 0 <= length <= MAX_BODY_BYTES
