"""Socket hosting for the ASGI app.

:class:`AsgiServer` is a small asyncio HTTP/1.1 server — request line +
headers + Content-Length bodies, keep-alive connections, a
percent-decoded ``scope["path"]`` as ASGI servers give — just enough
wire protocol to put :class:`~.app.GatewayHTTPApp` on a real port
without requiring uvicorn.  When uvicorn *is* installed,
:func:`run_uvicorn` mounts the same app unchanged (it is plain ASGI);
``repro serve --uvicorn`` selects it.

The server intentionally does not implement chunked transfer, TLS or
HTTP/2: the front door is a reproduction-scale serving edge, and every
byte of protocol here is a byte tier-1 has to keep working offline.  A
request it cannot frame by ``Content-Length`` gets a 400 and a close.
"""

from __future__ import annotations

import asyncio
import json
from http.client import responses as _REASONS
from urllib.parse import unquote

from repro.serving.http.app import create_app
from repro.specs import HttpSpec

#: bound on request head (request line + headers) and body sizes
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: listen-socket accept queue: connections beyond it are refused by the
#: kernel before they reach the gateway's own admission control
BACKLOG = 128


class _BadRequest(Exception):
    """Malformed wire data; the connection gets a 400 and is closed."""


class AsgiServer:
    """Serve one ASGI app over real sockets with asyncio streams.

    Usage::

        server = AsgiServer(app, http=HttpSpec(port=0))
        await server.start()          # server.port is the bound port
        ...
        await server.stop()

    Lifespan is *not* driven here — callers own the app/gateway
    lifecycle (``async with app:``), so a server restart never double
    starts the gateway.
    """

    def __init__(self, app, http: HttpSpec | None = None):
        self.app = app
        self.http = http if http is not None else HttpSpec(port=0)
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.http.host,
            port=self.http.port, backlog=BACKLOG)

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.http.host}:{self.port}"

    async def __aenter__(self) -> "AsgiServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    raise _BadRequest("request head too large") from None
                if len(head) > MAX_HEAD_BYTES:
                    raise _BadRequest("request head too large")
                method, path, headers = _parse_head(head)
                body = await reader.readexactly(_body_length(headers))
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._dispatch(method, path, headers, body, writer,
                                     keep_alive)
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            return  # client gone between, inside or after a request
        except _BadRequest as exc:
            body = json.dumps({"error": {"type": "BadRequest",
                                         "message": str(exc), "status": 400}})
            _write_response(writer, 400, [], body.encode("utf-8") + b"\n",
                            keep_alive=False)
            try:
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            writer.close()

    async def _dispatch(self, method: str, path: str, headers: dict,
                        body: bytes, writer: asyncio.StreamWriter,
                        keep_alive: bool) -> None:
        messages = [{"type": "http.request", "body": body,
                     "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        state = {"status": 500, "headers": [], "chunks": []}

        async def send(message):
            if message["type"] == "http.response.start":
                state["status"] = message["status"]
                state["headers"] = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                state["chunks"].append(message.get("body", b""))

        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method,
            "path": unquote(path),
            "raw_path": path.encode("latin-1"),
            "query_string": b"",
            "headers": [(key.encode("latin-1"), value.encode("latin-1"))
                        for key, value in headers.items()],
            "server": (self.http.host, self.port),
        }
        try:
            await self.app(scope, receive, send)
            payload = b"".join(state["chunks"])
            _write_response(writer, state["status"], state["headers"],
                            payload, keep_alive=keep_alive)
        except Exception:  # noqa: BLE001 - app crashed below its own net
            _write_response(writer, 500, [],
                            b'{"error": {"type": "InternalServerError", '
                            b'"status": 500}}\n', keep_alive=False)
        await writer.drain()


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise _BadRequest("malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise _BadRequest(f"unsupported protocol {version!r}")
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise _BadRequest(f"malformed header line {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    return method.upper(), path, headers


def _body_length(headers: dict[str, str]) -> int:
    """The body size the head declares: ``Content-Length``, else 0.  Any
    ``Transfer-Encoding`` is refused, not read as the next request."""
    if "transfer-encoding" in headers:
        raise _BadRequest("transfer-encoding is not supported")
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        raise _BadRequest(f"malformed content-length {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"request body too large ({length}B)")
    return length


def _write_response(writer: asyncio.StreamWriter, status: int,
                    headers: list[tuple[bytes, bytes]], body: bytes,
                    keep_alive: bool) -> None:
    reason = _REASONS.get(status, "Unknown")
    parts = [f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")]
    seen = set()
    for key, value in headers:
        seen.add(key.lower())
        parts.append(key + b": " + value + b"\r\n")
    if b"content-length" not in seen:
        parts.append(f"content-length: {len(body)}\r\n".encode("latin-1"))
    parts.append(b"connection: keep-alive\r\n" if keep_alive
                 else b"connection: close\r\n")
    parts.append(b"\r\n")
    parts.append(body)
    writer.write(b"".join(parts))


async def serve_gateway(gateway, http: HttpSpec | None = None,
                        ready=None, shutdown=None) -> None:
    """Boot ``gateway`` behind an :class:`AsgiServer` and serve until
    ``shutdown`` (an :class:`asyncio.Event`) is set — forever without one.

    ``ready`` (optional callable) receives the server once it is bound —
    how callers learn an ephemeral port.  The gateway starts through the
    app's idempotent startup, so a pre-started gateway works too.
    """
    http = http if http is not None else gateway.config.http
    app = create_app(gateway, http=http)
    async with app:
        async with AsgiServer(app, http=http) as server:
            if ready is not None:
                ready(server)
            if shutdown is None:
                shutdown = asyncio.Event()  # effectively serve forever
            await shutdown.wait()


def run_uvicorn(app, http: HttpSpec) -> None:
    """Serve through uvicorn when it is installed (optional extra).

    uvicorn drives the app's lifespan protocol itself, so the gateway
    starts and stops with the server process.
    """
    try:
        import uvicorn
    except ImportError:
        raise RuntimeError(
            "uvicorn is not installed; run without --uvicorn to use the "
            "builtin asyncio server") from None
    uvicorn.run(app, host=http.host, port=http.port,
                backlog=BACKLOG, log_level="info")
