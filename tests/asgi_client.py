"""An in-process client for the gateway's ASGI app: no sockets, no server.

:class:`ASGITestClient` drives the app coroutine directly, so requests
run on the same event loop as the gateway and the HTTP tests stay fast
and deterministic; :func:`lifespan_startup` / :func:`lifespan_shutdown`
drive the lifespan protocol an external ASGI server (uvicorn) would.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from repro.serving.http.client import Response


class ASGITestClient:
    """Call an ASGI app in-process: one coroutine per request.

    Concurrency comes for free — ``asyncio.gather`` over several
    :meth:`request` calls interleaves them on the loop exactly like
    concurrent sockets would, which is how the 429 (queue full) row of
    the error table is exercised without a real server.
    """

    def __init__(self, app):
        self.app = app

    async def request(self, method: str, path: str,
                      json_body: dict | None = None,
                      body: bytes | None = None,
                      headers: dict[str, str] | None = None) -> Response:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        messages = [{"type": "http.request", "body": body or b"",
                     "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        sent: list[dict] = []

        async def send(message):
            sent.append(message)

        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": path,
            "raw_path": path.encode("latin-1"),
            "query_string": b"",
            "headers": [(key.lower().encode("latin-1"),
                         value.encode("latin-1"))
                        for key, value in (headers or {}).items()],
            "client": ("testclient", 0),
            "server": ("testserver", 80),
        }
        await self.app(scope, receive, send)
        if not sent or sent[0]["type"] != "http.response.start":
            raise RuntimeError(
                f"app sent no response start (messages: "
                f"{[m['type'] for m in sent]})")
        start = sent[0]
        response_body = b"".join(
            message.get("body", b"") for message in sent[1:]
            if message["type"] == "http.response.body")
        return Response(
            status=start["status"],
            headers={key.decode("latin-1"): value.decode("latin-1")
                     for key, value in start.get("headers", [])},
            body=response_body,
        )

    async def get(self, path: str,
                  headers: dict[str, str] | None = None) -> Response:
        return await self.request("GET", path, headers=headers)

    async def post(self, path: str, json_body: dict | None = None,
                   body: bytes | None = None,
                   headers: dict[str, str] | None = None) -> Response:
        return await self.request("POST", path, json_body=json_body,
                                  body=body, headers=headers)

    async def put(self, path: str, json_body: dict | None = None,
                  headers: dict[str, str] | None = None) -> Response:
        return await self.request("PUT", path, json_body=json_body,
                                  headers=headers)

    async def delete(self, path: str,
                     headers: dict[str, str] | None = None) -> Response:
        return await self.request("DELETE", path, headers=headers)


@dataclass
class LifespanHandle:
    """A started lifespan protocol run, for :func:`lifespan_shutdown`."""

    task: asyncio.Task
    to_app: asyncio.Queue
    from_app: asyncio.Queue


async def lifespan_startup(app) -> LifespanHandle:
    """Run the app's lifespan protocol through startup.

    The sockets server uses the app's async-context form instead; this
    exists so tests can cover the lifespan path an external ASGI server
    (uvicorn) would drive.
    """
    to_app: asyncio.Queue = asyncio.Queue()
    from_app: asyncio.Queue = asyncio.Queue()
    scope = {"type": "lifespan", "asgi": {"version": "3.0"}}
    task = asyncio.get_running_loop().create_task(
        app(scope, to_app.get, from_app.put))
    await to_app.put({"type": "lifespan.startup"})
    message = await from_app.get()
    if message["type"] != "lifespan.startup.complete":
        task.cancel()
        raise RuntimeError(f"startup failed: {message}")
    return LifespanHandle(task, to_app, from_app)


async def lifespan_shutdown(handle: LifespanHandle) -> None:
    await handle.to_app.put({"type": "lifespan.shutdown"})
    message = await handle.from_app.get()
    if message["type"] != "lifespan.shutdown.complete":
        raise RuntimeError(f"shutdown failed: {message}")
    await handle.task
