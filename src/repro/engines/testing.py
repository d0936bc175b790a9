"""A mock OpenAI-compatible server for engine tests — no network deps.

:class:`MockOpenAIApp` is a plain ASGI app answering ``POST
{prefix}/chat/completions`` with scripted replies; it records every
decoded request body so tests can assert on the wire traffic (messages,
tool schemas, auth headers).  :class:`MockOpenAIServer` hosts it on an
ephemeral localhost port through the same
:class:`~repro.serving.http.server.AsgiServer` the serving edge uses —
the ``openai_http`` adapter is exercised over real sockets without
anything beyond the stdlib.

Reply scripting: pass ``reply_fn(payload) -> dict`` returning either a
bare assistant *message* dict (wrapped into a completion body) or a
full response body (returned verbatim when it has ``choices``).  The
:func:`tool_call_message` / :func:`content_message` helpers build the
two message shapes the adapter must extract from.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable

from repro.serving.http.server import AsgiServer
from repro.serving.http.wire import read_body, send_json
from repro.specs import HttpSpec


def tool_call_message(name: str, arguments: dict, *,
                      malformed_arguments: bool = False) -> dict:
    """An assistant message using the native ``tool_calls`` channel."""
    raw = ("{not json" if malformed_arguments
           else json.dumps(arguments, sort_keys=True))
    return {
        "role": "assistant",
        "content": None,
        "tool_calls": [{
            "id": "call_0",
            "type": "function",
            "function": {"name": name, "arguments": raw},
        }],
    }


def content_message(text: str) -> dict:
    """An assistant message carrying plain content (fenced-JSON path)."""
    return {"role": "assistant", "content": text}


class MockOpenAIApp:
    """Scripted OpenAI-compatible chat-completions endpoint (plain ASGI)."""

    def __init__(self, reply_fn: Callable[[dict], dict] | None = None,
                 prefix: str = "/v1", fail_first: int = 0,
                 fail_status: int = 500):
        self.reply_fn = reply_fn
        self.prefix = prefix
        self.fail_first = fail_first
        self.fail_status = fail_status
        self.requests: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self._served = 0

    def _default_reply(self, payload: dict) -> dict:
        """Call the first advertised tool with empty arguments."""
        tools = payload.get("tools") or []
        if tools:
            name = tools[0]["function"]["name"]
            return tool_call_message(name, {})
        return content_message("[]")

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":
            return
        path, method = scope["path"], scope["method"]
        if method != "POST" or path != f"{self.prefix}/chat/completions":
            await send_json(send, 404, {"error": {
                "message": f"no route for {method} {path}", "status": 404}})
            return
        payload = json.loads((await read_body(receive)) or b"{}")
        self.requests.append(payload)
        self.headers.append({
            key.decode("latin-1"): value.decode("latin-1")
            for key, value in scope.get("headers", [])})
        self._served += 1
        if self._served <= self.fail_first:
            await send_json(send, self.fail_status, {"error": {
                "message": "injected failure", "status": self.fail_status}})
            return
        reply = (self.reply_fn(payload) if self.reply_fn is not None
                 else self._default_reply(payload))
        if "choices" in reply:
            body = reply
        else:
            prompt_tokens = sum(
                len(str(message.get("content") or "")) // 4 + 4
                for message in payload.get("messages", ()))
            body = {
                "id": f"chatcmpl-{self._served}",
                "object": "chat.completion",
                "model": payload.get("model", "default"),
                "choices": [{"index": 0, "message": reply,
                             "finish_reason": ("tool_calls"
                                               if reply.get("tool_calls")
                                               else "stop")}],
                "usage": {"prompt_tokens": prompt_tokens,
                          "completion_tokens": 32,
                          "total_tokens": prompt_tokens + 32},
            }
        await send_json(send, 200, body)


class MockOpenAIServer:
    """Host a :class:`MockOpenAIApp` on an ephemeral localhost port.

    Context manager: entering starts a daemon thread running an
    asyncio loop with an :class:`AsgiServer`; ``base_url`` is the
    OpenAI-style root (``http://127.0.0.1:<port>/v1``) ready to drop
    into an :class:`~repro.specs.EngineSpec`.
    """

    def __init__(self, app: MockOpenAIApp | None = None):
        self.app = app if app is not None else MockOpenAIApp()
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"http://127.0.0.1:{self.port}{self.app.prefix}"

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with AsgiServer(self.app, http=HttpSpec(port=0)) as server:
            self.port = server.port
            self._ready.set()
            await self._stop.wait()

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced on enter/exit
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "MockOpenAIServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="mock-openai-server")
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("mock OpenAI server did not bind within 30s")
        if self._error is not None:
            raise RuntimeError("mock OpenAI server failed to start") \
                from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        if self._error is not None and exc_info[0] is None:
            raise RuntimeError("mock OpenAI server crashed") from self._error
