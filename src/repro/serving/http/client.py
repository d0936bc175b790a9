"""A client for the HTTP front door.

:class:`HTTPConnection` is a minimal blocking HTTP/1.1 client over a
real socket (stdlib ``http.client``), used by the ``openai_http``
engine, the bench harness and the smoke script without adding an
httpx/aiohttp dependency.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field


@dataclass
class Response:
    """One HTTP exchange's outcome."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> dict:
        return json.loads(self.body)

    @property
    def trace_id(self) -> str:
        return self.headers.get("x-trace-id", "")


class HTTPConnection:
    """Blocking HTTP/1.1 client over one keep-alive socket.

    Thin wrapper over stdlib ``http.client``.  One instance per thread
    — ``http.client`` connections are not thread-safe.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self._conn = http.client.HTTPConnection(host, port,
                                                timeout=timeout_s)

    def request(self, method: str, path: str,
                json_body: dict | None = None,
                headers: dict[str, str] | None = None) -> Response:
        body = None
        wire_headers = dict(headers or {})
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            wire_headers["Content-Type"] = "application/json"
        self._conn.request(method.upper(), path, body=body,
                           headers=wire_headers)
        raw = self._conn.getresponse()
        return Response(
            status=raw.status,
            headers={key.lower(): value for key, value in raw.getheaders()},
            body=raw.read(),
        )

    def get(self, path: str,
            headers: dict[str, str] | None = None) -> Response:
        return self.request("GET", path, headers=headers)

    def post(self, path: str, json_body: dict | None = None,
             headers: dict[str, str] | None = None) -> Response:
        return self.request("POST", path, json_body=json_body,
                            headers=headers)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HTTPConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
