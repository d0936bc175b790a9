"""ASGI wire helpers: request body handling and JSON/text responses.

The HTTP front door deliberately speaks raw ASGI — an
``app(scope, receive, send)`` callable with no FastAPI/starlette
dependency — so tier-1 stays offline-installable.  This module is the
whole "framework": read a request body, decode JSON with actionable
errors, and send JSON / plain-text responses with correct headers.
"""

from __future__ import annotations

import json


class BadRequestError(ValueError):
    """Client-side validation failure; mapped to HTTP 400.

    Raised for malformed JSON bodies, missing/unknown fields and
    type errors — anything the client can fix by correcting the request.
    """


async def read_body(receive) -> bytes:
    """Drain the ASGI receive channel into one bytes body."""
    chunks: list[bytes] = []
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            break
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            break
    return b"".join(chunks)


def parse_json(body: bytes) -> dict:
    """Decode a JSON object body; empty bodies decode to ``{}``."""
    if not body:
        return {}
    try:
        decoded = json.loads(body)
    except json.JSONDecodeError as exc:
        raise BadRequestError(f"request body is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise BadRequestError("request body is not valid UTF-8 JSON: "
                              f"{exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise BadRequestError(
            "request body nests deeper than the JSON decoder allows") from None
    if not isinstance(decoded, dict):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(decoded).__name__}")
    return decoded


def require_field(payload: dict, name: str, kind: type = str):
    """Fetch a required, typed field from a decoded JSON body."""
    if name not in payload:
        raise BadRequestError(f"missing required field {name!r}")
    value = payload[name]
    if not isinstance(value, kind):
        raise BadRequestError(
            f"field {name!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def check_fields(payload: dict, allowed: tuple[str, ...]) -> None:
    """Reject unknown body fields loudly (typos fail, not silently drop)."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise BadRequestError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")


def _encode_headers(headers: dict[str, str] | None,
                    content_type: str, body: bytes) -> list[tuple[bytes, bytes]]:
    wire = [(b"content-type", content_type.encode("latin-1")),
            (b"content-length", str(len(body)).encode("latin-1"))]
    for key, value in (headers or {}).items():
        wire.append((key.lower().encode("latin-1"), value.encode("latin-1")))
    return wire


async def send_response(send, status: int, body: bytes, content_type: str,
                        headers: dict[str, str] | None = None) -> None:
    """Emit one complete ASGI response."""
    await send({
        "type": "http.response.start",
        "status": status,
        "headers": _encode_headers(headers, content_type, body),
    })
    await send({"type": "http.response.body", "body": body})


async def send_json(send, status: int, payload: dict,
                    headers: dict[str, str] | None = None) -> None:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    await send_response(send, status, body, "application/json",
                        headers=headers)


async def send_text(send, status: int, text: str,
                    content_type: str = "text/plain; charset=utf-8",
                    headers: dict[str, str] | None = None) -> None:
    await send_response(send, status, text.encode("utf-8"), content_type,
                        headers=headers)
