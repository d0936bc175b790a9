"""The gateway's HTTP front door: plain-ASGI app, client, server.

See :mod:`repro.serving.http.app` for the endpoint and error-mapping
tables.  Typical wiring (what ``repro serve`` does)::

    from repro import ServingSpec, open_session
    from repro.serving.http import serve_gateway

    gateway = open_session(ServingSpec(...)).serve()
    asyncio.run(serve_gateway(gateway))   # host/port: ServingSpec.http
"""

from repro.serving.http.app import (
    ERROR_STATUS,
    GatewayHTTPApp,
    create_app,
    map_error,
)
from repro.serving.http.client import HTTPConnection, Response
from repro.serving.http.server import AsgiServer, run_uvicorn, serve_gateway
from repro.serving.http.wire import BadRequestError

__all__ = [
    "AsgiServer",
    "BadRequestError",
    "ERROR_STATUS",
    "GatewayHTTPApp",
    "HTTPConnection",
    "Response",
    "create_app",
    "map_error",
    "run_uvicorn",
    "serve_gateway",
]
