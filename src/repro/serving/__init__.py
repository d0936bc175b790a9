"""Async micro-batching gateway serving function-calling requests at scale.

The serving layer turns the repo's batched kernels (vectorized
``encode``, multi-query ``search_arrays``) into cross-request
throughput: an asyncio :class:`Gateway` accepts requests from many
tenants, a :class:`BatchScheduler` coalesces concurrently-waiting
requests into micro-batches (a free worker cuts whatever is queued; no
flush timer), the whole batch is planned through one vectorized pass per
tenant, and each episode then runs through the unchanged agent
machinery.  Because every kernel involved is batch-invariant, a served
episode is identical to the same query run sequentially through the
:class:`~repro.evaluation.runner.ExperimentRunner`.

Quickstart::

    from repro.serving import Gateway, SessionManager
    from repro.specs import ServingSpec
    from repro.suites import load_suite

    sessions = SessionManager()
    sessions.register("home", load_suite("edgehome"))
    async with Gateway(sessions, ServingSpec(max_batch_size=32)) as gw:
        response = await gw.submit("home", "edgehome-q001")
        print(response.episode.success, response.batch_size)
"""

from repro.serving.batcher import (
    BatchScheduler,
    PendingRequest,
    QueueFullError,
    SchedulerStoppedError,
)
from repro.power import BudgetController, EnergyMeter
from repro.serving.faults import FaultInjector, InjectedFaultError
from repro.serving.gateway import (
    DeadlineExceededError,
    Gateway,
    ServingResponse,
    TenantShedError,
    WorkItem,
)
from repro.serving.loadgen import (
    LoadReport,
    LoadSpec,
    make_workload,
    run_closed_loop,
    run_load,
)
from repro.serving.http import (
    AsgiServer,
    GatewayHTTPApp,
    HTTPConnection,
    create_app,
    serve_gateway,
)
from repro.serving.session import SessionManager, TenantSession, UnknownTenantError
from repro.serving.telemetry import Telemetry, percentile

__all__ = [
    "AsgiServer",
    "BatchScheduler",
    "BudgetController",
    "DeadlineExceededError",
    "EnergyMeter",
    "FaultInjector",
    "Gateway",
    "GatewayHTTPApp",
    "HTTPConnection",
    "InjectedFaultError",
    "LoadReport",
    "LoadSpec",
    "PendingRequest",
    "QueueFullError",
    "SchedulerStoppedError",
    "ServingResponse",
    "SessionManager",
    "Telemetry",
    "TenantShedError",
    "TenantSession",
    "UnknownTenantError",
    "WorkItem",
    "create_app",
    "make_workload",
    "percentile",
    "run_closed_loop",
    "run_load",
    "serve_gateway",
]
