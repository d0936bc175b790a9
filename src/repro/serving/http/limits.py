"""Edge admission control: per-tenant token buckets for the HTTP door.

The gateway already has *queue* admission control (``QueueFullError`` →
429 once a batch queue fills); the limiter here is the cheaper edge
layer in front of it — drop a flooding tenant's requests before they
cost a queue slot or a batch seat.  Buckets are classic token buckets:
``rps`` tokens refill per second up to ``burst`` capacity, one token
per request, and a drained bucket reports how long until the next token
so the 429 can carry an honest ``Retry-After``.
"""

from __future__ import annotations

import math
import threading
import time


class RateLimiter:
    """The token-bucket policy: one rate and burst for every tenant.

    A bucket is the ``(tokens, last refill time)`` pair on the tenant's
    :class:`~repro.serving.session.TenantSession` (``rate_bucket``), so it
    lives exactly as long as the registration: a tenant removed and
    registered again under the same name starts with a full bucket.
    ``clock`` is injectable (monotonic seconds) so tests refill buckets
    without sleeping.  Thread-safe: the HTTP edge may check limits from
    multiple event-loop callbacks or server threads.
    """

    def __init__(self, rps: float, burst: int | None = None, *,
                 clock=time.monotonic):
        if rps <= 0.0:
            raise ValueError(f"rps must be > 0, got {rps}")
        #: default burst: one second of refill, at least one token
        self.rps = float(rps)
        self.burst = int(burst) if burst is not None else max(1, math.ceil(rps))
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._clock = clock
        self._lock = threading.Lock()

    def try_acquire(self, session) -> float:
        """Take one token from ``session.rate_bucket``; returns seconds to
        wait (0.0 = admitted).

        A positive return means the bucket is drained: the caller should
        reject the request and surface the value as ``Retry-After``.
        """
        now = self._clock()
        with self._lock:
            tokens, last = session.rate_bucket or (float(self.burst), now)
            tokens = min(float(self.burst), tokens + (now - last) * self.rps)
            if tokens >= 1.0:
                session.rate_bucket = (tokens - 1.0, now)
                return 0.0
            session.rate_bucket = (tokens, now)
            return (1.0 - tokens) / self.rps
