"""Admission control: in-flight caps, arrival limiting, shed hints.

The service's overload story (ROADMAP item 1; the progressiveness
papers in PAPERS.md motivate surfacing denial as first-class
backpressure): instead of queueing without bound and letting latency
diverge, the server *sheds* work it cannot start soon, answering
``overloaded`` with a ``retry_after_ms`` hint.  Three independent
gates, checked for a whole decoded burst before any of it runs:

* **per-connection in-flight cap** -- bounds how far one pipelined
  client can run ahead of its own responses;
* **global in-flight cap** -- bounds total decoded-but-unanswered
  requests across every connection thread;
* **token bucket** -- optional arrival-rate limit smoothing bursts.

The controller itself takes no lock: the server calls it under the one
lock it also holds for its metrics registry.

The backoff hint grows linearly with how overloaded the gate is, so a
herd of shed clients spreads its retries instead of returning in
lockstep; clients add their own jitter (:mod:`repro.serve.client`).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``try_take`` returns 0.0 when a token was taken, else the seconds
    until one will exist.  The clock is injectable so tests are
    deterministic.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate
            )
        self._stamp = now

    def try_take(self) -> float:
        now = self._clock()
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Decides, per request, admit vs shed-with-hint.

    Not thread-safe by itself: the server serialises every call
    under its one lock.  ``admit`` returns ``(True, None)`` or
    ``(False, retry_after_ms)``; an admitted request must be balanced
    by exactly one ``release`` once its response is built.
    """

    def __init__(
        self,
        max_inflight: int = 256,
        max_inflight_per_conn: int = 32,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        shed_backoff_ms: int = 25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight < 1 or max_inflight_per_conn < 1:
            raise ValueError("in-flight caps must be >= 1")
        self.max_inflight = max_inflight
        self.max_inflight_per_conn = max_inflight_per_conn
        self.shed_backoff_ms = shed_backoff_ms
        self.bucket = (
            TokenBucket(rate, burst if burst else rate, clock=clock)
            if rate
            else None
        )
        self.inflight = 0
        self.inflight_high_water = 0
        self.shed_total = 0

    def _hint(self, scale: float = 1.0) -> int:
        """Backoff hint: grows with global pressure, never below 1ms."""
        pressure = self.inflight / float(self.max_inflight)
        return max(1, int(self.shed_backoff_ms * (1.0 + pressure) * scale))

    def admit(self, conn_inflight: int) -> Tuple[bool, Optional[int]]:
        if conn_inflight >= self.max_inflight_per_conn:
            self.shed_total += 1
            return False, self._hint()
        if self.inflight >= self.max_inflight:
            self.shed_total += 1
            return False, self._hint(2.0)
        if self.bucket is not None:
            wait = self.bucket.try_take()
            if wait > 0.0:
                self.shed_total += 1
                return False, max(1, int(wait * 1000.0))
        self.inflight += 1
        if self.inflight > self.inflight_high_water:
            self.inflight_high_water = self.inflight
        return True, None

    def release(self, count: int = 1) -> None:
        self.inflight -= count
        if self.inflight < 0:  # pragma: no cover - defensive
            self.inflight = 0
