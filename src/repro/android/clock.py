"""Simulated time for the whole device.

The paper's experiment is paced in real time -- 100 ms between successive
intents and an extra 250 ms every 100 intents, with 5 s ANR timeouts for
broadcast-style work and watchdog windows for the system server.  Replaying
1.5M injections at that pace would take ~2 days of wall clock, so the
simulator runs on a virtual monotonic clock: sleeping advances the clock
instantly, while every relative relationship (pacing vs. ANR timeout vs.
aging decay window) is preserved.

The clock also provides a tiny deadline scheduler used by the ANR watchdog
and the system server's health checks.  The fuzzer paces its injections
with plain :meth:`Clock.sleep` calls; every callback due in the slept
interval fires, in deadline order, before the sleep returns.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Callable, List, Optional

# Compacting a tiny queue costs more bookkeeping than it saves; below this
# size cancelled entries are simply left for advance_to/drain to skip.
_COMPACT_MIN_QUEUE = 8


@dataclasses.dataclass(order=True)
class _ScheduledCall:
    deadline_ms: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)


class Clock:
    """A virtual monotonic millisecond clock with deadline callbacks."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)
        self._queue: List[_ScheduledCall] = []
        self._seq = itertools.count()
        self._cancelled_count = 0

    # -- time ------------------------------------------------------------------
    def now_ms(self) -> float:
        """Current virtual time in milliseconds since boot."""
        return self._now_ms

    def uptime_millis(self) -> int:
        """Android's ``SystemClock.uptimeMillis()`` analogue."""
        return int(self._now_ms)

    def sleep(self, duration_ms: float) -> None:
        """Advance time by *duration_ms*, firing any due callbacks in order."""
        if duration_ms < 0:
            raise ValueError(f"cannot sleep a negative duration: {duration_ms}")
        self.advance_to(self._now_ms + duration_ms)

    def advance_to(self, deadline_ms: float) -> None:
        """Advance time to *deadline_ms* (no-op if already past)."""
        if deadline_ms < self._now_ms:
            return
        while self._queue and self._queue[0].deadline_ms <= deadline_ms:
            call = heapq.heappop(self._queue)
            if call.cancelled:
                self._cancelled_count -= 1
                continue
            # Jump to the callback's own deadline before running it so the
            # callback observes a consistent "now".  Callbacks scheduled
            # re-entrantly from inside a callback -- even at exactly this
            # deadline -- land behind it in the heap (same deadline, higher
            # seq) and fire in scheduling order on the next loop iteration.
            self._now_ms = max(self._now_ms, call.deadline_ms)
            call.callback()
        self._now_ms = max(self._now_ms, deadline_ms)

    # -- scheduling --------------------------------------------------------------
    def call_at(self, deadline_ms: float, callback: Callable[[], None]) -> "ScheduledHandle":
        """Run *callback* when time reaches *deadline_ms*."""
        call = _ScheduledCall(deadline_ms=deadline_ms, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, call)
        return ScheduledHandle(call, self)

    def call_after(self, delay_ms: float, callback: Callable[[], None]) -> "ScheduledHandle":
        """Run *callback* after *delay_ms* of virtual time."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        return self.call_at(self._now_ms + delay_ms, callback)

    def pending_count(self) -> int:
        return len(self._queue) - self._cancelled_count

    def cancelled_count(self) -> int:
        """Cancelled-but-not-yet-reaped entries still occupying the heap."""
        return self._cancelled_count

    def _cancel(self, call: _ScheduledCall) -> None:
        if call.cancelled:
            return
        call.cancelled = True
        self._cancelled_count += 1
        # Long fleet runs arm and cancel watchdog timers constantly; once
        # dead entries dominate the heap, rebuild it so memory stays bounded
        # by the number of *live* timers.
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_count * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        self._queue = [entry for entry in self._queue if not entry.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_count = 0

    def drain(self, horizon_ms: Optional[float] = None) -> None:
        """Run all pending callbacks up to *horizon_ms* (default: all)."""
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                self._cancelled_count -= 1
                continue
            if horizon_ms is not None and head.deadline_ms > horizon_ms:
                break
            self.advance_to(head.deadline_ms)


class ScheduledHandle:
    """Cancellation handle returned by :meth:`Clock.call_at`."""

    def __init__(self, call: _ScheduledCall, clock: Optional[Clock] = None) -> None:
        self._call = call
        self._clock = clock

    def cancel(self) -> None:
        if self._clock is not None:
            self._clock._cancel(self._call)
        else:
            self._call.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._call.cancelled

    @property
    def deadline_ms(self) -> float:
        return self._call.deadline_ms
