"""Server-sent-event encoding and the subscriber backpressure queue.

SSE framing (``text/event-stream``) is line-oriented::

    id: 7
    event: freq_step
    data: {"domain": "int", ...}
    <blank line>

:func:`format_sse` produces one such frame.  :class:`DropOldestQueue`
is the per-subscriber buffer between the job executor (which may be a
worker thread publishing thousands of probe events) and the consuming
connection (which may be a slow client on a bad link).  The policy is
**bounded, drop-oldest**: when the queue is full the oldest undelivered
event is discarded and counted, so a slow consumer sees the most recent
window of the stream rather than stalling the producer or growing the
heap without bound.  Drops are surfaced to the client (a ``drops``
frame before the terminal event) and to operators as the
``repro_serve_sse_dropped_total`` counter on ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import collections
import json
from typing import Any, Deque, Optional


def format_sse(
    data: Any,
    event: Optional[str] = None,
    event_id: Optional[int] = None,
) -> bytes:
    """Encode one server-sent event frame.

    ``data`` is JSON-encoded unless it is already a string.  Multi-line
    data is split across ``data:`` lines per the SSE spec.
    """
    text = data if isinstance(data, str) else json.dumps(data, sort_keys=True)
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    for part in text.split("\n"):
        lines.append(f"data: {part}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


# statcheck: loop-confined
class DropOldestQueue:
    """Bounded single-consumer queue that sheds the oldest item when full.

    ``put`` never blocks (it is called from the event loop by
    thread-safe callbacks and must not await); ``get`` awaits the next
    item.  ``close`` wakes the consumer with ``None`` after the buffered
    items drain.  Loop-confined: producers on other threads must enter
    via ``loop.call_soon_threadsafe(queue.put, item)``.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.dropped = 0
        self._items: Deque[Any] = collections.deque()
        self._closed = False
        self._wakeup: Optional[asyncio.Future] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        """Enqueue ``item``, dropping the oldest entry if at capacity."""
        if self._closed:
            return
        if len(self._items) >= self.maxsize:
            self._items.popleft()
            self.dropped += 1
        self._items.append(item)
        self._wake()

    def close(self) -> None:
        """No more items; the consumer sees ``None`` after the backlog."""
        self._closed = True
        self._wake()

    def _wake(self) -> None:
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.done():
            wakeup.set_result(None)

    async def get(self) -> Optional[Any]:
        """Next item, or ``None`` once closed and drained."""
        while True:
            if self._items:
                return self._items.popleft()
            if self._closed:
                return None
            loop = asyncio.get_running_loop()
            self._wakeup = loop.create_future()
            try:
                await self._wakeup
            finally:
                self._wakeup = None
