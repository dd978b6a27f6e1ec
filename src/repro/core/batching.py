"""Request batching (paper §3.2).

"After a pre-defined number of requests have been received or
periodically, a mobile agent will be created and dispatched by Si for
processing the requests." One agent then carries the whole batch as its
Request List and commits every write under a single lock acquisition —
amortising migrations and the UPDATE/COMMIT rounds (ablation A3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.replication.requests import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MARP

__all__ = ["BatchDispatcher"]


class BatchDispatcher:
    """Per-home buffering of write requests into agent batches."""

    def __init__(self, marp: "MARP") -> None:
        self.marp = marp
        self.batch_size = marp.config.batch_size
        self.flush_interval = marp.config.batch_flush_interval
        self._buffers: Dict[str, List[RequestRecord]] = {}
        self._flusher_running: Dict[str, bool] = {}
        self.flushes = 0
        self.timer_flushes = 0

    def add(self, record: RequestRecord) -> None:
        """Buffer one write; dispatch when the batch fills."""
        buffer = self._buffers.setdefault(record.home, [])
        buffer.append(record)
        if len(buffer) >= self.batch_size:
            self._flush(record.home)
        elif not self._flusher_running.get(record.home):
            self._flusher_running[record.home] = True
            self.marp.env.call_in(
                self.flush_interval, self._flush_timer, record.home
            )

    def _flush(self, home: str) -> None:
        buffer = self._buffers.get(home)
        if not buffer:
            return
        records, self._buffers[home] = list(buffer), []
        self.flushes += 1
        self.marp.launch_agent(home, records)

    def _flush_timer(self, home: str) -> None:
        """Periodic dispatch of partial batches ("or periodically")."""
        self._flusher_running[home] = False
        if self._buffers.get(home):
            self.timer_flushes += 1
            self._flush(home)

    def pending(self, home: str) -> int:
        return len(self._buffers.get(home, ()))

    def __repr__(self) -> str:
        return (
            f"<BatchDispatcher size={self.batch_size} "
            f"flushes={self.flushes}>"
        )
