"""Live cluster orchestration.

Spins up one :class:`~repro.runtime.host.HostRuntime` per replica as a
real thread (default) or OS process, submits client writes, collects
completion records from the results queue, and performs a live
consistency audit at shutdown.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.machines.audit import AuditReport, check_histories
from repro.errors import ReplicationError
from repro.runtime.host import HostRuntime, LiveConfig, now_ms
from repro.runtime.transport import LiveMessage, LiveTransport

__all__ = ["LiveCluster"]


class LiveCluster:
    """A cluster of live replica hosts (threads or processes)."""

    def __init__(
        self,
        n_replicas: int = 3,
        backend: str = "thread",
        config: Optional[LiveConfig] = None,
        latency_range: Tuple[float, float] = (1.0, 4.0),
        seed: int = 0,
        obs=None,
    ) -> None:
        if n_replicas < 1:
            raise ReplicationError(f"need at least 1 replica: {n_replicas}")
        self.hosts = [f"h{i}" for i in range(1, n_replicas + 1)]
        self.backend = backend
        self.config = config or LiveConfig()
        self.transport = LiveTransport(
            self.hosts, backend=backend, latency_range=latency_range,
            seed=seed,
        )
        # obs=None lets each HostRuntime resolve the process-wide hub;
        # with the thread backend all hosts then share one tracer, which
        # is what makes cross-hop journeys reassemble (process-backend
        # hosts record into fork-copied hubs whose contents are lost).
        self.runtimes = {
            host: HostRuntime(
                host, self.hosts, self.transport, self.config, seed=seed,
                obs=obs,
            )
            for host in self.hosts
        }
        self._workers: List[Any] = []
        self._request_seq = 0
        self._started = False
        self._finals: Dict[str, dict] = {}
        self.records: Dict[int, dict] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "LiveCluster":
        if self._started:
            return self
        self._started = True
        for host, runtime in self.runtimes.items():
            if self.backend == "thread":
                worker = threading.Thread(
                    target=runtime.run, name=f"live-{host}", daemon=True
                )
            else:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
                worker = ctx.Process(
                    target=runtime.run, name=f"live-{host}", daemon=True
                )
            worker.start()
            self._workers.append(worker)
        return self

    def __enter__(self) -> "LiveCluster":
        return self.start()

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.shutdown()

    # -- client API --------------------------------------------------------------

    def submit_write(self, home: str, key: str, value: Any) -> int:
        """Submit one update; returns the request id."""
        if home not in self.runtimes:
            raise ReplicationError(f"unknown home host {home!r}")
        if not self._started:
            raise ReplicationError("cluster not started")
        self._request_seq += 1
        request_id = self._request_seq
        self.transport.send(
            LiveMessage(
                kind="WRITE",
                src="client",
                dst=home,
                payload={
                    "request_id": request_id,
                    "key": key,
                    "value": value,
                    "created_at": now_ms(),
                },
            )
        )
        return request_id

    def wait_for(self, n_records: int, timeout: float = 30.0) -> List[dict]:
        """Block until ``n_records`` completions arrive (wall seconds)."""
        deadline = time.monotonic() + timeout
        while len(self.records) < n_records:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(self.records)}/{n_records} records after "
                    f"{timeout}s"
                )
            try:
                item = self.transport.results.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            if item.get("type") == "record":
                self.records[item["request_id"]] = item
            elif item.get("type") == "final":
                self._finals[item["host"]] = item
        return [self.records[k] for k in sorted(self.records)]

    # -- shutdown & audit -----------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> Dict[str, dict]:
        """Stop all hosts and collect their final dumps."""
        if not self._started:
            return {}
        for host in self.hosts:
            self.transport.send(
                LiveMessage(kind="STOP", src="client", dst=host)
            )
        deadline = time.monotonic() + timeout
        while len(self._finals) < len(self.hosts):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self.transport.results.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            if item.get("type") == "final":
                self._finals[item["host"]] = item
            elif item.get("type") == "record":
                self.records[item["request_id"]] = item
        for worker in self._workers:
            worker.join(timeout=2.0)
        return dict(self._finals)

    def audit(self) -> AuditReport:
        """Run the kernel's consistency checker over every host's final
        dump. A host whose dump never arrived (it was still wedged at
        the shutdown deadline) has no final state, so the audit cannot
        read consistent."""
        histories, stores = {}, {}
        for host in self.hosts:
            dump = self._finals.get(host)
            histories[host] = dump["history"] if dump else ()
            stores[host] = [
                (key, version, value)
                for key, (value, version) in dump["store"].items()
            ] if dump else None
        return check_histories(histories, stores)

    def __repr__(self) -> str:
        return (
            f"<LiveCluster backend={self.backend} hosts={self.hosts} "
            f"records={len(self.records)}>"
        )
