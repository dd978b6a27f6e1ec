"""Live transport: real queues with injected latency.

Each host owns a mailbox (``queue.Queue`` for the thread backend,
``multiprocessing.Queue`` for the process backend). A send samples a
uniformly random delay and hands the message to the *sending* process's
delivery courier: one daemon thread draining one heap of
``(due, seq, mailbox, msg)`` in due order, so messages really do arrive
asynchronously and out of order (a later send with a shorter delay
overtakes an earlier one) — the live equivalent of the DES network.
Sub-tick delays are delivered synchronously.

The courier starts on the first delayed send in a process. A thread
does not survive ``fork``, so a forked process-backend host gets an
empty courier of its own and starts its thread on its first send.

The transport also keeps the cluster's outstanding-work count, which is
how a stopping host knows nothing is left in flight (see
:meth:`LiveTransport.quiescent`).
"""

from __future__ import annotations

import heapq
import os
import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import NetworkError

__all__ = ["LiveMessage", "LiveTransport"]


@dataclass
class LiveMessage:
    """One transmission between live hosts (must be picklable)."""

    kind: str
    src: str
    dst: str
    payload: Any = None
    size_bytes: int = 0


class _Courier:
    """Delivers delayed messages of this process in due order."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._ready = threading.Condition(threading.Lock())
        self._thread = None

    def post(self, delay_ms: float, mailbox, msg: LiveMessage) -> None:
        due = time.monotonic() + delay_ms / 1000.0
        with self._ready:
            self._seq += 1
            heapq.heappush(self._heap, (due, self._seq, mailbox, msg))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="live-courier", daemon=True
                )
                self._thread.start()
            elif self._heap[0][1] == self._seq:
                self._ready.notify()  # the new message is due first

    def _run(self) -> None:
        heap, ready = self._heap, self._ready
        while True:
            with ready:
                now = time.monotonic()
                while not heap or heap[0][0] > now:
                    ready.wait(heap[0][0] - now if heap else None)
                    now = time.monotonic()
                due = []
                while heap and heap[0][0] <= now:
                    due.append(heapq.heappop(heap))
            # Put outside the lock, so a send never waits on a mailbox.
            for _, _, mailbox, msg in due:
                mailbox.put(msg)


#: This process's courier, shared by every transport in it: one thread
#: for the life of the process, however many clusters come and go.
_courier = _Courier()


def _fresh_courier() -> None:
    # The child of a fork has the parent's heap but not its thread, and
    # perhaps a lock the thread held: start over, empty.
    global _courier
    _courier = _Courier()


os.register_at_fork(after_in_child=_fresh_courier)


class _Count:
    """The thread backend's work count (``value``, as a shared cell's)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class LiveTransport:
    """Mailbox fabric shared by all hosts of one live cluster."""

    def __init__(
        self,
        hosts,
        backend: str = "thread",
        latency_range: Tuple[float, float] = (1.0, 4.0),
        bandwidth_bytes_per_ms: float = 1e5,
        seed: int = 0,
    ) -> None:
        if backend not in ("thread", "process"):
            raise NetworkError(f"unknown live backend {backend!r}")
        low, high = latency_range
        if not 0 <= low <= high:
            raise NetworkError(f"invalid latency range {latency_range}")
        self.backend = backend
        self.hosts = list(hosts)
        self.latency_range = (low, high)
        self.bandwidth = bandwidth_bytes_per_ms
        # Outstanding work of the whole cluster: messages sent and not
        # yet dispatched, plus agents launched and not yet disposed. An
        # int under a lock for threads; for processes one shared-memory
        # cell, so forked hosts count into it too (the only start-up
        # that loads multiprocessing).
        if backend == "thread":
            self.mailboxes: Dict[str, Any] = {
                h: queue.Queue() for h in self.hosts
            }
            self.results: Any = queue.Queue()
            self._work_lock: Any = threading.Lock()
            self._work: Any = _Count()
        else:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self.mailboxes = {h: ctx.Queue() for h in self.hosts}
            self.results = ctx.Queue()
            work = ctx.Value("q", 0)
            self._work_lock = work.get_lock()
            self._work = work.get_obj()
        # stdlib RNG: picklable-free per-runtime usage; each runtime gets
        # its own child seed in practice, here one shared lock suffices
        # for the thread backend and each forked process re-seeds.
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        # blocked (src, dst) pairs: transmissions are silently dropped.
        # Thread backend only (shared set); process runtimes fork a copy.
        self._blocked: set = set()

    # -- fault injection (thread backend) ---------------------------------

    def block(self, src: str, dst: str) -> None:
        """Drop everything sent on this link (both directions)."""
        self._blocked.add((src, dst))
        self._blocked.add((dst, src))

    def unblock(self, src: str, dst: str) -> None:
        """Restore a previously blocked link."""
        self._blocked.discard((src, dst))
        self._blocked.discard((dst, src))

    def isolate(self, host: str) -> None:
        """Cut every link to/from ``host`` (a live 'crash')."""
        for other in self.hosts:
            if other != host:
                self.block(host, other)

    def heal(self, host: str) -> None:
        """Reconnect an isolated host."""
        for other in self.hosts:
            if other != host:
                self.unblock(host, other)

    def reseed(self, salt: int) -> None:
        """Called by forked runtimes so children diverge deterministically."""
        self._rng = random.Random(salt)
        self._rng_lock = threading.Lock()

    def _delay_ms(self, size_bytes: int) -> float:
        with self._rng_lock:
            base = self._rng.uniform(*self.latency_range)
        return base + size_bytes / self.bandwidth

    def send(self, msg: LiveMessage) -> float:
        """Schedule delivery; returns the sampled delay in ms.

        Returns ``-1.0`` when the link is blocked (message dropped).
        A message not dropped counts as outstanding work until its host
        has dispatched it (:meth:`work_done`).
        """
        if msg.dst not in self.mailboxes:
            raise NetworkError(f"unknown destination {msg.dst!r}")
        if (msg.src, msg.dst) in self._blocked:
            return -1.0
        delay = self._delay_ms(msg.size_bytes)
        mailbox = self.mailboxes[msg.dst]
        self.work_began()
        if delay < 0.05:  # sub-tick delays: deliver synchronously
            mailbox.put(msg)
        else:
            _courier.post(delay, mailbox, msg)
        return delay

    def mailbox(self, host: str):
        return self.mailboxes[host]

    # -- quiescence ----------------------------------------------------------

    def work_began(self) -> None:
        """One more unit of outstanding work (a send, an agent launch)."""
        with self._work_lock:
            self._work.value += 1

    def work_done(self) -> None:
        """One unit is over (a message dispatched, an agent disposed)."""
        with self._work_lock:
            self._work.value -= 1

    def quiescent(self) -> bool:
        """Nothing is in flight and no agent is alive, cluster-wide."""
        with self._work_lock:
            return self._work.value == 0

    def __repr__(self) -> str:
        return (
            f"<LiveTransport backend={self.backend} hosts={len(self.hosts)} "
            f"latency={self.latency_range}>"
        )
