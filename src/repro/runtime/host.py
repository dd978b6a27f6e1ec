"""Live host runtime: one replica server as a real thread/process.

Each :class:`HostRuntime` is the live :class:`Substrate` under one
:class:`~repro.core.machines.interpreter.EffectInterpreter` — the same
interpreter, over the same sans-IO machines, that the DES backend runs.
The runtime owns only the execution substrate: the real clock, the
transport mailboxes, pickled migration (a fresh
:class:`~repro.core.machines.agent.AgentMachine` is built around every
arriving agent's shipped state), a table of timer deadlines checked at
every loop step (the loop blocks no longer than the earliest one), the
back-off RNG and the result records. This is the
Aglets-prototype-shaped half of the reproduction; consistency comes
from the shared kernel, not from re-implemented control flow.

Observability: when a hub is attached (injected, or process-wide via
:func:`repro.obs.enable` before the cluster starts), the interpreter
emits the same spans and metrics as under the DES. An agent's spans are
recorded by *several host threads* and stitched into one journey by the
trace context carried in its migrating state.
"""

from __future__ import annotations

import hashlib
import queue
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.machines.identity import AgentId
from repro.core.machines.agent import AgentMachine
from repro.core.machines.audit import commits_of
from repro.core.machines.config import LIVE_TUNABLES
from repro.core.machines.effects import Dispose
from repro.core.machines.interpreter import (
    EffectInterpreter,
    Resident,
    Substrate,
)
from repro.core.machines.replica import ReplicaMachine
from repro.runtime.shipping import LiveAgentState, ship, unship
from repro.runtime.transport import LiveMessage, LiveTransport

__all__ = ["HostRuntime", "LiveConfig", "now_ms", "stable_seed"]


def now_ms() -> float:
    """Wall clock in milliseconds (monotonic)."""
    return time.monotonic() * 1000.0


def stable_seed(host: str, seed: int = 0, salt: str = "") -> int:
    """A process-independent RNG seed for ``host``.

    ``hash(host)`` is salted by PYTHONHASHSEED and therefore differs
    between runs (and between the threads and forked processes of a
    cluster started with a different interpreter), which silently broke
    run-to-run reproducibility of the live back-off jitter. A sha256
    digest of ``seed:salt:host`` is stable everywhere.
    """
    digest = hashlib.sha256(f"{seed}:{salt}:{host}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class LiveConfig:
    """Tunables of the live runtime (all times in real ms).

    The protocol fields double as the kernel machines' tunables object
    (they are read per-use, so tests may mutate them) and default to the
    kernel's :data:`~repro.core.machines.config.LIVE_TUNABLES`; ``tick``
    is the runtime's own mailbox poll interval, the longest the loop
    blocks while no timer is due sooner.
    """

    park_timeout: float = LIVE_TUNABLES.park_timeout
    ack_timeout: float = LIVE_TUNABLES.ack_timeout
    grant_ttl: float = LIVE_TUNABLES.grant_ttl
    max_claims: int = LIVE_TUNABLES.max_claims
    claim_backoff: float = LIVE_TUNABLES.claim_backoff
    tick: float = 10.0
    enable_bulletin: bool = LIVE_TUNABLES.enable_bulletin


class HostRuntime(Substrate):
    """The event loop of one live replica host."""

    def __init__(
        self,
        host: str,
        peers: List[str],
        transport: LiveTransport,
        config: Optional[LiveConfig] = None,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.host = host
        self.peers = sorted(peers)
        self.transport = transport
        self.config = config or LiveConfig()
        self.seed = seed
        # Same zero-cost discipline as the DES components: resolve the
        # hub once, at construction. (With the thread backend all hosts
        # share the process hub, so spans from different hosts land in
        # one tracer and cross-hop parent links stay resolvable.)
        if obs is None:
            from repro.obs.hub import get_hub

            obs = get_hub()

        #: the replica-side protocol kernel (single-owner: only this
        #: runtime's thread feeds it).
        self.machine = ReplicaMachine(host, self.peers, self.config)
        self.interpreter = EffectInterpreter(
            host, self.machine, self, obs=obs, backend="live"
        )
        #: the loop's clock: the reading taken for the step in progress
        self._now = 0.0
        #: armed timers: fire callable -> deadline
        self._timers: Dict[Callable[[], None], float] = {}
        self._agent_seq = 0
        self._rng = random.Random(stable_seed(host, seed))
        self._stopping = False

    # ------------------------------------------------------------------

    def run(self) -> None:
        """The host's main loop; exits after STOP once the cluster is
        quiescent: no message in flight and no agent alive anywhere, so
        every COMMIT still on its way has landed first."""
        transport = self.transport
        transport.reseed(
            stable_seed(self.host, self.seed, salt="transport") & 0xFFFFFFFF
        )
        mailbox = transport.mailbox(self.host)
        timers = self._timers
        while True:
            # Block for a tick, or until the earliest timer is due.
            wait = self.config.tick
            if timers:
                wait = max(0.0, min(wait, min(timers.values()) - now_ms()))
            try:
                msg = mailbox.get(timeout=wait / 1000.0)
            except queue.Empty:
                msg = None
            now = now_ms()
            if msg is not None:
                self._dispatch(msg, now)
                transport.work_done()
            self._check_timers(now)
            if (
                self._stopping
                and not self.interpreter.claims
                and transport.quiescent()
            ):
                self._emit_final()
                return

    def _dispatch(self, msg: LiveMessage, now: float) -> None:
        self._now = now
        kind = msg.kind
        if kind == "WRITE":
            self._on_write(msg.payload, now)
        elif kind == "AGENT":
            self.interpreter.arrived(self._resident(unship(msg.payload)))
        elif kind == "STOP":
            self._stopping = True
        else:
            self.interpreter.deliver(kind, msg.payload, msg.src)

    def _resident(self, state: LiveAgentState) -> Resident:
        return Resident(AgentMachine(state, self.peers, self.config))

    def _on_write(self, p: dict, now: float) -> None:
        self._agent_seq += 1
        self.transport.work_began()  # the agent, until it is disposed
        self.interpreter.launch(self._resident(LiveAgentState(
            agent_id=AgentId(self.host, now, self._agent_seq),
            home=self.host,
            batch_id=p["request_id"],
            requests=[
                (p["request_id"], p["key"], p["value"], p["created_at"])
            ],
            tour_remaining=[h for h in self.peers if h != self.host],
            location=self.host,
        )))

    def _check_timers(self, now: float) -> None:
        self._now = now
        due = [
            fire for fire, deadline in self._timers.items() if now >= deadline
        ]
        for fire in due:
            del self._timers[fire]
            fire()

    # -- substrate ---------------------------------------------------------

    def now(self) -> float:
        return self._now

    def send(self, dst, kind, payload, category="control") -> None:
        self.transport.send(
            LiveMessage(kind=kind, src=self.host, dst=dst, payload=payload)
        )

    def broadcast(self, kind, payload) -> None:
        for peer in self.peers:
            self.send(peer, kind, payload)

    def set_timer(self, delay, fire) -> None:
        self._timers[fire] = self._now + delay

    def cancel_timer(self, fire) -> None:
        self._timers.pop(fire, None)

    def ship_agent(self, agent, dst) -> None:
        blob = ship(agent.machine.state)
        delay = self.transport.send(
            LiveMessage(
                kind="AGENT", src=self.host, dst=dst, payload=blob,
                size_bytes=len(blob),
            )
        )
        if delay < 0:
            # Blocked link — the live equivalent of the paper's
            # failed-migration detection.
            self.interpreter.unreachable(agent, dst)

    def choose(self, agent, candidates) -> str:
        # The live itinerary is static name order.
        return min(candidates)

    def sample_backoff(self, agent, mean) -> float:
        return self._rng.expovariate(1.0 / mean)

    def disposed(self, agent, effect: Dispose) -> None:
        state: LiveAgentState = agent.machine.state
        committed = effect.status == "committed"
        request_ids = (
            [write.request_id for write in effect.writes] if committed
            else [request[0] for request in state.requests]
        )
        for request_id in request_ids:
            self.transport.results.put(
                {
                    "type": "record",
                    "request_id": request_id,
                    "status": "committed" if committed else "failed",
                    "home": state.home,
                    "dispatched_at": state.dispatched_at,
                    "lock_acquired_at": (
                        state.lock_acquired_at if committed else None
                    ),
                    "completed_at": self._now,
                    "visits_to_lock": (
                        state.visits_to_lock if committed else None
                    ),
                    "hops": state.hops,
                    "agent_id": str(state.agent_id),
                }
            )
        self.transport.work_done()

    # -- shutdown ----------------------------------------------------------

    def _emit_final(self) -> None:
        self.transport.results.put(
            {
                "type": "final",
                "host": self.host,
                "store": {
                    key: (repr(entry.value), entry.version)
                    for key, entry in self.machine.store.snapshot().items()
                },
                "history": list(commits_of(self.machine.history)),
                "locking_list_len": len(self.machine.locking_list),
                "parked": len(self.interpreter.parked),
            }
        )
