"""Every protocol as data: one row per protocol.

MARP and the protocols the paper measures it against (§1 builds it on
MCV; T1/T2 compare them) each run as three kernel machines, which its
:class:`ProtocolRow` names: the participant every host runs (MARP's is
the replica itself, Algorithm 2), the write at the request's home
(MARP's an update agent, Algorithm 1) and the quorum read, or none
(read-one). A baseline's prefix (``MCV_LOCK``, ``WV_GRANT``, …) keeps
its kinds from the MARP replica's. :func:`protocol_row` builds a row of
:data:`ROWS`, which rejects another row's setting with ``TypeError``;
the DES driver (:class:`~repro.replication.protocol.ReplicationProtocol`)
and the replay harness (:meth:`~repro.core.machines.replay.KernelHarness.attach`)
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.coordinators import (
    ForwardMachine, LadderMachine, VotingMachine,
)
from repro.core.machines.effects import Broadcast
from repro.core.machines.identity import AgentId
from repro.core.machines.participants import CopyKeeper, LockKeeper
from repro.core.machines.reader import ReaderMachine

__all__ = [
    "ProtocolRow", "ROWS", "ITINERARIES", "protocol_row", "check_votes",
]

#: The itinerary policies a MARP agent may follow (the substrate's
#: ``choose``): the paper's, and the A1 ablation's.
ITINERARIES = (
    "cost-sorted", "initial-cost-order", "static-order", "random-order",
)


@dataclass(frozen=True)
class ProtocolRow:
    """One protocol over a set of hosts: its name, the prefix of its
    message kinds, its settings (validated, defaults filled in) and the
    three machines it builds."""

    name: str
    prefix: str
    settings: Dict[str, Any]
    #: ``(host, replica)`` -> the participant ``host`` runs; ``None``:
    #: the replica itself (MARP)
    participant: Optional[Callable[[str, Any], Any]]
    #: ``(request_id, key, value, home)`` -> the write's coordinator
    write: Callable[[int, str, Any, str], Any]
    #: ``(request_id, key, home)`` -> the quorum read; ``None``: read-one
    reader: Optional[Callable[[int, str, str], ReaderMachine]]


def check_votes(votes: Mapping[str, int], hosts: Sequence[str]) -> int:
    """Validate Gifford vote weights over ``hosts``; their total."""
    unknown = sorted(set(votes) - set(hosts))
    if unknown:
        raise ValueError(f"votes for hosts not deployed: {unknown}")
    if any(weight < 0 for weight in votes.values()):
        raise ValueError(f"vote weights must be >= 0: {dict(votes)}")
    total = sum(votes.values())
    if total < 1:
        raise ValueError(f"total votes must be >= 1: {total}")
    return total


def marp(hosts: Sequence[str], votes: Optional[Dict[str, int]] = None,
         itinerary: str = "cost-sorted", read_strategy: str = "local",
         batch_size: int = 1) -> ProtocolRow:
    """MARP, the paper's protocol: each write travels as an update agent,
    carrying one request or ``batch_size`` of them (§3.2), around the
    hosts in ``itinerary`` order until it tops a majority of Locking
    Lists, by count or by ``votes`` (§5's "generic method"). A read is
    local or, with ``read_strategy="quorum"``, a majority ``READQ``
    round ([D5]). Its agents run on :data:`DES_TUNABLES`."""
    if votes is not None:
        check_votes(votes, hosts)
    if itinerary not in ITINERARIES:
        raise ValueError(f"unknown itinerary strategy {itinerary!r}")
    if read_strategy not in ("local", "quorum"):
        raise ValueError(f"unknown read strategy {read_strategy!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")

    def write(request_id, key, value, home, agent_id: Optional[AgentId] = None,
              requests=None) -> AgentMachine:
        # A batch names its agent by its first request; a substrate
        # passes the agent's id and the whole Request List.
        if requests is None:
            requests = [(request_id, key, value)]
        elif not requests:
            raise ValueError("an update agent needs at least one request")
        return AgentMachine(AgentCoreState(
            agent_id=agent_id or AgentId(home, 0.0, request_id),
            home=home,
            batch_id=request_id,
            requests=requests,
            tour_remaining=set(hosts) - {home},
            location=home,
        ), hosts, DES_TUNABLES, votes=votes)

    def reader(request_id, key, home) -> ReaderMachine:
        return ReaderMachine(request_id, Broadcast("READQ", {
            "request_id": request_id, "key": key,
        }), len(hosts) // 2 + 1, DES_TUNABLES.ack_timeout)

    return ProtocolRow("marp", "", dict(
        votes=votes, itinerary=itinerary, read_strategy=read_strategy,
        batch_size=batch_size,
    ), None, write, reader if read_strategy == "quorum" else None)


def _voting_row(name: str, prefix: str, hosts: Sequence[str],
                detection_timeout: Optional[float] = None, /,
                votes: Optional[Dict[str, int]] = None,
                write_quorum: Optional[int] = None,
                read_quorum: Optional[int] = None,
                lock_timeout: float = 500.0, lock_ttl: float = 10_000.0,
                retry_backoff: float = 25.0, max_rounds: int = 20,
                enforce_quorum_intersection: bool = True) -> ProtocolRow:
    """A row of :class:`LockKeeper` participants: voting rounds or,
    given a ``detection_timeout``, Available Copies' queued locks and
    ladder. Votes are one per host unless given, each quorum a majority
    of them unless given; a read quorum of one vote reads locally."""
    votes = dict(votes or {host: 1 for host in hosts})
    total = check_votes(votes, hosts)
    if lock_timeout <= 0:
        raise ValueError(f"lock_timeout must be > 0: {lock_timeout}")
    if lock_ttl <= 0:
        # every lease would be expired as it is granted
        raise ValueError(f"lock_ttl must be > 0: {lock_ttl}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1: {max_rounds}")
    if write_quorum is None:
        write_quorum = total // 2 + 1
    if read_quorum is None:
        read_quorum = total // 2 + 1
    if enforce_quorum_intersection:
        # Gifford's constraints; available-copies deliberately opts
        # out (that is exactly its partition vulnerability).
        if write_quorum + read_quorum <= total:
            raise ValueError(
                f"r + w must exceed total votes: r={read_quorum} "
                f"w={write_quorum} total={total}"
            )
        if 2 * write_quorum <= total:
            raise ValueError(
                f"w must exceed half the votes: w={write_quorum} "
                f"total={total}"
            )
    settings = dict(
        votes=votes, write_quorum=write_quorum, read_quorum=read_quorum,
        lock_timeout=lock_timeout, lock_ttl=lock_ttl,
        retry_backoff=retry_backoff, max_rounds=max_rounds,
        enforce_quorum_intersection=enforce_quorum_intersection,
    )
    queue = detection_timeout is not None

    def participant(host, replica) -> LockKeeper:
        return LockKeeper(prefix, host, replica, votes.get(host, 0),
                          lock_ttl, queue)

    if queue:
        settings["detection_timeout"] = detection_timeout

        def write(request_id, key, value, home) -> LadderMachine:
            # Sequential lock acquisition in global host order: all
            # writers climb the same ladder, so there is no deadlock and
            # queues at each rung drain FIFO.
            return LadderMachine(prefix, request_id, key, value, home,
                                 hosts, detection_timeout)
    else:
        def write(request_id, key, value, home) -> VotingMachine:
            return VotingMachine(prefix, request_id, key, value, home,
                                 total, write_quorum, lock_timeout,
                                 retry_backoff, max_rounds)

    def reader(request_id, key, home) -> ReaderMachine:
        return ReaderMachine(request_id, Broadcast(f"{prefix}_READV", {
            "rid": request_id, "key": key, "reply_to": home,
        }), read_quorum, lock_timeout, votes=votes)

    return ProtocolRow(name, prefix, settings, participant, write,
                       reader if read_quorum > 1 else None)


def mcv(hosts: Sequence[str], **settings) -> ProtocolRow:
    """Majority Consensus Voting (Thomas 1979).

    The scheme MARP builds on (paper §1: "The protocol is based on the
    well-known Majority Consensus Voting (MCV) scheme [11]"), here in
    its conventional form: a stationary coordinator at the request's
    home server gathers a *majority of votes* through rounds of
    request/grant messages, applies the update at all replicas, and
    retries with backoff on conflict. Reads also assemble a majority so
    they always observe the latest accepted update (r = w = ⌈(N+1)/2⌉,
    r + w > N).

    Every replica holds one vote, which is exactly Thomas's original
    majority consensus and the degenerate case of Gifford's weighted
    voting.
    """
    return _voting_row("mcv", "MCV", hosts, **settings)


def weighted_voting(hosts: Sequence[str], **settings) -> ProtocolRow:
    """Weighted Voting (Gifford 1979).

    Each replica is assigned one or more votes; a read collects ``r``
    votes, a write collects ``w`` votes, with ``r + w`` greater than the
    total so every read/write pair intersects (paper §3.1). Skewed vote
    assignments let a deployment bias the quorums toward well-connected
    replicas — the classic knob for trading read latency against write
    latency.
    """
    return _voting_row("weighted-voting", "WV", hosts, **settings)


def available_copies(hosts: Sequence[str], detection_timeout: float = 400.0,
                     **settings) -> ProtocolRow:
    """Available Copies (ROWA-A) — the optimistic baseline the paper
    cites.

    Paper §3.1: "The Available Copy (AC) protocol, also known as the
    write-all read-once protocol ... Update operations must be applied
    at all available replicas. If all available replicas participated in
    the last update, an application can read from any replica ... The AC
    protocol is vulnerable to communication partitions."

    Strict two-phase locking with *blocking* locks, acquired
    sequentially in a fixed global host order so writers cannot deadlock
    (the ladder is :class:`~repro.core.machines.coordinators.LadderMachine`).
    Each host's :class:`~repro.core.machines.participants.LockKeeper`
    queues a LOCK for a busy key and hands the grant on, FIFO, at the
    holder's APPLY or ABORT. A replica that does not grant within the
    detection timeout is declared unavailable and skipped — timeouts are
    the failure detector — and catches up later through the recovery
    sync. Reads are local (read-one: ``read_quorum`` is 1).

    Because availability is judged per-coordinator with no quorum
    intersection, partitions (and aggressive timeouts under load) let
    replicas diverge — the vulnerability the paper notes, demonstrated
    in the integration tests.
    """
    if detection_timeout <= 0:
        raise ValueError(f"detection_timeout must be > 0: {detection_timeout}")
    settings.setdefault("read_quorum", 1)
    settings.setdefault("write_quorum", 1)
    settings.setdefault("enforce_quorum_intersection", False)
    return _voting_row("available-copies", "AC", hosts, detection_timeout,
                       **settings)


def primary_copy(hosts: Sequence[str], primary: Optional[str] = None,
                 write_timeout: float = 2000.0) -> ProtocolRow:
    """Primary Copy — the centralised baseline.

    All writes are forwarded to one designated primary (the home host's
    :class:`~repro.core.machines.coordinators.ForwardMachine`). Every
    host runs a :class:`~repro.core.machines.participants.CopyKeeper`:
    the primary's serialises the writes locally (a trivially consistent
    total order), applies each and ships it eagerly to every backup,
    whose keeper applies them in version order, and acknowledges the
    origin. Reads are local. It is the latency floor for uncontended
    writes and the availability worst case: a crashed primary stalls
    every write until it recovers.
    """
    primary = primary or hosts[0]
    if primary not in hosts:
        raise ValueError(f"unknown primary host {primary!r}")
    if write_timeout <= 0:
        raise ValueError(f"write_timeout must be > 0: {write_timeout}")
    backups = [host for host in hosts if host != primary]

    def participant(host, replica) -> CopyKeeper:
        return CopyKeeper("PC", host, replica, primary, backups)

    def write(request_id, key, value, home) -> ForwardMachine:
        return ForwardMachine("PC", request_id, key, value, home, primary,
                              write_timeout)

    return ProtocolRow("primary-copy", "PC", dict(
        primary=primary, write_timeout=write_timeout,
    ), participant, write, None)


#: Every protocol, by the name a run configuration gives it.
ROWS: Dict[str, Callable[..., ProtocolRow]] = {
    "marp": marp,
    "mcv": mcv,
    "weighted-voting": weighted_voting,
    "available-copies": available_copies,
    "primary-copy": primary_copy,
}


def protocol_row(name: str, hosts: Sequence[str], **settings) -> ProtocolRow:
    """The row called ``name`` over ``hosts`` with ``settings``."""
    if name not in ROWS:
        raise ValueError(f"unknown protocol {name!r}; "
                         f"expected one of {sorted(ROWS)}")
    return ROWS[name](hosts, **settings)
