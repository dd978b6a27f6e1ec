"""The DES hot paths cost what the event is, not what the run was —
nor how many replicas there are.

Five guards, all deterministic counts (no wall clock):

* a contended run four times as long must do the same work per
  delivered message, per commit and per agent table — before the routed
  mailbox, every receive re-scanned the dead ACK/NACKs of all earlier
  claim rounds and every fresh agent interned the whole Updated List
  window, so each of these ratios grew with the run (a MARP write run
  posts no receive at all now: its servers take their kinds by
  callback and claim replies are pushed, so the mailbox work is
  divided by the messages delivered);
* a primary-copy backup asks its store for one version per write a
  ``PC_APPLY`` carries, however many keys the run has touched — before,
  every message re-scanned the reorder buffer of every key seen so far;
* a tour over three times as many replicas merges as many views per
  visit and sizes a migration with as many ``estimate_size`` calls —
  before, every visit called ``LockingTable.update`` once per bulletin
  entry and every migration re-encoded the whole suitcase description,
  un-visited host names included, so both counts grew with N;
* dispatch at arrival keeps the ordering the protocol drivers rely
  on: the server takes its kinds oldest-first, and a wait that ended
  never swallows a later round's reply;
* a committed write costs a pinned number of heap events per protocol
  (a primary-copy write exactly the thirteen that carry simulated
  time): the kernel is a callback heap, and a wait that came back as a
  generator hop — a bootstrap, a termination, an ``a | b`` hand-over —
  would show up here; and no run, short or long, enters a generator
  function of the package at all.
"""

import os
import sys

import pytest

from repro.replication.protocol import MARP
from repro.replication.client import attach_clients
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.workload.arrivals import ExponentialArrivals
from repro.workload.mix import OperationMix

#: the source file whose calls count as mailbox work: delivery and
#: dispatch at arrival
_MAILBOX_FILES = os.sep + os.path.join("repro", "net", "network.py")


def _contended_run(writes_per_client):
    """marp_contended_n5's regime (N=5, 16 Zipf-0.9 keys, 60 ms gaps),
    counting Python calls: all, inside the mailbox, and deliveries."""
    deployment = Deployment(n_replicas=5, seed=7)
    marp = MARP(deployment)
    attach_clients(
        marp,
        ExponentialArrivals(60.0),
        OperationMix(
            write_fraction=1.0, keys=[f"k{i}" for i in range(16)],
            key_skew=0.9,
        ),
        max_requests_per_client=writes_per_client,
    )
    calls = {"all": 0, "mailbox": 0, "delivered": 0}
    # a finished agent leaves the run: size its table as it retires
    table_slots = []
    retire = marp.retire_agent

    def retire_and_measure(agent):
        table_slots.append(len(agent.table._ids))
        retire(agent)

    marp.retire_agent = retire_and_measure

    def count(frame, event, _arg):
        if event == "call":
            calls["all"] += 1
            code = frame.f_code
            if code.co_filename.endswith(_MAILBOX_FILES):
                calls["mailbox"] += 1
                if code.co_name == "_arrive":
                    calls["delivered"] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        deployment.run(until=2_000_000)
    finally:
        sys.setprofile(previous)
    commits = len(marp.completed_writes())
    assert commits == 5 * writes_per_client
    assert len(table_slots) == commits and marp.agents == []
    return {
        "calls_per_commit": calls["all"] / commits,
        "mailbox_calls_per_message": calls["mailbox"] / calls["delivered"],
        "table_slots": max(table_slots),
    }


class TestCostDoesNotGrowWithTheRun:
    @pytest.fixture(scope="class")
    def short_and_long(self):
        return _contended_run(30), _contended_run(120)

    def test_mailbox_work_per_receive_is_constant(self, short_and_long):
        short, long = short_and_long
        assert (
            long["mailbox_calls_per_message"]
            <= 1.25 * short["mailbox_calls_per_message"]
        )

    def test_calls_per_commit_are_constant(self, short_and_long):
        short, long = short_and_long
        assert long["calls_per_commit"] <= 1.25 * short["calls_per_commit"]

    def test_agent_tables_intern_queues_not_history(self, short_and_long):
        short, long = short_and_long
        # a table interns the agents it saw queued somewhere, a handful
        # under this load — never the finished ids of the run so far
        assert long["table_slots"] <= 2 * short["table_slots"]
        assert long["table_slots"] < 100


def _backup_version_lookups_per_apply(n_keys, writes_per_client=40):
    """bulk_primary_n5's regime in small: ``VersionedStore.version_of``
    calls on backup s2's store, per PC_APPLY delivered to s2."""
    deployment = Deployment(n_replicas=3, seed=7)
    protocol = ReplicationProtocol(deployment, "primary-copy")
    attach_clients(
        protocol,
        ExponentialArrivals(20.0),
        OperationMix(
            write_fraction=1.0, keys=[f"k{i}" for i in range(n_keys)],
        ),
        max_requests_per_client=writes_per_client,
    )
    backup_store = deployment.server("s2").store
    lookups = 0

    def count(frame, event, _arg):
        nonlocal lookups
        if (
            event == "call"
            and frame.f_code.co_name == "version_of"
            and frame.f_locals.get("self") is backup_store
        ):
            lookups += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        deployment.run(until=2_000_000)
    finally:
        sys.setprofile(previous)
    applies = len(protocol.completed_writes())  # one PC_APPLY per write
    assert applies == 3 * writes_per_client
    assert len(deployment.server("s2").history) == applies
    return lookups / applies


class TestLogShippingCostDoesNotGrowWithTheKeySpace:
    def test_one_version_lookup_per_shipped_write(self):
        few = _backup_version_lookups_per_apply(16)
        many = _backup_version_lookups_per_apply(256)
        assert few == many == 1.0


def _tour_run(n_replicas):
    """marp_tour_n80's regime in small (one write per replica, 500 ms
    gaps, 256 Zipf-0.9 keys), counting ``LockingTable.update`` calls
    and the ``estimate_size`` calls made to size a migration."""
    from repro.core.machines.table import LockingTable
    from repro.net.message import estimate_size
    from repro.replication.server import ReplicaServer

    deployment = Deployment(n_replicas=n_replicas, seed=7)
    marp = MARP(deployment)
    attach_clients(
        marp,
        ExponentialArrivals(500.0),
        OperationMix(
            write_fraction=1.0, keys=[f"k{i}" for i in range(256)],
            key_skew=0.9,
        ),
        max_requests_per_client=1,
    )
    update, sizing = LockingTable.update.__code__, estimate_size.__code__
    transfer = ReplicaServer.ship_agent.__code__
    calls = {"update": 0, "estimate_size": 0}

    def count(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code is update:
            calls["update"] += 1
        elif frame.f_code is sizing:
            caller = frame.f_back
            while caller is not None and caller.f_code is not transfer:
                caller = caller.f_back
            if caller is not None:
                calls["estimate_size"] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        deployment.run(until=2_000_000)
    finally:
        sys.setprofile(previous)
    writes = marp.completed_writes()
    assert len(writes) == n_replicas
    visits = sum(record.total_visits for record in writes)
    migrations = marp.total_agent_hops()
    assert visits > n_replicas * (n_replicas // 2) and migrations > 0
    return {
        "updates_per_visit": calls["update"] / visits,
        "estimate_size_per_migration": calls["estimate_size"] / migrations,
    }


class TestVisitCostDoesNotGrowWithTheClusterSize:
    """At ac0e213 these read 12.7 / 47.1 ``update`` calls per visit and
    27.1 / 47.5 ``estimate_size`` calls per migration at N=20 / N=60;
    now 1.5 / 1.8 and 0.47 / 0.10."""

    @pytest.fixture(scope="class")
    def small_and_large(self):
        return _tour_run(20), _tour_run(60)

    def test_views_merged_per_visit_are_constant(self, small_and_large):
        small, large = small_and_large
        # the visited server's own view, plus the board entries that
        # are news: a couple, however long the board
        assert large["updates_per_visit"] <= 1.5 * small["updates_per_visit"]
        assert large["updates_per_visit"] < 4.0

    def test_sizing_calls_per_migration_are_constant(self, small_and_large):
        small, large = small_and_large
        # what is left is the Request List, sized once per agent
        assert (
            large["estimate_size_per_migration"]
            <= small["estimate_size_per_migration"] < 1.0
        )


class TestRoutedMailboxOrdering:
    @pytest.fixture
    def cluster(self):
        return Deployment(n_replicas=3, seed=1)

    def test_server_kinds_are_taken_oldest_first(self, cluster):
        """While the server applies one UPDATE, a RELEASE, a READQ and a
        second UPDATE queue up behind it; it takes them in that order."""
        env = cluster.env
        server = cluster.server("s2")
        handled = []
        on_message = server.machine.on_message

        def spy(kind, payload, src="", now=0.0):
            handled.append(kind)
            return on_message(kind, payload, src=src, now=now)

        server.machine.on_message = spy
        sender = cluster.network.endpoints["s2"]  # zero-delay self-sends

        from repro.core.machines.identity import AgentId
        from repro.core.machines.wire import UpdatePayload

        def payload(batch):
            return UpdatePayload(
                batch_id=batch, agent_id=AgentId("s2", 0.0, batch),
                origin="s2", reply_to="s2", epoch=1, keys=("k",),
            )

        def behind(_arg):
            # the server is now inside the first UPDATE's apply time
            sender.send("s2", "RELEASE", payload(1))
            sender.send("s2", "READQ", {"request_id": 99, "key": "k"})
            sender.send("s2", "UPDATE", payload(2))

        sender.send("s2", "UPDATE", payload(1))
        env.call_in(0.1, behind)
        env.run(until=50.0)
        assert handled == ["UPDATE", "RELEASE", "READQ", "UPDATE"]


def _events_per_commit(protocol, requests_per_client):
    """One observed all-writes ``run_once`` at a fixed seed: heap
    entries popped (``deployment.env.events_processed``) per commit."""
    from repro.experiments.runner import RunConfig, run_once
    from repro.obs import hub as hub_mod

    previous = hub_mod._active_hub
    hub_mod.set_hub(hub_mod.ObservabilityHub())
    try:
        result = run_once(RunConfig(
            protocol=protocol, n_replicas=5, seed=7,
            mean_interarrival=40.0,
            requests_per_client=requests_per_client,
            write_fraction=1.0, n_keys=64,
        ))
    finally:
        hub_mod.set_hub(previous)
    assert result.committed == 5 * requests_per_client
    return result.deployment.env.events_processed / result.committed


def _census(protocol, requests_per_client, write_fraction):
    """One observed ``run_once``: how many times it entered a generator
    function of the package (a coroutine "process"; generator
    expressions are loops, not processes, and are not counted) and its
    result."""
    import inspect

    import repro
    from repro.experiments.runner import RunConfig, run_once
    from repro.obs import hub as hub_mod

    root = os.path.dirname(repro.__file__)
    entered = 0

    def count(frame, event, _arg):
        nonlocal entered
        code = frame.f_code
        if (event == "call" and code.co_flags & inspect.CO_GENERATOR
                and code.co_name != "<genexpr>"
                and code.co_filename.startswith(root)):
            entered += 1

    previous = hub_mod._active_hub
    hub_mod.set_hub(hub_mod.ObservabilityHub())
    sys.setprofile(count)
    try:
        result = run_once(RunConfig(
            protocol=protocol, n_replicas=5, seed=7,
            mean_interarrival=40.0,
            requests_per_client=requests_per_client,
            write_fraction=write_fraction, n_keys=64,
        ))
    finally:
        sys.setprofile(None)
        hub_mod.set_hub(previous)
    return entered, result


class TestNoHotPathRunsAsAProcess:
    """Heap events per committed write, N=5, seed 7, 20 writes a client.
    While the coordinators and parks were generator processes these were
    57.66 (MARP), 13 (primary copy), 35 (MCV) and 43 (Available Copies):
    a bootstrap and a termination event per coordinator, two hand-over
    hops per reply it counted and one per park. At 998487c a
    primary-copy write cost 22, and these runs created a ``Process``
    per server loop, per client, per local read and per primary-copy
    write — 58 and 199 on the two MARP runs, 115 and 415 on the
    primary-copy ones."""

    def test_marp_processes_do_not_grow_with_the_run(self):
        short, result = _census("marp", 20, write_fraction=0.5)
        long, _ = _census("marp", 80, write_fraction=0.5)
        statuses = {record.status for record in result.records}
        assert statuses == {"committed", "read-done"}
        assert short == long == 0

    def test_primary_copy_processes_do_not_grow_with_the_run(self):
        short, _ = _census("primary-copy", 20, write_fraction=1.0)
        long, result = _census("primary-copy", 80, write_fraction=1.0)
        assert result.committed == 5 * 80
        assert short == long == 0

    @pytest.mark.parametrize("protocol, bound", [
        ("marp", 53.0),
        ("primary-copy", 13.0),
        ("mcv", 27.0),
        ("available-copies", 31.0),
    ])
    def test_heap_events_per_commit_are_pinned(self, protocol, bound):
        assert _events_per_commit(protocol, 20) <= bound

    def test_a_primary_copy_write_costs_thirteen_events(self):
        # gap, PC_WRITE, the primary's apply time, four PC_APPLYs and
        # four backup apply times, PC_DONE, the write's deadline
        assert _events_per_commit("primary-copy", 80) == 13
