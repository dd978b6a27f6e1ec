"""Tests for the live (thread/process) runtime backend."""

import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

from repro.core.machines.identity import AgentId
from repro.errors import NetworkError, ReplicationError
from repro.runtime.cluster import LiveCluster
from repro.runtime.shipping import LiveAgentState, ship, unship
from repro.runtime.transport import LiveMessage, LiveTransport


class TestShipping:
    def test_round_trip(self):
        state = LiveAgentState(
            agent_id=AgentId("h1", 1.0, 0),
            home="h1",
            batch_id=7,
            requests=[(7, "x", 42, 0.0)],
        )
        state.visited.add("h1")
        restored = unship(ship(state))
        assert restored.agent_id == state.agent_id
        assert restored.requests == state.requests
        assert restored.visited == {"h1"}

    def test_unship_type_checked(self):
        with pytest.raises(TypeError):
            unship(pickle.dumps({"not": "an agent"}))

    def test_ship_size_reflects_payload(self):
        small = LiveAgentState(
            agent_id=AgentId("h1", 1.0, 0), home="h1", batch_id=1,
            requests=[(1, "x", 0, 0.0)],
        )
        big = LiveAgentState(
            agent_id=AgentId("h1", 1.0, 0), home="h1", batch_id=1,
            requests=[(1, "x", "v" * 5000, 0.0)],
        )
        assert len(ship(big)) > len(ship(small))


class TestTransport:
    def test_delivery(self):
        transport = LiveTransport(["a", "b"], latency_range=(0.0, 0.0))
        transport.send(LiveMessage(kind="X", src="a", dst="b", payload=1))
        msg = transport.mailbox("b").get(timeout=1.0)
        assert msg.payload == 1

    def test_delayed_delivery(self):
        transport = LiveTransport(["a", "b"], latency_range=(5.0, 10.0))
        delay = transport.send(
            LiveMessage(kind="X", src="a", dst="b")
        )
        assert 5.0 <= delay <= 10.0
        msg = transport.mailbox("b").get(timeout=1.0)
        assert msg.kind == "X"

    def test_unknown_destination(self):
        transport = LiveTransport(["a"])
        with pytest.raises(NetworkError):
            transport.send(LiveMessage(kind="X", src="a", dst="zz"))

    def test_invalid_backend(self):
        with pytest.raises(NetworkError):
            LiveTransport(["a"], backend="quantum")

    def test_invalid_latency_range(self):
        with pytest.raises(NetworkError):
            LiveTransport(["a"], latency_range=(5.0, 1.0))


def exact_delays(backend="thread"):
    """A transport whose delay is exactly ``size_bytes / 1000`` ms."""
    return LiveTransport(
        ["a", "b"], backend=backend, latency_range=(0.0, 0.0),
        bandwidth_bytes_per_ms=1000.0,
    )


def delayed(delay_ms, payload=None):
    return LiveMessage(
        kind="X", src="a", dst="b", payload=payload,
        size_bytes=int(delay_ms * 1000),
    )


def send_from_child(transport):
    transport.send(delayed(5.0, os.getpid()))
    time.sleep(0.2)  # outlive the delay: the courier is a daemon thread


class TestCourier:
    def test_delivery_happens_in_due_order_not_send_order(self):
        """A later send with a shorter delay overtakes an earlier one."""
        transport = exact_delays()
        for delay in (30.0, 10.0, 20.0, 10.5):
            transport.send(delayed(delay, delay))
        mailbox = transport.mailbox("b")
        received = [mailbox.get(timeout=1.0).payload for _ in range(4)]
        assert received == [10.0, 10.5, 20.0, 30.0]

    def test_a_sub_tick_delay_is_delivered_synchronously(self):
        transport = exact_delays()
        assert transport.send(delayed(0.04, "now")) < 0.05
        assert transport.mailbox("b").get_nowait().payload == "now"

    def test_a_forked_child_delivers_through_its_own_courier(self):
        transport = exact_delays(backend="process")
        mailbox = transport.mailbox("b")
        # This process's courier is running when the child is forked; the
        # thread is not copied, so the child must start its own.
        transport.send(delayed(5.0, os.getpid()))
        assert mailbox.get(timeout=5.0).payload == os.getpid()
        child = multiprocessing.get_context("fork").Process(
            target=send_from_child, args=(transport,)
        )
        child.start()
        try:
            assert mailbox.get(timeout=5.0).payload == child.pid
        finally:
            child.join(timeout=5.0)
        assert child.exitcode == 0


class TestLiveClusterThread:
    def test_writes_commit_and_stay_consistent(self):
        with LiveCluster(n_replicas=3, backend="thread", seed=3) as cluster:
            for index in range(9):
                cluster.submit_write(
                    cluster.hosts[index % 3], "x", index
                )
            records = cluster.wait_for(9, timeout=60)
        assert all(r["status"] == "committed" for r in records)
        report = cluster.audit()
        assert report.consistent
        assert report.total_commits == 9

    def test_visits_at_least_majority(self):
        with LiveCluster(n_replicas=3, backend="thread", seed=4) as cluster:
            cluster.submit_write("h1", "x", 1)
            records = cluster.wait_for(1, timeout=30)
        assert records[0]["visits_to_lock"] >= 2  # ceil((3+1)/2)

    def test_submit_to_unknown_host_rejected(self):
        cluster = LiveCluster(n_replicas=2).start()
        try:
            with pytest.raises(ReplicationError):
                cluster.submit_write("nope", "x", 1)
        finally:
            cluster.shutdown()

    def test_submit_before_start_rejected(self):
        cluster = LiveCluster(n_replicas=2)
        with pytest.raises(ReplicationError):
            cluster.submit_write("h1", "x", 1)

    def test_invalid_replica_count(self):
        with pytest.raises(ReplicationError):
            LiveCluster(n_replicas=0)

    def test_wait_timeout_raises(self):
        with LiveCluster(n_replicas=2, backend="thread") as cluster:
            with pytest.raises(TimeoutError):
                cluster.wait_for(1, timeout=0.3)

    def test_multiple_keys(self):
        with LiveCluster(n_replicas=3, backend="thread", seed=5) as cluster:
            cluster.submit_write("h1", "a", 1)
            cluster.submit_write("h2", "b", 2)
            records = cluster.wait_for(2, timeout=30)
        assert all(r["status"] == "committed" for r in records)
        final = next(iter(cluster.shutdown().values()), None) or list(
            cluster._finals.values()
        )[0]
        assert set(final["store"]) == {"a", "b"}


class TestLiveClusterProcess:
    def test_process_backend_commits_consistently(self):
        with LiveCluster(n_replicas=3, backend="process", seed=6) as cluster:
            for index in range(6):
                cluster.submit_write(cluster.hosts[index % 3], "x", index)
            records = cluster.wait_for(6, timeout=60)
        assert all(r["status"] == "committed" for r in records)
        report = cluster.audit()
        assert report.consistent
        assert report.total_commits == 6


def final_dump(host, history):
    """A host's final dump after committing ``history`` in order."""
    store = {}
    for key, version, _rid, value, _origin in history:
        store[key] = (value, version)
    return {"type": "final", "host": host, "store": store,
            "history": list(history)}


class TestLiveAudit:
    """The live audit is the kernel's checker over the final dumps
    (nothing is started: the dumps are set by hand)."""

    CHAIN = [("x", 1, 1, "1", "h1"), ("x", 2, 2, "2", "h2")]

    def test_a_host_that_never_reported_fails_the_audit(self):
        cluster = LiveCluster(n_replicas=3)
        for host in ("h1", "h2"):
            cluster._finals[host] = final_dump(host, [])
        report = cluster.audit()
        assert not report.final_state_equal and not report.consistent
        assert "h3 reported no final state" in report.problems

    def test_a_non_monotone_dump_is_flagged(self):
        cluster = LiveCluster(n_replicas=3)
        for host in cluster.hosts:
            cluster._finals[host] = final_dump(host, self.CHAIN)
        cluster._finals["h2"]["history"].reverse()
        report = cluster.audit()
        assert report.final_state_equal and report.divergence_free
        assert not report.monotone and not report.consistent
        assert report.problems == [
            "h2: non-monotone version 1 <= 2 for key 'x'"
        ]


class TestShutdown:
    def test_the_work_count_loses_no_update(self):
        """Threads and forked processes share one count: a lost update
        would leave it off zero, and a stopping host would never leave
        (or leave early)."""
        transport = LiveTransport(["a"], backend="process")

        def churn():
            for _ in range(2000):
                transport.work_began()
                transport.work_done()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ctx = multiprocessing.get_context("fork")
            workers = [ctx.Process(target=churn) for _ in range(2)] + [
                threading.Thread(target=churn) for _ in range(6)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert transport.quiescent()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_no_commit_still_in_flight_is_lost(self, backend):
        """A record leaves with the COMMIT broadcast, which takes 40-60
        ms to land everywhere: shutdown begins with COMMITs still in the
        courier, and every host must apply them before its final dump."""
        with LiveCluster(
            n_replicas=3, backend=backend, seed=23,
            latency_range=(40.0, 60.0),
        ) as cluster:
            submitted = {
                cluster.submit_write(host, "x", host) for host in cluster.hosts
            }
            records = cluster.wait_for(3, timeout=60)
            started = time.monotonic()
            finals = cluster.shutdown(timeout=10.0)
            elapsed = time.monotonic() - started
        assert all(r["status"] == "committed" for r in records)
        assert set(finals) == set(cluster.hosts)
        assert elapsed < 5.0  # every dump arrived, not the timeout
        for final in finals.values():
            assert {rid for _k, _v, rid, *_ in final["history"]} == submitted
        report = cluster.audit()  # final stores equal, no divergence
        assert report.consistent and report.total_commits == 3

    def test_a_drained_cluster_shuts_down_promptly(self):
        cluster = LiveCluster(n_replicas=3, backend="thread", seed=24).start()
        for index, host in enumerate(cluster.hosts):
            cluster.submit_write(host, "x", index)
        cluster.wait_for(3, timeout=30)
        time.sleep(0.1)  # let the trailing COMMITs land
        started = time.monotonic()
        finals = cluster.shutdown()
        elapsed = time.monotonic() - started
        assert set(finals) == set(cluster.hosts)
        assert elapsed < 0.060

    def test_threads_stay_bounded_during_a_run(self):
        """Main thread, the sampler, one thread per host and the courier:
        hosts + 3 in a fresh interpreter, however many messages fly."""
        baseline = threading.active_count()
        peak = baseline
        done = threading.Event()

        def sample():
            nonlocal peak
            while not done.is_set():
                peak = max(peak, threading.active_count())
                time.sleep(0.0005)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            with LiveCluster(n_replicas=3, backend="thread", seed=25) as cluster:
                for index in range(30):
                    cluster.submit_write(
                        cluster.hosts[index % 3], f"k{index % 4}", index
                    )
                records = cluster.wait_for(30, timeout=60)
        finally:
            done.set()
            sampler.join(timeout=5.0)
        assert all(r["status"] == "committed" for r in records)
        assert peak <= baseline + len(cluster.hosts) + 2
