"""Live-backend fault injection: blocked links and isolated hosts."""

import time

from repro.runtime import LiveCluster
from repro.runtime.transport import LiveMessage, LiveTransport


class TestTransportBlocking:
    def test_blocked_link_drops_messages(self):
        transport = LiveTransport(["a", "b"], latency_range=(0.0, 0.0))
        transport.block("a", "b")
        delay = transport.send(
            LiveMessage(kind="X", src="a", dst="b")
        )
        assert delay == -1.0
        assert transport.mailbox("b").empty()

    def test_block_is_bidirectional_and_unblock_restores(self):
        transport = LiveTransport(["a", "b"], latency_range=(0.0, 0.0))
        transport.block("a", "b")
        assert transport.send(LiveMessage(kind="X", src="b", dst="a")) == -1.0
        transport.unblock("a", "b")
        transport.send(LiveMessage(kind="X", src="a", dst="b"))
        assert transport.mailbox("b").get(timeout=1.0).kind == "X"

    def test_isolate_and_heal(self):
        transport = LiveTransport(["a", "b", "c"], latency_range=(0.0, 0.0))
        transport.isolate("c")
        assert transport.send(LiveMessage(kind="X", src="a", dst="c")) == -1.0
        assert transport.send(LiveMessage(kind="X", src="a", dst="b")) >= 0
        transport.heal("c")
        assert transport.send(LiveMessage(kind="X", src="a", dst="c")) >= 0


class TestLiveClusterWithIsolatedHost:
    def test_majority_still_commits(self):
        """With one of three live hosts cut off, agents from the others
        still assemble a 2-of-3 majority of grants and commit."""
        with LiveCluster(n_replicas=3, backend="thread", seed=13) as cluster:
            cluster.transport.isolate("h3")
            for index in range(4):
                cluster.submit_write(
                    cluster.hosts[index % 2], "x", index  # h1/h2 only
                )
            records = cluster.wait_for(4, timeout=90)
        assert all(r["status"] == "committed" for r in records)

    def test_healed_host_resumes_participation(self):
        with LiveCluster(n_replicas=3, backend="thread", seed=14) as cluster:
            cluster.transport.isolate("h3")
            cluster.submit_write("h1", "x", "during")
            cluster.wait_for(1, timeout=90)
            cluster.transport.heal("h3")
            time.sleep(0.2)
            cluster.submit_write("h3", "x", "after-heal")
            records = cluster.wait_for(2, timeout=90)
        assert all(r["status"] == "committed" for r in records)
        report = cluster.audit()
        assert report.divergence_free
