"""Cross-backend equivalence: the DES and live runtimes run the same
protocol logic and must exhibit the same qualitative behaviour."""

from repro.analysis.consistency import audit
from repro.replication.protocol import MARP
from repro.replication.deployment import Deployment
from repro.runtime import LiveCluster


def run_des(n_replicas: int, n_writes: int, seed: int):
    dep = Deployment(n_replicas=n_replicas, seed=seed)
    marp = MARP(dep)
    records = [
        marp.submit_write(dep.hosts[index % n_replicas], "x", index)
        for index in range(n_writes)
    ]
    dep.run(until=2_000_000)
    report = audit(dep)
    return records, report


def run_live(n_replicas: int, n_writes: int, seed: int):
    with LiveCluster(n_replicas=n_replicas, backend="thread",
                     seed=seed) as cluster:
        for index in range(n_writes):
            cluster.submit_write(
                cluster.hosts[index % n_replicas], "x", index
            )
        records = cluster.wait_for(n_writes, timeout=60)
    return records, cluster.audit()


class TestCrossBackend:
    def test_both_backends_commit_everything(self):
        des_records, des_report = run_des(3, 9, seed=50)
        live_records, live_report = run_live(3, 9, seed=50)

        assert all(r.status == "committed" for r in des_records)
        assert all(r["status"] == "committed" for r in live_records)
        assert des_report.consistent
        assert live_report.consistent
        assert des_report.total_commits == live_report.total_commits == 9

    def test_visit_bounds_hold_on_both_backends(self):
        n = 3
        majority = n // 2 + 1
        des_records, _ = run_des(n, 6, seed=51)
        live_records, _ = run_live(n, 6, seed=51)

        for record in des_records:
            assert majority <= record.visits_to_lock <= n
        for record in live_records:
            assert record["visits_to_lock"] >= majority

    def test_final_version_matches_commit_count(self):
        # Both backends serialise all writes to one key: the final
        # version equals the number of commits.
        dep = Deployment(n_replicas=3, seed=52)
        marp = MARP(dep)
        for index in range(5):
            marp.submit_write(dep.hosts[index % 3], "x", index)
        dep.run(until=1_000_000)
        assert dep.server("s1").store.version_of("x") == 5

        with LiveCluster(n_replicas=3, backend="thread", seed=52) as c:
            for index in range(5):
                c.submit_write(c.hosts[index % 3], "x", index)
            c.wait_for(5, timeout=60)
        finals = c.shutdown() or c._finals
        versions = {final["store"]["x"][1] for final in finals.values()}
        assert versions == {5}
