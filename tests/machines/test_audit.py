"""The kernel's one consistency checker, fed crafted histories.

Each case breaks exactly one check (or none) over plain commit tuples
``(key, version, request_id, value repr, origin)`` and store cells
``(key, version, value repr)``, the shapes every substrate hands in.
"""

from repro.core.machines.replay import KernelHarness
from repro.core.machines.audit import check_histories, commits_of, store_cells
from repro.core.machines.structures import CommitRecord, HistoryLog

HOSTS = ("s1", "s2", "s3")


def commit(rid, key, version, value=None, origin="s1"):
    return (key, version, rid, repr(value or f"v{rid}"), origin)


def cells(*commits):
    """The final store those commits leave: the last version per key."""
    final = {}
    for key, version, _rid, value, _origin in commits:
        final[key] = (key, version, value)
    return list(final.values())


def everywhere(*commits, statuses=None):
    """Every host committed ``commits`` and holds their final cells."""
    return check_histories(
        {host: list(commits) for host in HOSTS},
        {host: cells(*commits) for host in HOSTS},
        statuses=statuses,
    )


CHAIN = (commit(1, "x", 1), commit(2, "x", 2), commit(3, "y", 1))


class TestCleanHistories:
    def test_every_check_holds(self):
        report = everywhere(*CHAIN)
        assert report.consistent
        assert report.complete and report.identical_histories
        assert report.gapless and report.statuses_match
        assert report.total_commits == 3
        assert report.problems == []

    def test_the_commit_map_is_one_sorted_owner_per_slot(self):
        assert everywhere(*CHAIN).commit_slots == (
            ("x", 1, 1, "'v1'"), ("x", 2, 2, "'v2'"), ("y", 1, 3, "'v3'"),
        )

    def test_no_hosts_no_commits(self):
        report = check_histories({}, {})
        assert report.consistent and report.total_commits == 0

    def test_each_history_is_iterated_once(self):
        """A one-shot iterator per host is enough input."""
        report = check_histories(
            {host: iter(CHAIN) for host in HOSTS},
            {host: cells(*CHAIN) for host in HOSTS},
        )
        assert report.consistent and report.identical_histories
        assert report.total_commits == 3


class TestEachCheck:
    def test_final_states_differ(self):
        stores = {host: cells(*CHAIN) for host in HOSTS}
        stores["s3"] = cells(*CHAIN[:2])
        report = check_histories(
            {host: CHAIN for host in HOSTS}, stores,
        )
        assert not report.final_state_equal and not report.consistent
        assert report.findings["final_state_equal"][0].startswith(
            "final states differ"
        )
        assert report.divergence_free and report.monotone

    def test_a_host_with_no_final_state_is_a_problem(self):
        stores = {host: cells(*CHAIN) for host in HOSTS}
        stores["s2"] = None
        report = check_histories({host: CHAIN for host in HOSTS}, stores)
        assert not report.final_state_equal and not report.consistent
        assert report.findings["final_state_equal"] == [
            "s2 reported no final state"
        ]

    def test_non_monotone(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s1"] = (commit(2, "x", 2), commit(1, "x", 1), CHAIN[2])
        report = check_histories(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.monotone and not report.consistent
        assert report.findings["monotone"] == [
            "s1: non-monotone version 1 <= 2 for key 'x'"
        ]
        assert report.divergence_free and report.complete

    def test_divergence_names_both_winners(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s3"] = (commit(1, "x", 1), commit(9, "x", 2), CHAIN[2])
        report = check_histories(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.divergence_free and not report.consistent
        assert report.findings["divergence_free"] == [
            "two committed winners for round ('x', v2): "
            "[(2, \"'v2'\"), (9, \"'v9'\")]"
        ]
        # the commit map keeps one entry per claimed owner
        assert [s for s in report.commit_slots if s[:2] == ("x", 2)] == [
            ("x", 2, 2, "'v2'"), ("x", 2, 9, "'v9'"),
        ]
        assert report.total_commits == 3

    def test_a_missing_version_is_incomplete(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s2"] = (CHAIN[0], CHAIN[2])  # skipped superseded x v1..2
        report = check_histories(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.complete and not report.identical_histories
        assert report.consistent
        assert report.findings["complete"] == [
            "s2 missing 1 committed versions (e.g. [('x', 2)])"
        ]

    def test_an_order_difference_breaks_identical_histories_only(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s2"] = (CHAIN[2], CHAIN[0], CHAIN[1])
        report = check_histories(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.identical_histories
        assert report.consistent and report.complete
        assert report.problems == []

    def test_a_gap_in_a_chain(self):
        gapped = (commit(1, "x", 1), commit(3, "x", 3))
        report = everywhere(*gapped)
        assert not report.gapless
        assert report.consistent  # a gap is not a consistency breach
        assert report.findings["gapless"] == [
            "commit chain for 'x' has gaps: [1, 3] (expected 1..3)"
        ]

    def test_committed_but_owns_no_cell(self):
        report = everywhere(*CHAIN, statuses={1: "committed", 7: "committed"})
        assert not report.statuses_match
        assert report.findings["statuses_match"] == [
            "request 7 reported committed but owns no (key, version) cell "
            "on any replica"
        ]

    def test_failed_yet_owns_a_cell(self):
        report = everywhere(*CHAIN, statuses={2: "failed", 8: "failed"})
        assert not report.statuses_match
        assert report.findings["statuses_match"] == [
            "request 2 aborted yet owns committed cells [('x', 2)]"
        ]

    def test_unresolved_statuses_are_not_checked(self):
        report = everywhere(*CHAIN, statuses={5: "pending", 3: "committed"})
        assert report.statuses_match


class TestAdapters:
    def test_commits_of_a_history_log(self):
        log = HistoryLog("s1")
        log.append(CommitRecord(4, "x", {"a": 1}, 1, 2.0, "s2"))
        assert list(commits_of(log)) == [("x", 1, 4, "{'a': 1}", "s2")]

    def test_the_harness_audits_its_replicas(self):
        harness = KernelHarness(HOSTS)
        for host in HOSTS:
            harness.replicas[host].store.apply("x", "a", 1, 0.0)
        report = harness.audit()
        assert report.consistent and report.total_commits == 0
        assert store_cells(harness.replicas["s1"].store) == (
            ("x", 1, "'a'"),
        )
