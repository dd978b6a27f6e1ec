"""The kernel's one consistency checker, fed crafted histories.

Each case breaks exactly one check (or none) over plain commit tuples
``(key, version, request_id, value repr, origin)`` and store cells
``(key, version, value repr)``, the shapes every substrate hands in.
Every case runs through both feeds of the one :class:`HistoryCheck`:
:func:`check_histories` over stored histories, and the online path a
streaming run takes, here fed round-robin across the hosts (the
``...Online`` classes). A Hypothesis property holds the two to the same
verdicts over random histories and interleavings.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machines.replay import KernelHarness
from repro.core.machines.audit import (
    HistoryCheck, check_histories, commits_of, store_cells,
)
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


def everywhere(*commits, check=check_histories, **kwargs):
    """Every host committed ``commits`` and holds their final cells."""
    return check(
        {host: list(commits) for host in HOSTS},
        {host: cells(*commits) for host in HOSTS},
        **kwargs,
    )


def fed(histories, stores, order):
    """A :class:`HistoryCheck` fed the histories one commit at a time,
    each from the host ``order`` picks of those with commits left."""
    check = HistoryCheck(histories)
    left = {host: iter(history) for host, history in histories.items()}
    live = list(left)
    while live:
        host = order(live)
        commit = next(left[host], None)
        if commit is None:
            live.remove(host)
        else:
            check.applied(host, *commit)
    return check.report(stores)


def round_robin(histories, stores):
    """The online feed: each host's next commit in turn."""
    turn = itertools.count()
    return fed(histories, stores, lambda live: live[next(turn) % len(live)])


CHAIN = (commit(1, "x", 1), commit(2, "x", 2), commit(3, "y", 1))


class TestCleanHistories:
    check = staticmethod(check_histories)

    def test_every_check_holds(self):
        report = everywhere(*CHAIN, check=self.check)
        assert report.consistent
        assert report.complete and report.identical_histories
        assert report.gapless and report.statuses_match
        assert report.total_commits == 3
        assert report.problems == []

    def test_the_commit_map_is_one_sorted_owner_per_slot(self):
        assert everywhere(*CHAIN, check=self.check).commit_slots == (
            ("x", 1, 1, "'v1'"), ("x", 2, 2, "'v2'"), ("y", 1, 3, "'v3'"),
        )

    def test_no_hosts_no_commits(self):
        report = self.check({}, {})
        assert report.consistent and report.total_commits == 0

    def test_each_history_is_iterated_once(self):
        """A one-shot iterator per host is enough input."""
        report = self.check(
            {host: iter(CHAIN) for host in HOSTS},
            {host: cells(*CHAIN) for host in HOSTS},
        )
        assert report.consistent and report.identical_histories
        assert report.total_commits == 3


class TestEachCheck:
    check = staticmethod(check_histories)

    def test_final_states_differ(self):
        stores = {host: cells(*CHAIN) for host in HOSTS}
        stores["s3"] = cells(*CHAIN[:2])
        report = self.check(
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
        report = self.check({host: CHAIN for host in HOSTS}, stores)
        assert not report.final_state_equal and not report.consistent
        assert report.findings["final_state_equal"] == [
            "s2 reported no final state"
        ]

    def test_non_monotone(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s1"] = (commit(2, "x", 2), commit(1, "x", 1), CHAIN[2])
        report = self.check(
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
        report = self.check(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.divergence_free and not report.consistent
        assert report.findings["divergence_free"] == [
            "two committed winners for round ('x', v2): "
            "[(2, \"'v2'\"), (9, \"'v9'\")]"
        ]
        assert report.total_commits == 3

    def test_the_commit_map_keeps_one_entry_per_claimed_owner(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s3"] = (commit(1, "x", 1), commit(9, "x", 2), CHAIN[2])
        report = self.check(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert [s for s in report.commit_slots if s[:2] == ("x", 2)] == [
            ("x", 2, 2, "'v2'"), ("x", 2, 9, "'v9'"),
        ]

    def test_a_missing_version_is_incomplete(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s2"] = (CHAIN[0], CHAIN[2])  # skipped superseded x v1..2
        report = self.check(
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
        report = self.check(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.identical_histories
        assert report.consistent and report.complete
        assert report.problems == []

    def test_a_difference_at_the_last_host_breaks_identical_histories(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s3"] = (CHAIN[0], CHAIN[2], CHAIN[1])
        report = self.check(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.identical_histories
        assert report.consistent and report.complete

    def test_a_gap_in_a_chain(self):
        gapped = (commit(1, "x", 1), commit(3, "x", 3))
        report = everywhere(*gapped, check=self.check)
        assert not report.gapless
        assert report.consistent  # a gap is not a consistency breach
        assert report.findings["gapless"] == [
            "commit chain for 'x' has gaps: versions [2] of 1..3 were "
            "never committed"
        ]

    def test_committed_but_owns_no_cell(self):
        report = everywhere(*CHAIN, check=self.check, statuses={1: "committed", 7: "committed"})
        assert not report.statuses_match
        assert report.findings["statuses_match"] == [
            "request 7 reported committed but owns no (key, version) cell "
            "on any replica"
        ]

    def test_failed_yet_owns_a_cell(self):
        report = everywhere(*CHAIN, check=self.check, statuses={2: "failed", 8: "failed"})
        assert not report.statuses_match
        assert report.findings["statuses_match"] == [
            "request 2 aborted yet owns committed cells [('x', 2)]"
        ]

    def test_unresolved_statuses_are_not_checked(self):
        report = everywhere(*CHAIN, check=self.check, statuses={5: "pending", 3: "committed"})
        assert report.statuses_match


class TestCleanHistoriesOnline(TestCleanHistories):
    """The same cases, fed to a :class:`HistoryCheck` round-robin."""

    check = staticmethod(round_robin)
    # the commit map needs whole histories: check_histories builds it
    test_the_commit_map_is_one_sorted_owner_per_slot = None


class TestEachCheckOnline(TestEachCheck):
    """The same cases, fed to a :class:`HistoryCheck` round-robin."""

    check = staticmethod(round_robin)
    # the commit map and the statuses need whole histories:
    # check_histories checks them
    test_the_commit_map_keeps_one_entry_per_claimed_owner = None
    test_committed_but_owns_no_cell = None
    test_failed_yet_owns_a_cell = None
    test_unresolved_statuses_are_not_checked = None

    def test_non_monotone(self):
        histories = {host: CHAIN for host in HOSTS}
        histories["s1"] = (commit(2, "x", 2), commit(1, "x", 1), CHAIN[2])
        report = self.check(
            histories, {host: cells(*CHAIN) for host in HOSTS},
        )
        assert not report.monotone and not report.consistent
        assert report.findings["monotone"] == [
            "s1: non-monotone version 1 <= 2 for key 'x'"
        ]
        # x v1 settled (s2 and s3 were past it) before s1 applied it
        # late, so online it counts as missing at s1: past a
        # monotonicity breach only ``consistent`` must agree
        assert report.divergence_free and not report.complete


class TestSettling:
    def test_a_slot_settles_once_every_host_is_past_it(self):
        check = HistoryCheck(("s1", "s2"))
        for commit_ in CHAIN:
            check.applied("s1", *commit_)
        assert check.open_slots() == 3  # s2 has applied nothing yet
        check.applied("s2", *CHAIN[1])  # s2 skips x v1 for x v2
        assert check.open_slots() == 1  # only y v1 is open
        report = check.report({})
        assert report.findings["complete"] == [
            "s2 missing 2 committed versions (e.g. [('x', 1), ('y', 1)])"
        ]

    def test_a_finding_names_the_first_three_missing_slots(self):
        check = HistoryCheck(("s1", "s2"))
        for version in range(1, 6):
            check.applied("s1", *commit(version, "x", version))
        check.applied("s2", *commit(5, "x", 5))
        assert check.report({}).findings["complete"] == [
            "s2 missing 4 committed versions "
            "(e.g. [('x', 1), ('x', 2), ('x', 3)])"
        ]

    def test_a_settled_slot_applied_again_is_non_monotone(self):
        check = HistoryCheck(("s1", "s2"))
        for host in ("s1", "s2"):
            for commit_ in CHAIN[:2]:
                check.applied(host, *commit_)
        assert check.open_slots() == 0
        check.applied("s1", *CHAIN[0])  # x v1 again, after x v2
        report = check.report({})
        assert not report.monotone and not report.consistent
        assert report.findings["monotone"] == [
            "s1: non-monotone version 1 <= 2 for key 'x'"
        ]
        assert report.total_commits == 2

    def test_a_settled_gap_stays_a_gap(self):
        check = HistoryCheck(("s1", "s2"))
        for host in ("s1", "s2"):
            check.applied(host, *commit(1, "x", 1))
            check.applied(host, *commit(3, "x", 3))
        assert check.open_slots() == 0
        assert check.report({}).findings["gapless"] == [
            "commit chain for 'x' has gaps: versions [2] of 1..3 were "
            "never committed"
        ]


@st.composite
def histories(draw):
    """2-5 hosts' histories over keys x, y, z: a global commit order
    that each host follows, skipping commits, committing a second owner
    for a slot, stopping early (a crash) or taking its keys in another
    interleaving; some draws swap two commits, which breaks
    monotonicity. Returns the histories, final stores and a seed for the
    online feed's interleaving."""
    rnd = draw(st.randoms(use_true_random=False))
    hosts = [f"s{i}" for i in range(1, draw(st.integers(2, 5)) + 1)]
    pending = {key: list(range(1, draw(st.integers(0, 5)) + 1))
               for key in "xyz"}  # a key with no versions is never applied
    order = []
    while any(pending.values()):
        key = rnd.choice([k for k, versions in pending.items() if versions])
        order.append((key, pending[key].pop(0)))
    every = draw(st.booleans())
    found = {}
    for host in hosts:
        chain = []
        for rid, (key, version) in enumerate(order, start=1):
            if every or rnd.random() < 0.8:  # else skipped
                if not every and rnd.random() < 0.1:
                    rid += 100  # a second owner for the slot
                chain.append((key, version, rid, repr(f"v{rid}"), "s1"))
        found[host] = chain
    host = rnd.choice(hosts)
    if draw(st.booleans()):  # a crash: the host stops applying
        found[host] = found[host][:rnd.randint(0, len(found[host]))]
    if draw(st.booleans()):  # the same chains per key, in another mix
        by_key = {}
        for commit_ in found[host]:
            by_key.setdefault(commit_[0], []).append(commit_)
        found[host] = []
        while by_key:
            key = rnd.choice(sorted(by_key))
            found[host].append(by_key[key].pop(0))
            if not by_key[key]:
                del by_key[key]
    chain = found[rnd.choice(hosts)]
    if len(chain) > 1 and draw(st.booleans()):
        i, j = sorted(rnd.sample(range(len(chain)), 2))
        chain[i], chain[j] = chain[j], chain[i]
    stores = {host: cells(*chain) for host, chain in found.items()}
    if draw(st.booleans()):
        stores[rnd.choice(hosts)] = None
    return found, stores, rnd.randrange(2**32)


class TestOnlineEqualsBatch:
    @settings(max_examples=300, deadline=None)
    @given(histories())
    def test_same_verdicts_in_any_interleaving(self, drawn):
        found, stores, seed = drawn
        batch = check_histories(found, stores)
        pick = random.Random(seed).choice
        online = fed(found, stores, pick)
        assert online.consistent == batch.consistent
        if batch.monotone:
            assert online.findings == batch.findings
            for verdict in (
                "final_state_equal", "divergence_free", "monotone",
                "complete", "identical_histories", "gapless",
                "total_commits",
            ):
                assert getattr(online, verdict) == getattr(batch, verdict)


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
