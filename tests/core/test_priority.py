"""Unit tests for the distributed priority calculation (Theorems 1-2)."""

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.table import LockingTable
from repro.core.machines.priority import OTHER, STALEMATE, UNDECIDED, WIN, decide
from repro.replication.server import SharedView


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def table_from(queues: dict, updated=()) -> LockingTable:
    """Build a LockingTable from {host: [agent numbers...]}."""
    table = LockingTable()
    for host, agents in queues.items():
        table.absorb(
            SharedView(
                host=host,
                as_of=1.0,
                view=tuple(aid(n) for n in agents),
            ),
            finished=[aid(n) for n in updated],
        )
    return table


class TestMajorityRule:
    def test_self_majority_wins(self):
        table = table_from({"s1": [1], "s2": [1], "s3": [2, 1]})
        decision = decide(table, 3, aid(1))
        assert decision.outcome == WIN
        assert decision.winner == aid(1)
        assert decision.reason == "majority"
        assert decision.quorum_hosts == ("s1", "s2")

    def test_other_majority_observed(self):
        table = table_from({"s1": [1], "s2": [1], "s3": [2]})
        decision = decide(table, 3, aid(2))
        assert decision.outcome == OTHER
        assert decision.winner == aid(1)

    def test_majority_needs_strictly_more_than_half(self):
        # 2 of 4 tops is NOT a majority.
        table = table_from({"s1": [1], "s2": [1], "s3": [2], "s4": [2]})
        decision = decide(table, 4, aid(1))
        assert decision.outcome != WIN

    def test_majority_counts_only_known_hosts(self):
        # 2 tops out of N=5 with only 2 hosts known: undecided.
        table = table_from({"s1": [1], "s2": [1]})
        assert decide(table, 5, aid(1)).outcome == UNDECIDED

    def test_ual_filtering_promotes_successor(self):
        # aid(1) finished everywhere; aid(2) is effective top at majority.
        table = table_from(
            {"s1": [1, 2], "s2": [1, 2], "s3": [1, 3]}, updated=[1]
        )
        decision = decide(table, 3, aid(2))
        assert decision.outcome == WIN
        assert decision.winner == aid(2)


class TestPaperTieBreak:
    def test_guard_fires_when_no_tied_agent_can_win(self):
        # N=5, five agents top at one server each: S=1, M=5,
        # S + (N - M*S) = 1 < 3 -> paper tie-break, lowest id designated.
        table = table_from(
            {"s1": [1], "s2": [2], "s3": [3], "s4": [4], "s5": [5]}
        )
        decision = decide(table, 5, aid(3))
        assert decision.outcome == STALEMATE
        assert decision.reason == "paper-tie-break"
        assert decision.winner == aid(1)

    def test_guard_does_not_fire_when_win_still_possible(self):
        # N=5, tops 2/2/1: a tied agent could still reach 3 in principle
        # (S + (N - M*S) = 2 + 1 = 3 >= 3), so the paper guard is silent;
        # complete info resolves it instead.
        table = table_from(
            {"s1": [1], "s2": [1], "s3": [2], "s4": [2], "s5": [3]}
        )
        decision = decide(table, 5, aid(1))
        assert decision.outcome == STALEMATE
        assert decision.reason == "complete-info"
        assert decision.winner == aid(1)


class TestCompleteInfoRule:
    def test_incomplete_views_undecided(self):
        table = table_from({"s1": [1], "s2": [2]})
        assert decide(table, 3, aid(1)).outcome == UNDECIDED

    def test_empty_list_blocks_stalemate(self):
        # s3's list is empty: a newcomer could still top it, keep waiting.
        table = table_from({"s1": [1], "s2": [2], "s3": []})
        assert decide(table, 3, aid(1)).outcome == UNDECIDED

    def test_all_nonempty_stalemate_designates_min_id(self):
        table = table_from({"s1": [2], "s2": [3], "s3": [4]})
        decision = decide(table, 3, aid(4))
        assert decision.outcome == STALEMATE
        assert decision.winner == aid(2)

    def test_no_counts_at_all_undecided(self):
        table = table_from({"s1": [], "s2": [], "s3": []})
        assert decide(table, 3, aid(1)).outcome == UNDECIDED


class TestAgreement:
    def test_all_agents_agree_on_the_decision(self):
        """Theorem 1/2: same information => same winner, whoever asks."""
        table_queues = {"s1": [1, 2], "s2": [1, 3], "s3": [2, 1],
                        "s4": [2], "s5": [3]}
        winners = set()
        for asking in (1, 2, 3):
            decision = decide(table_from(table_queues), 5, aid(asking))
            if decision.winner is not None:
                winners.add(decision.winner)
        assert len(winners) == 1

    def test_win_and_other_are_consistent(self):
        queues = {"s1": [7], "s2": [7], "s3": [8]}
        self_view = decide(table_from(queues), 3, aid(7))
        other_view = decide(table_from(queues), 3, aid(8))
        assert self_view.outcome == WIN
        assert other_view.outcome == OTHER
        assert self_view.winner == other_view.winner == aid(7)


class TestUnavailableReplicas:
    def test_unavailable_counts_toward_completeness(self):
        # 4 of 5 views known, s5 declared unavailable: a frozen 1/1/1/1
        # split must reach the tie-break instead of deadlocking.
        table = table_from({"s1": [1], "s2": [2], "s3": [3], "s4": [4]})
        without = decide(table, 5, aid(1))
        assert without.outcome == UNDECIDED
        with_unavailable = decide(
            table, 5, aid(1), unavailable=frozenset({"s5"})
        )
        assert with_unavailable.outcome == STALEMATE
        assert with_unavailable.winner == aid(1)

    def test_unavailable_known_host_not_double_counted(self):
        # marking an already-known host unavailable adds nothing
        table = table_from({"s1": [1], "s2": [2]})
        decision = decide(
            table, 3, aid(1), unavailable=frozenset({"s1"})
        )
        assert decision.outcome == UNDECIDED

    def test_majority_rule_unaffected_by_unavailability(self):
        table = table_from({"s1": [1], "s2": [1], "s3": [1]})
        decision = decide(
            table, 5, aid(1), unavailable=frozenset({"s4", "s5"})
        )
        assert decision.outcome == WIN
        assert decision.reason == "majority"


class TestValidation:
    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            decide(LockingTable(), 0, aid(1))

    def test_decided_property(self):
        table = table_from({"s1": [1], "s2": [1], "s3": [1]})
        assert decide(table, 3, aid(1)).decided
        assert not decide(LockingTable(), 3, aid(1)).decided
