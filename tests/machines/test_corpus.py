"""Deterministic replay of the adversary regression corpus.

Every ``corpus/*.json`` file is a schedule the adversary (or a human)
once found interesting enough to pin: hand-picked protocol edges
converted to schedule form, plus shrunk counterexamples from mutation
runs. Each one is replayed on every test run and held to the same two
invariants the live campaigns assert — so a one-in-ten-thousand
interleaving, once caught, stays caught forever.

To promote a new failure: shrink it (``shrink_schedule`` or the
``repro adversary`` CLI's ``--save-failures``), verify it passes on
the fixed kernel, drop the JSON here with a descriptive name. See
``docs/fault-campaigns.md``.
"""

import json
import pathlib

import pytest

from repro.core.machines import Schedule, check_schedule, run_schedule

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def corpus_ids(path):
    return path.stem


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 5, (
        f"expected the seeded regression corpus in {CORPUS_DIR}, "
        f"found {len(CORPUS)} schedules"
    )


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids)
def test_corpus_schedule_upholds_invariants(path):
    schedule = Schedule.load(str(path))
    outcome = check_schedule(schedule)
    # A corpus schedule that no longer does anything is dead weight:
    # every one must exercise at least one commit or one fault op.
    assert outcome.statuses or schedule.ops, path.stem


def test_corpus_exercises_the_view_exchange():
    """[D1] and liveness only mean something here if the corpus drives
    the acked-seq protocol: returning visitors must have been served
    deltas, and a crash/restart schedule must have forced the
    full-snapshot fallback through ``journal.reset()``."""
    outcomes = [check_schedule(Schedule.load(str(path))) for path in CORPUS]
    assert sum(outcome.deltas for outcome in outcomes) >= 1
    assert sum(outcome.fallbacks for outcome in outcomes) >= 1


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids)
def test_corpus_schedule_replays_deterministically(path):
    schedule = Schedule.load(str(path))
    first = check_schedule(schedule)
    second = check_schedule(schedule)
    assert first.statuses == second.statuses
    assert first.chains == second.chains
    assert first.events == second.events


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids)
def test_corpus_json_round_trips(path):
    text = path.read_text(encoding="utf-8")
    schedule = Schedule.from_json(text)
    assert Schedule.from_json(schedule.to_json()) == schedule
    # The on-disk form is the canonical rendering (so diffs stay clean).
    assert json.loads(text) == schedule.to_dict()


class TestKnownOutcomes:
    """Pin the interesting facts of the seeded corpus entries, so a
    behaviour drift shows up as more than a silent still-passes."""

    def load(self, name):
        return Schedule.load(str(CORPUS_DIR / f"{name}.json"))

    def test_park_race_both_commit_in_order(self):
        harness, _ = run_schedule(self.load("park_race_contention"))
        assert harness.statuses() == {1: "committed", 2: "committed"}
        chains = harness.commit_chains()
        assert [v for v, _ in chains["x"]] == [1, 2]

    def test_three_way_designee_takes_version_one(self):
        harness, ids = run_schedule(self.load("three_way_tie_break"))
        assert set(harness.statuses().values()) == {"committed"}
        chains = harness.commit_chains()
        assert chains["x"][0] == (1, f"v-{min(ids).host}")

    def test_duplicate_commit_applies_nothing_twice(self):
        harness, _ = run_schedule(
            self.load("duplicate_commit_after_restart")
        )
        assert harness.statuses() == {1: "committed"}
        assert harness.replicas["s3"].read("x").value == "v1"
        assert len(harness.replicas["s3"].history) == 0

    def test_heal_race_serializes_by_ceiling(self):
        harness, _ = run_schedule(
            self.load("partition_heal_races_grant_ttl")
        )
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}

    def test_restart_resets_the_journal_then_serves_snapshot_then_delta(self):
        harness, _ = run_schedule(
            self.load("restart_forces_snapshot_fallback")
        )
        assert harness.commit_chains() == {
            "x": [(1, "a"), (2, "b"), (3, "c")]
        }
        restarted = harness.replicas["s1"]
        # Recovery invalidated every acked base: the next returning
        # visitor paid for a full snapshot, the one after it a delta
        # cut against that snapshot's sequence.
        assert restarted.journal.resets == 1
        assert restarted.fallbacks_served == 1
        assert restarted.deltas_served == 1

    def test_majority_cex_passes_on_the_real_kernel(self):
        # Its counterpart in tests/properties/test_prop_adversary.py
        # re-breaks the majority check and asserts this same schedule
        # then fails.
        harness, _ = run_schedule(
            self.load("partition_split_brain_majority_cex")
        )
        assert set(harness.statuses().values()) == {"committed"}
        versions = [v for v, _ in harness.commit_chains()["x"]]
        assert versions == [1, 2]


#: Schedules whose restarted replica ends stale: shrunk from the
#: 1,000-schedule campaigns at seeds 1-5 (``--seed 1 --index 542``,
#: ``2/628``, ``3/99``, ``4/496``, ``5/373``). A host is down while a
#: write commits, so its COMMIT is lost; ``restart(atomic=True)`` then
#: snapshots the lowest-named live peer, which has not applied that
#: COMMIT yet (it is delayed, or buffered behind a partition).
STALE_RESTARTS = sorted(
    (pathlib.Path(__file__).parent / "stale_restarts").glob("*.json")
)


def test_the_stale_restarts_uphold_safety_and_liveness():
    assert len(STALE_RESTARTS) == 5
    for path in STALE_RESTARTS:
        check_schedule(Schedule.load(str(path)))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 20: an atomic restart snapshots a peer that has not yet "
    "applied the COMMIT the restarted host missed, and nothing re-pulls; "
    "check_schedule does not check convergence until recovery is one "
    "replica input"
))
@pytest.mark.parametrize("path", STALE_RESTARTS, ids=corpus_ids)
def test_a_restarted_replica_converges(path):
    harness, _agent_ids = run_schedule(Schedule.load(str(path)))
    assert harness.audit().final_state_equal
