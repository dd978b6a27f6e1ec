"""Property-based fault campaigns over the schedule adversary.

The heart of the adversary tentpole: a Hypothesis composite strategy
over the schedule DSL drives randomized crash/partition/reorder/churn
interleavings through the kernel, asserting the [D1] safety invariant
and liveness-under-heal on every draw. A failing draw shrinks over the
DSL (Hypothesis minimizes the op and submit lists) and its printed
``InvariantViolation`` embeds the replayable schedule JSON.

Also here: the mutation-detection gate the acceptance bar asks for —
break the protocol's real majority check (``vote_majority`` → 1, the
honest equivalent of "skip the majority check": ``priority.decide``
bugs are masked by the grant layer) and the campaign must catch it,
and the shrunk, corpus-pinned counterexample must keep catching it
deterministically.
"""

import pathlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.machines.adversary import (
    CrashOp,
    DelayOp,
    DropOp,
    DuplicateOp,
    HealOp,
    InvariantViolation,
    KillOp,
    PartitionOp,
    RestartOp,
    Schedule,
    SubmitOp,
    check_schedule,
    generate_schedule,
    shrink_schedule,
)
from repro.core.machines.agent import AgentMachine
from repro.core.machines.adversary import (
    HORIZON,
    MAX_EXTRA_DELAY,
    MAX_MSG_INDEX,
    campaign_rng,
    grant_ttl_floor,
    run_campaign,
)

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "machines" / "corpus"


# ---------------------------------------------------------------------------
# A Hypothesis strategy over the schedule DSL. Mirrors the envelope of
# adversary.generate_schedule — minority crashes, healed partitions,
# droppable-only losses, TTLs above the floor — but lets Hypothesis own
# the search and the shrinking.
# ---------------------------------------------------------------------------


def _times(upper):
    return st.floats(
        min_value=0.0, max_value=upper, allow_nan=False,
        allow_infinity=False,
    ).map(lambda t: round(t, 1))


@st.composite
def schedules(draw):
    """Draw one in-model adversary schedule."""
    n_hosts = draw(st.sampled_from((3, 4, 5)))
    hosts = tuple(f"s{i}" for i in range(1, n_hosts + 1))
    ack_timeout = draw(
        st.floats(min_value=10.0, max_value=60.0).map(lambda t: round(t, 1))
    )
    tunables = {
        "park_timeout": draw(
            st.floats(min_value=5.0, max_value=40.0).map(
                lambda t: round(t, 1)
            )
        ),
        "ack_timeout": ack_timeout,
        "claim_backoff": draw(
            st.floats(min_value=1.0, max_value=20.0).map(
                lambda t: round(t, 1)
            )
        ),
        "max_claims": 10,
        "grant_ttl": round(
            grant_ttl_floor(ack_timeout)
            * draw(st.floats(min_value=2.0, max_value=4.0)),
            1,
        ),
    }
    n_agents = draw(st.integers(min_value=1, max_value=5))
    keys = draw(st.sampled_from((("x",), ("x", "y"))))
    submits = tuple(
        SubmitOp(
            home=draw(st.sampled_from(hosts)),
            request_id=i + 1,
            key=draw(st.sampled_from(keys)),
            value=f"v{i + 1}",
            at=draw(_times(HORIZON / 3)),
        )
        for i in range(n_agents)
    )

    ops = []
    # Minority crash windows: only a fixed subset of floor((N-1)/2)
    # hosts may ever be down, so a live majority always exists.
    f = (n_hosts - 1) // 2
    crashable = hosts[:f]
    for host in draw(
        st.lists(st.sampled_from(crashable), max_size=f, unique=True)
    ) if f else ():
        down_at = draw(_times(HORIZON * 0.6))
        up_at = round(
            min(down_at + draw(_times(80.0)) + 1.0, HORIZON - 1.0), 1
        )
        ops.append(CrashOp(host, down_at))
        ops.append(RestartOp(host, up_at))
    # At most one partition window, always healed before the horizon.
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=n_hosts - 1))
        start = draw(_times(HORIZON * 0.5))
        span = draw(_times(HORIZON * 0.3))
        ops.append(PartitionOp((hosts[:cut], hosts[cut:]), start))
        ops.append(HealOp(round(start + span + 1.0, 1)))
    # Message-level perturbations by global send index.
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        nth = draw(st.integers(min_value=0, max_value=MAX_MSG_INDEX))
        kind = draw(st.sampled_from(("drop", "dup", "delay")))
        if kind == "drop":
            ops.append(DropOp(nth))
        elif kind == "dup":
            ops.append(DuplicateOp(nth, draw(_times(MAX_EXTRA_DELAY))))
        else:
            ops.append(
                DelayOp(nth, round(draw(_times(MAX_EXTRA_DELAY)) + 1.0, 1))
            )
    # Mid-claim churn.
    if n_agents > 1 and draw(st.booleans()):
        ops.append(
            KillOp(
                agent=draw(st.integers(min_value=0, max_value=n_agents - 1)),
                at=draw(_times(HORIZON * 0.8)),
            )
        )
    return Schedule(
        n_hosts=n_hosts,
        tunables=tunables,
        submits=submits,
        ops=tuple(ops),
    )


# ---------------------------------------------------------------------------
# The invariants property — the tentpole assertion.
# ---------------------------------------------------------------------------


@given(schedule=schedules())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_in_model_schedule_upholds_safety_and_liveness(schedule):
    # check_schedule raises InvariantViolation (an AssertionError whose
    # message embeds the replayable schedule JSON) on any breach.
    check_schedule(schedule)


@given(schedule=schedules())
@settings(max_examples=25, deadline=None)
def test_schedules_survive_a_json_round_trip(schedule):
    assert Schedule.from_json(schedule.to_json()) == schedule


@given(schedule=schedules())
@settings(max_examples=10, deadline=None)
def test_checking_a_schedule_is_deterministic(schedule):
    first = check_schedule(schedule)
    second = check_schedule(schedule)
    assert first.statuses == second.statuses
    assert first.chains == second.chains
    assert first.events == second.events


def test_generation_is_a_pure_function_of_the_seed():
    for index in range(10):
        a = generate_schedule(campaign_rng(7, index))
        b = generate_schedule(campaign_rng(7, index))
        assert a == b
    assert generate_schedule(campaign_rng(7, 0)) != generate_schedule(
        campaign_rng(8, 0)
    )


def test_campaign_runs_clean_on_the_real_kernel():
    # The CI campaign (`repro adversary --schedules 200 --seed 0`).
    report = run_campaign(200, seed=0, shrink=False)
    assert report.ok, report.summary()
    assert report.passed == report.schedules == 200
    assert report.events > 0
    # ...and it ran on the view-exchange protocol, not around it:
    # deltas were served, and recoveries forced snapshot fallbacks.
    assert report.deltas >= 1, report.summary()
    assert report.fallbacks >= 1, report.summary()
    # Every claim path ran, pipelined claims behind a winner included,
    # and the summary line counts them.
    assert set(report.claims) == {"round", "visit", "behind"}
    assert f"{report.claims['behind']} behind" in report.summary()


# ---------------------------------------------------------------------------
# Mutation detection: the campaign must catch a broken majority check.
# ---------------------------------------------------------------------------


def broken_majority():
    """Patch the kernel so one vote 'wins' a claim round.

    This is the honest rendition of "skip the majority check": the
    ACK-vote quorum in :class:`AgentMachine` is the layer that actually
    guarantees [D1] (bugs in ``priority.decide`` alone are masked by
    the exclusive server grants), so that is the check a mutation test
    must break.
    """
    return mock.patch.object(
        AgentMachine, "vote_majority", property(lambda self: 1)
    )


def test_campaign_catches_a_broken_majority_check():
    with broken_majority():
        caught = []
        for index in range(200):
            schedule = generate_schedule(campaign_rng(0, index))
            try:
                check_schedule(schedule)
            except InvariantViolation as exc:
                caught.append((index, exc.kind))
        assert caught, (
            "200 schedules failed to catch vote_majority=1 — the "
            "adversary has lost its teeth"
        )
        assert all(kind == "safety" for _i, kind in caught)


def test_corpus_counterexample_still_catches_the_mutation():
    schedule = Schedule.load(
        str(CORPUS_DIR / "partition_split_brain_majority_cex.json")
    )
    # Passes on the real kernel (also asserted by the corpus suite)...
    check_schedule(schedule)
    # ...and deterministically convicts the mutated one.
    with broken_majority():
        details = set()
        for _ in range(3):
            with pytest.raises(InvariantViolation) as exc_info:
                check_schedule(schedule)
            assert exc_info.value.kind == "safety"
            details.add(exc_info.value.detail)
        assert len(details) == 1
        assert "two committed winners" in details.pop()


def test_shrinking_a_mutated_failure_keeps_it_failing():
    with broken_majority():
        failing = None
        for index in range(200):
            candidate = generate_schedule(campaign_rng(0, index))
            try:
                check_schedule(candidate)
            except InvariantViolation:
                failing = candidate
                break
        assert failing is not None
        shrunk = shrink_schedule(failing)
        assert len(shrunk.ops) <= len(failing.ops)
        assert len(shrunk.submits) <= len(failing.submits)
        with pytest.raises(InvariantViolation):
            check_schedule(shrunk)
