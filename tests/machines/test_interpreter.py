"""The effect interpreter over a fake substrate.

No simulator, no threads, no harness: a ~50-line :class:`Substrate`
that records what the interpreter asks of it and lets the test decide
when a timer fires, a shipment lands or a message arrives. The scripts
walk one agent through the protocol's turning points — win, park and
wake, lost claim and back-off, unreachable host, superseded timer —
and coordinators (a quorum read, a voting round) through the claim
table; one test pins that every effect of the vocabulary has a handler.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.machines.identity import AgentId
from repro.core.machines import effects as effects_mod
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.coordinators import VotingMachine
from repro.core.machines.effects import Broadcast, Done, Effect
from repro.core.machines.reader import ReaderMachine
from repro.core.machines.wire import SharedView
from repro.core.machines.interpreter import (
    EffectInterpreter,
    Resident,
    Substrate,
)
from repro.core.machines.replica import ReplicaMachine
from repro.errors import ProtocolError

HOSTS = ["s1", "s2", "s3"]
TUNABLES = ProtocolTunables(
    park_timeout=100.0, ack_timeout=50.0, claim_backoff=20.0
)


class FakeSubstrate(Substrate):
    """Records every request; nothing happens until the test says so."""

    def __init__(self, world, host):
        self.world = world
        self.host = host

    def now(self):
        return self.world.now

    def send(self, dst, kind, payload, category):
        self.world.sent.append((self.host, dst, kind, payload))

    def broadcast(self, kind, payload):
        for dst in HOSTS:
            self.world.sent.append((self.host, dst, kind, payload))

    def set_timer(self, delay, fire):
        self.world.timers.append((self.world.now + delay, fire))

    def ship_agent(self, agent, dst):
        self.world.shipped.append((self.host, agent, dst))

    def choose(self, agent, candidates):
        return min(candidates)

    def sample_backoff(self, agent, mean):
        return mean

    def disposed(self, agent, effect):
        self.world.disposed.append((agent, effect.status))

    def done(self, coordinator, effect):
        self.world.finished.append((coordinator, effect))

    def emit(self, kind, agent_id, request_id, detail, host):
        self.world.trace.append(kind)


class World:
    """Three hosts, each an interpreter over its own replica machine."""

    def __init__(self):
        self.now = 0.0
        self.sent, self.timers, self.shipped = [], [], []
        self.disposed, self.trace, self.finished = [], [], []
        self.hosts = {
            host: EffectInterpreter(
                host, ReplicaMachine(host, HOSTS, TUNABLES),
                FakeSubstrate(self, host),
            )
            for host in HOSTS
        }

    def agent(self, home, n, rival=False):
        state = AgentCoreState(
            agent_id=AgentId(home, float(n), n), home=home, batch_id=n,
            requests=[(n, "x", f"v{n}")],
            tour_remaining=set(HOSTS) - {home}, location=home,
        )
        if rival:
            # A live rival queued at s3, known second-hand: the agent
            # asks for no visit grant, so its claim is an UPDATE round.
            state.table.update(
                SharedView("s3", 0.0, (AgentId("s3", 9.0, 9),))
            )
        return Resident(AgentMachine(state, HOSTS, TUNABLES))

    def land(self):
        """The oldest shipment arrives."""
        _src, agent, dst = self.shipped.pop(0)
        self.hosts[dst].arrived(agent)

    def flush(self):
        """Deliver everything sent so far, replies to replies included."""
        while self.sent:
            src, dst, kind, payload = self.sent.pop(0)
            self.hosts[dst].deliver(kind, payload, src)

    def fire(self, index=0, at=None):
        """Let one pending timer fire (at its own deadline by default)."""
        deadline, fire = self.timers.pop(index)
        self.now = deadline if at is None else at
        fire()


def kinds(world, kind):
    return [m for m in world.sent if m[2] == kind]


class TestScripts:
    def test_uncontended_agent_wins_after_a_majority_and_commits(self):
        world = World()
        agent = world.agent("s1", 1)
        world.hosts["s1"].launch(agent)
        assert [dst for _s, _a, dst in world.shipped] == ["s2"]
        world.land()
        # Topping s1 and s2 is a majority of three, and both granted on
        # the visit: the agent commits at s2 with no UPDATE round.
        assert kinds(world, "UPDATE") == []
        assert len(kinds(world, "COMMIT")) == 3
        assert world.disposed == [(agent, "committed")]
        assert world.hosts["s2"].claims == {}
        assert agent.timers == {}
        world.flush()
        for host in HOSTS:
            entry = world.hosts[host].replica.read("x")
            assert (entry.value, entry.version) == ("v1", 1)
        assert world.trace[0] == "dispatch" and "lock-won" in world.trace
        assert agent.machine.state.hops == 1

    def test_parked_agents_wake_in_park_order_on_release(self):
        world = World()
        s1 = world.hosts["s1"]
        winner = world.agent("s1", 1)
        s1.launch(winner)
        # Two later agents end their tours parked at s1, behind the winner.
        losers = [world.agent("s1", 3), world.agent("s1", 2)]
        for loser in losers:
            loser.machine.state.tour_remaining = set()
            s1.launch(loser)
        assert list(s1.parked) == [
            loser.machine.state.agent_id for loser in losers
        ]
        woken = []
        for loser in losers:
            release = loser.release
            loser.release = (
                lambda release=release, loser=loser:
                (woken.append(loser), release())
            )
        world.land()  # the winner reaches s2, tops a majority, claims
        world.flush()  # ... and its COMMIT releases s1's parked agents
        assert woken == losers  # park order, not id order
        assert s1.parked == {}
        assert "wake" in world.trace

    def test_park_timeout_wakes_without_a_release(self):
        world = World()
        s1 = world.hosts["s1"]
        world.hosts["s1"].launch(world.agent("s1", 1))
        loser = world.agent("s1", 2)
        loser.machine.state.tour_remaining = set()
        s1.launch(loser)
        assert list(s1.parked) == [loser.machine.state.agent_id]
        (deadline, _fire), = world.timers
        assert deadline == TUNABLES.park_timeout
        world.fire()
        # Still behind agent 1: a refresh tour starts ([D2]).
        assert s1.parked == {}
        assert world.shipped[-1][1] is loser

    def test_claim_round_opens_at_the_majority(self):
        world = World()
        agent = world.agent("s1", 1, rival=True)
        world.hosts["s1"].launch(agent)
        world.land()
        # Topping s1 and s2 is a majority of three: the claim opens at s2.
        assert 1 in world.hosts["s2"].claims
        assert len(kinds(world, "UPDATE")) == 3
        assert set(agent.timers) == {"ack"}
        world.flush()
        assert world.disposed == [(agent, "committed")]
        assert world.hosts["s2"].claims == {}
        assert agent.timers == {}

    def test_lost_claim_backs_off_then_revisits(self):
        world = World()
        agent = world.agent("s1", 1, rival=True)
        world.hosts["s1"].launch(agent)
        world.land()
        del world.sent[:]  # every UPDATE is lost
        world.fire()  # the ack deadline
        assert world.hosts["s2"].claims == {}
        assert len(kinds(world, "RELEASE")) == 3
        assert "claim-failed" in world.trace
        assert set(agent.timers) == {"backoff"}
        # the machine opened a fresh lock-wait window as it backed off
        assert agent.machine.state.lock_wait_since == world.now
        # A silent round is a timeout, not a conflict: the long back-off.
        (deadline, _fire), = world.timers
        assert deadline == world.now + max(
            4 * TUNABLES.claim_backoff, TUNABLES.park_timeout
        )
        world.fire()
        assert 1 in world.hosts["s2"].claims  # re-visited, won, re-claimed
        # epoch 1 failed and was bumped past its RELEASE: the retry is 3
        assert agent.machine.state.epoch == 3

    def test_unreachable_host_is_skipped_for_the_round(self):
        world = World()
        agent = world.agent("s1", 1)
        world.hosts["s1"].launch(agent)
        src, shipped, dst = world.shipped.pop(0)
        assert (src, dst) == ("s1", "s2")
        world.hosts["s1"].unreachable(shipped, "s2")
        assert agent.machine.state.unavailable == {"s2"}
        assert "unavailable" in world.trace
        assert [d for _s, _a, d in world.shipped] == ["s3"]
        assert agent.machine.state.migrate_src == "s1"

    def test_superseded_and_cancelled_timers_fire_into_nothing(self):
        world = World()
        agent = world.agent("s1", 1, rival=True)
        world.hosts["s1"].launch(agent)
        world.land()
        (_deadline, stale_ack), = world.timers
        world.flush()  # commits; the ack timer was cancelled on majority
        assert world.disposed == [(agent, "committed")]
        sent_before = list(world.sent)
        stale_ack()
        assert world.sent == sent_before and len(world.disposed) == 1

        # A re-armed timer of the same kind retires the earlier instance.
        other = world.agent("s1", 2)
        interpreter = world.hosts["s1"]
        del world.timers[:]
        interpreter._arm(other, "ack", 5.0, interpreter.substrate.set_timer)
        interpreter._arm(other, "ack", 9.0, interpreter.substrate.set_timer)
        (_, retired), (_, live) = world.timers
        retired()
        assert "ack" in other.timers  # fired into nothing
        live()
        assert other.timers == {}

    def test_evicted_agent_is_deaf_to_timers_and_replies(self):
        world = World()
        agent = world.agent("s1", 1, rival=True)
        world.hosts["s1"].launch(agent)
        world.land()
        world.hosts["s2"].evict(agent)
        world.flush()  # ACKs find no claimant
        while world.timers:
            world.fire()
        assert world.disposed == []
        assert kinds(world, "COMMIT") == []


class TestCoordinators:
    def test_a_coordinator_takes_only_its_own_replies(self):
        """A quorum read is claimed at its home host under its request
        id: a READR of another request, or an RMW fetch's (which goes to
        the claim of its batch), never reaches it. Its own end it, and it
        leaves the claim table."""
        world = World()
        s1 = world.hosts["s1"]
        reader = Resident(ReaderMachine(
            7, Broadcast("READQ", {"request_id": 7, "key": "x"}), 2, 100.0,
        ))
        s1.coordinate(reader)
        assert s1.claims == {7: reader} and set(reader.timers) == {"read"}
        assert len(kinds(world, "READQ")) == 3
        for request_id in (8, (8, 1, "x")):
            s1.deliver("READR", {
                "request_id": request_id, "key": "x", "from": "s2",
                "version": 5, "value": "theirs",
            }, "s2")
        assert not reader.machine.replied
        world.flush()  # every replica answers the READQ
        assert world.finished == [(reader, Done(7, "read-done"))]
        assert reader.machine.value is None and len(reader.machine.replied) == 2
        assert s1.claims == {} and reader.timers == {}

    def test_replies_of_other_requests_never_reach_a_round(self):
        """Rounds of requests 1 and 2 claimed at s2: GRANTs of requests
        2, 3 and 4 never count in request 1's, which takes its own in
        order and commits at the second; 3's and 4's, claimed by nobody,
        are dropped."""
        world = World()
        s2 = world.hosts["s2"]
        ours, other = (
            Resident(VotingMachine("MCV", rid, "x", "v", "s2", 3, 2, 50.0,
                                   20.0, 2))
            for rid in (1, 2)
        )
        s2.coordinate(ours)
        s2.coordinate(other)

        def grant(rid, host, version):
            s2.reply(rid, "MCV_GRANT", {"rid": rid, "epoch": 1, "from": host,
                                        "votes": 1, "version": version})

        for rid in (2, 3, 4):
            grant(rid, "s3", 9)
        assert ours.machine.grants == {} and other.machine.grants == {"s3": 9}
        grant(1, "s1", 3)
        assert ours.machine.grants == {"s1": 3} and world.finished == []
        grant(1, "s3", 4)
        assert world.finished == [(ours, Done(1, "committed"))]
        assert kinds(world, "MCV_APPLY")[0][3]["writes"][0].version == 5
        assert s2.claims == {2: other}

    def test_a_voting_round_backs_off_and_retries(self):
        """Two NACKs of three make a quorum of two impossible: ABORT, and
        the back-off the substrate draws; the next round's GRANTs commit.
        A reply after that is nobody's."""
        world = World()
        s2 = world.hosts["s2"]
        voting = Resident(
            VotingMachine("MCV", 7, "x", "v", "s2", 3, 2, 50.0, 20.0, 2)
        )
        s2.coordinate(voting)
        assert len(kinds(world, "MCV_LOCK")) == 3
        for host in ("s1", "s3"):
            s2.reply(7, "MCV_NACK",
                     {"rid": 7, "epoch": 1, "from": host, "votes": 1})
        assert len(kinds(world, "MCV_ABORT")) == 3
        assert set(voting.timers) == {"backoff"}
        (deadline, _fire), = [
            timer for timer in world.timers if timer[1].kind == "backoff"
        ]
        assert deadline == 20.0  # the fake draw is the mean: 20 x attempt 1
        world.fire(index=world.timers.index((deadline, _fire)))
        assert voting.machine.attempt == 2
        for host in ("s1", "s2"):
            s2.reply(7, "MCV_GRANT", {"rid": 7, "epoch": 2, "from": host,
                                      "votes": 1, "version": 4})
        assert world.finished == [(voting, Done(7, "committed"))]
        assert kinds(world, "MCV_APPLY")[0][3]["writes"][0].version == 5
        assert s2.claims == {} and voting.timers == {}
        s2.reply(7, "MCV_GRANT", {"rid": 7, "epoch": 2, "from": "s3",
                                  "votes": 1, "version": 4})
        assert len(world.finished) == 1


class TestVocabulary:
    def test_every_effect_has_exactly_one_handler(self):
        interpreter = World().hosts["s1"]
        vocabulary = {
            getattr(effects_mod, name) for name in effects_mod.__all__
        } - {Effect}
        assert set(interpreter._handlers) == vocabulary

    def test_an_effect_nobody_handles_is_an_error(self):
        class Novel(Effect):
            pass

        world = World()
        with pytest.raises(ProtocolError):
            world.hosts["s1"].run_replica([Novel()])
        with pytest.raises(ProtocolError):
            world.hosts["s1"]._run(world.agent("s1", 1), [Novel()])


# What each differently salted child of TestCampaignIsPinned runs.
_CHILD = """
import json
from repro.core.machines import run_campaign

report = run_campaign(60, seed=0)
print(json.dumps([
    report.passed, report.events, report.deltas, report.fallbacks,
]))
"""


class TestCampaignIsPinned:
    def test_totals_do_not_depend_on_the_hash_salt(self):
        """A campaign's event/delta/fallback totals are a function of its
        schedules: the parked table wakes in park order, not set order."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        totals = []
        for salt in ("0", "3"):
            child = subprocess.run(
                [sys.executable, "-c", _CHILD], capture_output=True,
                timeout=300,
                env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src},
            )
            assert child.returncode == 0, child.stderr.decode()
            totals.append(json.loads(child.stdout))
        assert totals[0] == totals[1]
        assert totals[0][0] == 60
