"""Property tests for the MARP decision function (Theorems 1-2).

These encode the agreement and uniqueness obligations: the decision is a
pure, deterministic function of the lock information, every agent
evaluating the same information designates the same winner, and at most
one agent can ever conclude that it holds the lock.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.identity import AgentId
from repro.core.machines.table import LockingTable
from repro.core.machines.priority import OTHER, STALEMATE, UNDECIDED, WIN, decide
from repro.replication.server import SharedView


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


@st.composite
def lock_tables(draw, max_hosts=7, max_agents=8):
    """A random cluster lock state and the table built from it."""
    n_hosts = draw(st.integers(min_value=1, max_value=max_hosts))
    agents = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_agents),
            min_size=1, max_size=max_agents, unique=True,
        )
    )
    known = draw(st.integers(min_value=0, max_value=n_hosts))
    queues = {}
    for index in range(known):
        queue = draw(
            st.lists(st.sampled_from(agents), max_size=len(agents),
                     unique=True)
        )
        queues[f"s{index + 1}"] = queue
    finished = draw(
        st.lists(st.sampled_from(agents), max_size=len(agents), unique=True)
    )
    table = LockingTable()
    for host, queue in queues.items():
        table.absorb(
            SharedView(
                host=host,
                as_of=1.0,
                view=tuple(aid(n) for n in queue),
            ),
            finished=[aid(n) for n in finished],
        )
    return n_hosts, agents, table


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_decision_is_deterministic(data):
    n_hosts, agents, table = data
    first = decide(table, n_hosts, aid(agents[0]))
    second = decide(table, n_hosts, aid(agents[0]))
    assert first.outcome == second.outcome
    assert first.winner == second.winner
    assert first.reason == second.reason


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_all_agents_designate_the_same_winner(data):
    """Theorem 2: one winner, agreed by everyone with the same info."""
    n_hosts, agents, table = data
    winners = set()
    for agent in agents:
        decision = decide(table, n_hosts, aid(agent))
        if decision.winner is not None:
            winners.add(decision.winner)
    assert len(winners) <= 1


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_at_most_one_agent_believes_it_holds_the_lock(data):
    n_hosts, agents, table = data
    holders = [
        agent
        for agent in agents
        if decide(table, n_hosts, aid(agent)).outcome == WIN
        or (
            decide(table, n_hosts, aid(agent)).outcome == STALEMATE
            and decide(table, n_hosts, aid(agent)).winner == aid(agent)
        )
    ]
    assert len(holders) <= 1


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_win_implies_majority_of_known_tops(data):
    n_hosts, agents, table = data
    majority = n_hosts // 2 + 1
    for agent in agents:
        decision = decide(table, n_hosts, aid(agent))
        if decision.outcome == WIN:
            assert decision.top_counts[aid(agent)] >= majority
            assert len(decision.quorum_hosts) >= majority

    # And outcomes are always one of the defined constants.
    outcomes = {
        decide(table, n_hosts, aid(agent)).outcome for agent in agents
    }
    assert outcomes <= {WIN, OTHER, STALEMATE, UNDECIDED}


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_stalemate_requires_complete_information(data):
    n_hosts, _agents, table = data
    decision = decide(table, n_hosts, aid(0))
    if decision.outcome == STALEMATE:
        assert len(table.known_hosts) == n_hosts
        assert decision.winner is not None


@given(data=lock_tables())
@settings(max_examples=200, deadline=None)
def test_finished_agents_never_win(data):
    """Agents in the UAL are out of the race entirely."""
    n_hosts, agents, table = data
    for agent in agents:
        decision = decide(table, n_hosts, aid(agent))
        if decision.winner is not None:
            assert decision.winner not in table.ual
