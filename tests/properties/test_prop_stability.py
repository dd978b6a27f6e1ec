"""Property test for the protocol's core safety lemma.

`docs/protocol.md` §2: *an agent's set of effectively-topped servers only
grows until it finishes* — appends go to the tail and removals only
delete finished agents, so "X is effective-top at S" can never revert
while X is unfinished. The majority rule's safety rests entirely on this
monotonicity; here it is checked against arbitrary interleavings of
lock-queue operations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machines.identity import AgentId
from repro.core.machines.structures import LockEntry, LockingList


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


@st.composite
def queue_histories(draw):
    """A random history of appends and finish-removals on N servers."""
    n_servers = draw(st.integers(min_value=1, max_value=5))
    n_agents = draw(st.integers(min_value=2, max_value=10))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "finish"]),
                st.integers(min_value=0, max_value=n_agents - 1),
                st.integers(min_value=0, max_value=n_servers - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return n_servers, n_agents, operations


@given(history=queue_histories())
@settings(max_examples=150, deadline=None)
def test_effective_top_status_is_monotone_until_finish(history):
    n_servers, n_agents, operations = history
    queues = [LockingList(f"s{i}") for i in range(n_servers)]
    finished = set()
    clock = 0.0

    def effective_top(queue):
        for agent_id in queue.view():
            if agent_id not in finished:
                return agent_id
        return None

    def top_set(agent_number):
        return {
            index
            for index, queue in enumerate(queues)
            if effective_top(queue) == aid(agent_number)
        }

    previous_tops = {number: set() for number in range(n_agents)}

    for op, agent_number, server_index in operations:
        agent_id = aid(agent_number)
        queue = queues[server_index]
        clock += 1.0
        if op == "append":
            if agent_id in finished:
                continue  # finished agents never re-enqueue
            if agent_id not in queue:
                queue.append(
                    LockEntry(agent_id, agent_number, clock)
                )
        else:  # finish: the agent completes globally
            finished.add(agent_id)
            for q in queues:
                q.remove(agent_id)

        # Invariant: every unfinished agent's topped-server set only grew.
        for number in range(n_agents):
            if aid(number) in finished:
                continue
            current = top_set(number)
            assert previous_tops[number].issubset(current), (
                f"agent {number} lost top status at "
                f"{previous_tops[number] - current}"
            )
            previous_tops[number] = current


@given(history=queue_histories())
@settings(max_examples=150, deadline=None)
def test_two_unfinished_agents_never_share_a_top(history):
    """Corollary used by the intersection argument: effective tops are
    unique per server at every instant."""
    n_servers, _n_agents, operations = history
    queues = [LockingList(f"s{i}") for i in range(n_servers)]
    finished = set()
    clock = 0.0
    for op, agent_number, server_index in operations:
        agent_id = aid(agent_number)
        clock += 1.0
        if op == "append":
            if agent_id in finished:
                continue
            if agent_id not in queues[server_index]:
                queues[server_index].append(
                    LockEntry(agent_id, agent_number, clock)
                )
        else:
            finished.add(agent_id)
            for q in queues:
                q.remove(agent_id)
        for queue in queues:
            tops = [
                agent_id
                for agent_id in queue.view()
                if agent_id not in finished
            ][:1]
            assert len(tops) <= 1
