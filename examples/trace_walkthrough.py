#!/usr/bin/env python
"""Watch the MARP protocol execute, event by event.

Enables structured tracing on a 3-replica deployment and walks through
two contending updates: dispatch, cost-sorted touring, Locking-List
ranks at each visit, the majority win, the grant-certified claim round,
and the COMMIT fan-out — the textual equivalent of the visualisation
interface the paper's prototype provided.

Also demonstrates the lock-pipelining extension (paper §3.3): the agent
that has to wait sees the winner's majority, predicts that it comes
next, and claims behind the winner instead of parking; the replicas
answer that claim as the winner's COMMIT frees their grants. The full
grant order is predicted from that agent's Locking Table, read when it
opens its claim.

Run:  python examples/trace_walkthrough.py
"""

from repro import Deployment, MARP
from repro.core.machines.priority import rank_queue


def main() -> None:
    deployment = Deployment(n_replicas=3, seed=5)
    trace = deployment.enable_tracing()
    marp = MARP(deployment)

    # Two updates from different servers at the same instant: they race
    # for the distributed lock.
    first = marp.submit_write("s1", "x", "from-s1")
    second = marp.submit_write("s2", "x", "from-s2")
    agents = list(marp.agents)  # held: a finished agent leaves marp.agents

    # The pipelining extension: any agent's Locking Table predicts the
    # grant order. Ask the agent that has to wait, when it opens its
    # claim behind the winner: it is still in flight, and its table has
    # seen a majority of servers by then.
    while not any(agent.core.behind for agent in agents):
        deployment.env.step()
    waiting = next(agent for agent in agents if agent.core.behind)
    winner = waiting.core.behind
    predicted = rank_queue(waiting.table, deployment.n_replicas, limit=3)
    deployment.run(until=100_000)

    print(trace.render_log(limit=None))
    print()
    print(trace.render_journeys())
    print()
    print("event counts:", dict(sorted(trace.counts().items())))
    print()
    order = [first, second]
    order.sort(key=lambda r: r.lock_acquired_at)
    print(
        f"lock order: #{order[0].request_id} ({order[0].agent_id}) then "
        f"#{order[1].request_id} ({order[1].agent_id})"
    )
    print(
        f"final value everywhere: "
        f"{deployment.server('s3').store.read('x').value!r} (v2)"
    )

    print(f"{waiting.agent_id} claimed behind {winner}; grant-order "
          f"prediction from its table then:",
          [str(agent_id) for agent_id in predicted])


if __name__ == "__main__":
    main()
