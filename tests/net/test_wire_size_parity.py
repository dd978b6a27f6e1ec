"""Pin hand-rolled ``wire_size()`` to the generic structural estimate.

``WriteOp.wire_size`` / ``UpdatePayload.wire_size`` (and the delta
plane's ``SharedViewDelta.wire_size``) are hand-inlined fast paths whose
comments promise "must equal the generic structural estimate": message
sizes feed the network latency model, so silent drift between the two
would shift event timing and break pinned run fingerprints. Nothing
enforced that promise until now.

The reference is computed field-by-field with
:func:`repro.net.message.estimate_size` — exactly what the generic
dataclass walk (16 B container + per-public-attribute sizes) would
charge if the class had no ``wire_size`` hook.

The UPDATE names the keys its batch will write (``UpdatePayload.keys``,
``None`` on every other kind), and an ACK reports versions for exactly
those keys: both are pinned here too.
"""

import dataclasses

import pytest

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.effects import Broadcast, Send
from repro.core.machines.events import MsgReceived
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.wire import SharedViewDelta, UpdatePayload, WriteOp
from repro.net.message import estimate_size


def structural_estimate(obj) -> int:
    """What the generic dataclass fallback would report: 16 B container
    overhead plus every field at its own estimate (caches and other
    underscore attributes excluded, as in the generic walk)."""
    return 16 + sum(
        estimate_size(getattr(obj, f.name))
        for f in dataclasses.fields(obj)
    )


WRITE_OPS = [
    WriteOp(request_id=1, key="x", value="v", version=1),
    WriteOp(request_id=999, key="a-longer-key", value=12345, version=7),
    WriteOp(request_id=3, key="κλειδί", value={"nested": [1, 2.5]},
            version=2),
    WriteOp(request_id=4, key="none-value", value=None, version=1),
]


@pytest.mark.parametrize("op", WRITE_OPS, ids=lambda op: op.key)
def test_write_op_wire_size_equals_structural_estimate(op):
    assert op.wire_size() == structural_estimate(op)
    # and the hook is what estimate_size itself dispatches to
    assert estimate_size(op) == op.wire_size()


PAYLOADS = [
    UpdatePayload(batch_id=1, agent_id=AgentId("s1", 10.0, 0), origin="s1"),
    UpdatePayload(
        batch_id=2,
        agent_id=AgentId("server-9", 123.5, 3),
        origin="server-9",
        writes=tuple(WRITE_OPS),
        reply_to="server-9",
        epoch=4,
    ),
    UpdatePayload(
        batch_id=3,
        agent_id=AgentId("s2", 1.0, 1),
        origin="s2",
        writes=(WRITE_OPS[0],),
        reply_to="s2",
        trace_id="0123456789abcdef",
    ),
    # Keyed UPDATEs: the keys the batch will write, ACKed by version.
    UpdatePayload(
        batch_id=4,
        agent_id=AgentId("s1", 2.0, 0),
        origin="s1",
        reply_to="s1",
        epoch=1,
        keys=("x",),
    ),
    UpdatePayload(
        batch_id=5,
        agent_id=AgentId("server-9", 7.25, 2),
        origin="server-9",
        reply_to="server-9",
        epoch=3,
        trace_id="0123456789abcdef",
        keys=("x", "a-longer-key", "κλειδί"),
    ),
    UpdatePayload(
        batch_id=6,
        agent_id=AgentId("s3", 4.0, 1),
        origin="s3",
        reply_to="s3",
        keys=(),
    ),
    # A pipelined claim's UPDATE and COMMIT name the winner ahead.
    UpdatePayload(
        batch_id=7,
        agent_id=AgentId("s2", 9.5, 4),
        origin="s2",
        reply_to="s4",
        epoch=2,
        keys=("x",),
        behind=AgentId("server-9", 7.25, 2),
    ),
    UpdatePayload(
        batch_id=8,
        agent_id=AgentId("s2", 9.5, 4),
        origin="s2",
        writes=(WRITE_OPS[0],),
        reply_to="s4",
        epoch=2,
        behind=AgentId("s1", 0.0, 0),
    ),
]


@pytest.mark.parametrize(
    "payload", PAYLOADS, ids=lambda p: f"batch{p.batch_id}"
)
def test_update_payload_wire_size_equals_structural_estimate(payload):
    expected = structural_estimate(payload)
    assert payload.wire_size() == expected
    # The memoised second call must agree with the first.
    assert payload.wire_size() == expected
    assert estimate_size(payload) == expected


DELTAS = [
    SharedViewDelta(host="s1", as_of=1.0, base_seq=0, seq=1),
    SharedViewDelta(
        host="replica-12",
        as_of=42.5,
        base_seq=3,
        seq=9,
        removed=(AgentId("s1", 1.0, 0),),
        appended=(AgentId("s2", 2.0, 1), AgentId("s3", 3.0, 0)),
        finished=(AgentId("s1", 1.0, 0),),
    ),
]


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: d.host)
def test_shared_view_delta_wire_size_equals_structural_estimate(delta):
    assert delta.wire_size() == structural_estimate(delta)
    assert estimate_size(delta) == delta.wire_size()


@pytest.mark.parametrize(
    "payload", PAYLOADS, ids=lambda p: f"batch{p.batch_id}"
)
def test_an_ack_reports_versions_of_exactly_the_update_keys(payload):
    host = payload.origin
    replica = ReplicaMachine(host, [host], ProtocolTunables())
    for version, key in enumerate(("x", "other", "κλειδί"), start=1):
        replica.apply_write(
            WriteOp(request_id=version, key=key, value=key, version=version),
            origin=host, now=0.0,
        )
    if payload.keys is None or len(payload.keys) != 1:
        # An agent writes one key, and its UPDATE names it.
        with pytest.raises(ProtocolError, match="one key"):
            replica.on(MsgReceived("UPDATE", payload, 1.0))
        return
    effects = replica.on(MsgReceived("UPDATE", payload, 1.0))
    ack = next(e for e in effects if isinstance(e, Send))
    assert ack.kind == "ACK"
    assert list(ack.payload["versions"]) == list(payload.keys or ())
    for key, version in ack.payload["versions"].items():
        assert version == replica.version_of(key)


def test_the_claim_names_its_keys_and_commits_from_the_acks():
    """The claim's UPDATE names the batch's one key, and an ACK answers
    with the replica's version of it and of no other key it holds; a
    batch of two keys is refused."""
    hosts = ["s1", "s2", "s3"]
    tunables = ProtocolTunables()
    replica = ReplicaMachine("s2", hosts, tunables)
    for version, key in enumerate(("x", "y", "z", "w"), start=1):
        replica.apply_write(
            WriteOp(request_id=version, key=key, value=key, version=version),
            origin="s2", now=0.0,
        )
    agent = AgentId("s1", 1.0, 0)
    with pytest.raises(ProtocolError, match="writes one key"):
        AgentMachine(
            AgentCoreState(
                agent_id=agent, home="s1", batch_id=11, location="s1",
                requests=[(11, "y", 1), (12, "new", 2)],
            ),
            hosts, tunables,
        )
    machine = AgentMachine(
        AgentCoreState(
            agent_id=agent, home="s1", batch_id=11, location="s1",
            requests=[(11, "y", 1), (12, "y", 2), (13, "y", 3)],
        ),
        hosts, tunables,
    )
    update = next(
        e.payload for e in machine.start_claim(now=1.0)
        if isinstance(e, Broadcast) and e.kind == "UPDATE"
    )
    assert update.keys == ("y",)
    effects = replica.on(MsgReceived("UPDATE", update, 2.0, src="s1"))
    ack = next(e for e in effects if isinstance(e, Send))
    assert ack.kind == "ACK"
    assert ack.payload["versions"] == {"y": 2}
    # The ACKs are the versions' only source, and COMMIT (like RELEASE
    # and ABORT) names no keys: its bytes do not move.
    other = ReplicaMachine("s3", hosts, tunables)
    effects = machine.on_message("ACK", ack.payload, 3.0)
    effects += machine.on_message(
        "ACK",
        next(e for e in other.on(MsgReceived("UPDATE", update, 2.0))
             if isinstance(e, Send)).payload,
        3.0,
    )
    commit = next(
        e.payload for e in effects
        if isinstance(e, Broadcast) and e.kind == "COMMIT"
    )
    assert commit.keys is None
    assert [(w.key, w.version) for w in commit.writes] == [
        ("y", 3), ("y", 4), ("y", 5),
    ]
