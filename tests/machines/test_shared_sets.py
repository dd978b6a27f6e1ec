"""A delta-patched view shares its base's finished set.

``LockingTable.apply_delta`` used to rebuild each patched view's
``updated`` as ``stored.updated | finished``: a private copy of the
whole server Updated List per delta. It now builds a
:class:`~repro.core.machines.wire.SharedSet` over the stored set. These
tests pin what that buys — the bytes a patch keeps are the patch's, not
the Updated List's — and that the chain a long run of patches grows
stays bounded for :meth:`LockingTable.update` to walk.
"""

import gc
import tracemalloc

from repro.agents.identity import AgentId
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedSet, SharedView, SharedViewDelta

TABLES = 64
FINISHED = 2_000


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def full_view(n_finished: int) -> SharedView:
    return SharedView(
        host="s1", as_of=0.0, view=(aid(-1),),
        updated=frozenset(aid(n) for n in range(n_finished)),
        seq=0,
    )


def one_id_delta(seq: int, agent: int) -> SharedViewDelta:
    return SharedViewDelta(
        host="s1", as_of=float(seq), base_seq=seq - 1, seq=seq,
        finished=(aid(agent),),
    )


def test_a_patch_keeps_its_own_ids_not_a_copy_of_the_base():
    view = full_view(FINISHED)
    tables = [LockingTable() for _ in range(TABLES)]
    for table in tables:
        table.update(view)
    delta = one_id_delta(1, FINISHED)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for table in tables:
            table.apply_delta(delta)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A frozenset copy of 2,001 ids is ~64 KB, so copying per delta
    # keeps ~4 MB here; a shared patch keeps a few hundred bytes.
    assert kept < TABLES * 2_048, f"{kept} B kept by {TABLES} one-id patches"
    for table in tables:
        patched = table.views["s1"].updated
        assert type(patched) is SharedSet and patched.parent is view.updated
        assert patched == view.updated | {aid(FINISHED)}
        assert aid(FINISHED) in table.ual


def test_a_long_lineage_is_bounded_by_its_root(monkeypatch):
    """10,000 one-id deltas on one host: the chain a table merges is
    bounded by its root's size, never by the number of deltas."""
    host = LockingTable()
    host.update(full_view(50))
    for seq in range(1, 10_001):
        host.apply_delta(one_id_delta(seq, 100 + seq))
    patched = host.views["s1"].updated
    assert type(patched) is SharedSet
    walked = []
    split = SharedSet.split

    def counting(self):
        root, added = split(self)
        walked.append(1 + len(added))
        # Below the newest patch, never more ids above a root than in it.
        assert sum(map(len, added[1:])) <= len(root)
        return root, added

    monkeypatch.setattr(SharedSet, "split", counting)
    stranger = LockingTable()
    assert stranger.update(host.views["s1"])
    assert len(walked) == 1 and walked[0] < 10_000
    assert stranger.ual == host.ual
    assert len(stranger.ual) == 50 + 10_000
    assert stranger.views == host.views

