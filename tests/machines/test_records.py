"""The kernel's hot records carry no instance ``__dict__``.

One effect, input or wire record is built per protocol step and one
``Message`` per transmission, so they are slotted: a frozen dataclass
pays an ``object.__setattr__`` per field to build, and a ``__dict__``
per instance to keep. The records are read-only by convention.
"""

import dataclasses

import pytest

from repro.core.machines import effects, events, priority, structures, wire
from repro.net.message import Message

HOT_RECORDS = (
    [getattr(effects, name) for name in effects.__all__ if name != "Effect"]
    + [getattr(events, name) for name in events.__all__]
    + [
        wire.SharedView, wire.SharedViewDelta, wire.WriteOp,
        wire.UpdatePayload, wire.VisitData,
        structures.LockEntry, structures.VersionedValue,
        structures.CommitRecord, priority.Decision,
    ]
)


@pytest.mark.parametrize("cls", HOT_RECORDS, ids=lambda cls: cls.__name__)
def test_hot_record_has_no_instance_dict(cls):
    assert dataclasses.is_dataclass(cls)
    assert not hasattr(cls.__new__(cls), "__dict__")
    assert not cls.__dataclass_params__.frozen


def test_message_has_no_instance_dict_and_sizes_once():
    msg = Message("a", "b", "PING", payload="xy")
    assert not hasattr(msg, "__dict__")
    assert msg.size_bytes == 64 + 2
    assert Message("a", "b", "PING", size_bytes=9).size_bytes == 9
