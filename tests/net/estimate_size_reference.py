"""The recursive ``estimate_size``, one call per field, kept as the
reference the inlined :func:`repro.net.message.estimate_size` is
differentially tested against (``tests/net/test_estimate_size_diff.py``).

Message sizes feed the latency model, so the two must agree on every
payload, byte for byte.
"""

from typing import Any


def estimate_size_reference(payload: Any) -> int:
    """8 bytes per number, UTF-8 length for strings, 1 per bool, the
    recursive sum plus 16 bytes per container, ``wire_size()`` where an
    object has one, public attributes for other objects, 32 for opaque
    ones."""
    if payload is None:
        return 0
    cls = payload.__class__
    if cls is int or cls is float:
        return 8
    if cls is str:
        return len(payload.encode("utf-8"))
    if cls is bool:
        return 1
    if cls is dict:
        return 16 + sum(
            estimate_size_reference(k) + estimate_size_reference(v)
            for k, v in payload.items()
        )
    if cls is list or cls is tuple or cls is set or cls is frozenset:
        return 16 + sum(estimate_size_reference(item) for item in payload)
    if cls is bytes:
        return len(payload)
    wire_size = getattr(payload, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 16 + sum(
            estimate_size_reference(k) + estimate_size_reference(v)
            for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(estimate_size_reference(item) for item in payload)
    attrs = getattr(payload, "__dict__", None)
    if attrs is not None:
        return 16 + sum(
            estimate_size_reference(v)
            for k, v in attrs.items() if not k.startswith("_")
        )
    slots = getattr(payload, "__slots__", None)
    if slots is not None:
        return 16 + sum(
            estimate_size_reference(getattr(payload, name, None))
            for name in slots
            if not name.startswith("_")
        )
    return 32
