"""Core event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with an optional value. It moves
through three states:

``pending``
    created but not yet scheduled;
``triggered``
    given a value (or an exception) and placed on the environment's event
    queue;
``processed``
    its callbacks have run.

Processes (see :mod:`repro.sim.core`) suspend by yielding events and are
resumed through the callback mechanism. The design follows the classic
SimPy architecture, reimplemented here because the execution environment
ships no DES library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["PENDING", "Event"]


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Unique sentinel marking an event whose value is not yet decided.
PENDING = _Pending()


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    env:
        The environment the event belongs to.

    Notes
    -----
    Callbacks appended to :attr:`callbacks` are invoked with the event as
    their single argument when the environment processes the event. After
    processing, :attr:`callbacks` is set to ``None`` and further appends
    are errors — this catches use-after-fire bugs early.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        # Failed events whose exception is never retrieved re-raise at the
        # end of the run unless defused (mirrors SimPy semantics).
        self._defused: bool = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defused(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process waiting on this
        event.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() expects an exception instance, got {exception!r}"
            )
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition ---------------------------------------------------

    def __or__(self, other: "Event") -> "Event":
        from repro.sim.conditions import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"
