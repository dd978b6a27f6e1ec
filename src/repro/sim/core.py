"""The discrete-event simulation environment and process model.

:class:`Environment` owns simulated time and the event queue; a
:class:`Process` wraps a Python generator that advances by yielding
:class:`~repro.sim.events.Event` objects. The kernel is deterministic:
events scheduled for the same instant are processed in FIFO order of
scheduling (stable via a monotone sequence number), with an urgency tier
so that process initialisation and zero-delay deliveries run before
ordinary events at the same timestamp.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left as _bisect_left
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import PENDING, Event

__all__ = ["Environment", "Process", "Timeout", "Urgent", "URGENT", "NORMAL"]

#: Scheduling tier for process bootstrap and zero-delay delivery.
URGENT = 0
#: Scheduling tier for ordinary events.
NORMAL = 1

#: Heap entries are ``(time, key, fn, arg)``: popping one sets the clock
#: to ``time`` and calls ``fn(arg)``. ``key = (priority << _TIER_SHIFT) |
#: seq``; priority is 0 or 1 and the monotone seq stays far below 2**52
#: in any feasible run, so comparing the packed key is exactly the
#: ``(priority, seq)`` lexicographic order, and keys are unique, so the
#: comparison never reaches ``fn``. An :class:`Event` is the entry
#: ``(time, key, _fire, event)``; :meth:`Environment.call_in` and
#: :meth:`Environment.call_urgent` push a bare callback, with no event.
_TIER_SHIFT = 52
_URGENT_KEY_BASE = URGENT << _TIER_SHIFT
_NORMAL_KEY_BASE = NORMAL << _TIER_SHIFT

ProcessGenerator = Generator[Event, Any, Any]


def _fire(event: Event) -> None:
    """Heap action of an event: run its callbacks; a failure that none
    of them defused raises out of :meth:`Environment.run`."""
    callbacks = event.callbacks
    event.callbacks = None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        raise event._value


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units later."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # One Timeout is created per process yield — the single hottest
        # allocation in the DES. Event.__init__ and Environment.schedule
        # are inlined here (identical semantics, one call frame).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(
            env._queue, (env._now + delay, _NORMAL_KEY_BASE + seq, _fire, self)
        )

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {hex(id(self))}>"


class Urgent(Event):
    """An event that fires at the current instant in the urgent tier.

    Its callbacks run after the step that created it has finished and
    before every ordinary event of the same instant, including ones
    scheduled earlier: the slot in which a freshly created process
    takes its first step and a zero-delay message is delivered.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", value: Any = None) -> None:
        super().__init__(env)
        self._value = value
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running simulation process.

    A process is itself an event: it triggers when the underlying
    generator terminates, with the generator's return value (or its
    exception). Other processes can therefore ``yield`` a process to wait
    for its completion.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Urgent(env).callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Mark the failure as handled: it is being delivered.
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except StopSimulation:
                env._active_process = None
                raise
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
            if next_event.env is not env:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from a "
                    "different environment"
                )
            if next_event.callbacks is not None:
                # Event still pending or scheduled: park until it fires.
                next_event.callbacks.append(self._resume)
                break
            # Event already processed: feed its value back immediately.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {hex(id(self))}>"


class Environment:
    """Owns the simulation clock and event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Observability (None = disabled; see attach_observability). The
        # disabled path adds no per-step work: instrumentation lives in a
        # shadowing `step` bound only when a live hub is attached.
        self._obs = None
        self._steps = 0

    # -- observability ----------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Events processed while observed (0 when never observed)."""
        return self._steps

    def attach_observability(self, hub) -> None:
        """Instrument the kernel with an ObservabilityHub.

        Registers ``sim_events_total``, ``sim_queue_depth`` (+ a depth
        histogram), ``sim_time_ms`` and ``sim_wall_seconds_total``, and
        swaps in an instrumented ``step``. A ``None`` or disabled hub is
        ignored, keeping the default event loop untouched.
        """
        if hub is None or not getattr(hub, "enabled", False):
            return
        self._obs = hub
        self._obs_events = hub.counter(
            "sim_events_total", "events processed by the sim kernel"
        )
        self._obs_queue = hub.gauge(
            "sim_queue_depth", "scheduled events currently pending"
        )
        self._obs_queue_hist = hub.histogram(
            "sim_queue_depth_hist", "queue depth sampled at every step",
            buckets=(0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000),
        )
        self._obs_sim_time = hub.gauge(
            "sim_time_ms", "current simulated clock"
        )
        self._obs_wall = hub.counter(
            "sim_wall_seconds_total", "wall-clock seconds spent in run()"
        )
        # Shadow the class method: only observed environments pay for
        # per-step accounting.
        self.step = self._step_observed  # type: ignore[method-assign]

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling -------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Put a triggered event on the queue ``delay`` units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(
            self._queue,
            (self._now + delay, (priority << _TIER_SHIFT) + seq, _fire, event),
        )

    def call_in(self, delay: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` units from now, in the normal tier.

        The heap slot of ``Timeout(env, delay, arg)`` with ``fn`` as its
        one callback — same sequence number, same place in the FIFO of
        its instant — without the event: for a wait nothing yields on,
        composes or cancels.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(
            self._queue, (self._now + delay, _NORMAL_KEY_BASE + seq, fn, arg)
        )

    def call_urgent(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``fn(arg)`` at this instant in the urgent tier: the heap
        slot of ``Urgent(env, arg)`` with ``fn`` as its one callback."""
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now, _URGENT_KEY_BASE + seq, fn, arg))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _key, fn, arg = heappop(self._queue)
        self._now = when
        fn(arg)

    def _step_observed(self) -> None:
        """Instrumented variant of :meth:`step` (bound by
        :meth:`attach_observability`)."""
        Environment.step(self)
        self._steps += 1
        self._obs_events.inc()
        depth = len(self._queue)
        self._obs_queue.set(depth)
        self._obs_queue_hist.observe(depth)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the queue drains;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until the event triggers and return its value.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed before the run started.
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(_stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise SimulationError(
                    f"run(until={at}) is in the past (now={self._now})"
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(_stop_callback)
            # Urgent so that the clock stops *before* normal events at
            # exactly `until` are processed.
            self.schedule(stop_event, delay=at - self._now, priority=URGENT)

        wall_start = (
            _time.perf_counter() if self._obs is not None else None
        )
        try:
            step_attr = self.__dict__.get("step")
            if (
                step_attr is not None
                and getattr(step_attr, "__func__", None)
                is Environment._step_observed
                and type(self).step is Environment.step
                and type(self)._step_observed is Environment._step_observed
            ):
                # Observed drain: step() + _step_observed accounting
                # inlined with the instruments' unlabelled series bound
                # as locals. Write-through per step, so any mid-run
                # reader sees exactly what _step_observed would produce.
                queue = self._queue
                ev_series = self._obs_events._series
                q_series = self._obs_queue._series
                hist = self._obs_queue_hist
                buckets = hist.buckets
                h_counts = hist._counts.get(())
                if h_counts is None:
                    h_counts = hist._counts[()] = [0] * len(buckets)
                    hist._sums[()] = 0.0
                    hist._totals[()] = 0
                h_sums = hist._sums
                h_totals = hist._totals
                _bisect = _bisect_left
                while queue:
                    when, _key, fn, arg = heappop(queue)
                    self._now = when
                    fn(arg)
                    self._steps += 1
                    ev_series[()] = ev_series.get((), 0.0) + 1.0
                    depth = len(queue)
                    q_series[()] = float(depth)
                    h_counts[_bisect(buckets, depth)] += 1
                    h_sums[()] += float(depth)
                    h_totals[()] += 1
            elif (
                step_attr is not None
                or type(self).step is not Environment.step
            ):
                # Instrumented or subclass-overridden step: honour it.
                step = self.step
                while self._queue:
                    step()
            else:
                # Hot drain: step() inlined (identical body) so the
                # common unobserved run pays no per-event call frame.
                queue = self._queue
                while queue:
                    when, _key, fn, arg = heappop(queue)
                    self._now = when
                    fn(arg)
        except StopSimulation as stop:
            return stop.value
        finally:
            if wall_start is not None:
                self._obs_wall.inc(_time.perf_counter() - wall_start)
                self._obs_sim_time.set(self._now)

        if stop_event is not None and isinstance(until, Event):
            raise SimulationError(
                "run(until=event) finished but the event never triggered"
            )
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    # Propagate failures of the until-event to the caller of run().
    event._defused = True
    raise event._value
