"""The discrete-event simulation environment: a heap of callbacks.

:class:`Environment` owns simulated time and one heap of ``(time, key,
fn, arg)`` entries; popping an entry sets the clock to ``time`` and
calls ``fn(arg)``. Everything the substrate schedules — a message
arrival, a service time, a reply deadline, a timer — is one such entry,
pushed by :meth:`Environment.call_in` or :meth:`Environment.call_urgent`.
The kernel is deterministic: entries of the same instant run in FIFO
order of scheduling (stable via a monotone sequence number), with an
urgency tier so that a zero-delay delivery or a freshly started
activity runs before ordinary entries at the same timestamp.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left as _bisect_left
from heapq import heappop, heappush
from typing import Any, Callable, List, Tuple

from repro.errors import SimulationError, StopSimulation

__all__ = ["Environment", "URGENT", "NORMAL"]

#: Scheduling tier for zero-delay delivery and activity start-up.
URGENT = 0
#: Scheduling tier for ordinary entries.
NORMAL = 1

#: ``key = (priority << _TIER_SHIFT) | seq``; priority is 0 or 1 and the
#: monotone seq stays far below 2**52 in any feasible run, so comparing
#: the packed key is exactly the ``(priority, seq)`` lexicographic order,
#: and keys are unique, so the comparison never reaches ``fn``.
_TIER_SHIFT = 52
_URGENT_KEY_BASE = URGENT << _TIER_SHIFT
_NORMAL_KEY_BASE = NORMAL << _TIER_SHIFT


def _stop(_arg: None) -> None:
    """Heap action of ``run(until=t)``'s stop entry."""
    raise StopSimulation()


class Environment:
    """Owns the simulation clock and the callback heap.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        # Observability (None = disabled; see attach_observability). The
        # disabled path adds no per-step work: instrumentation lives in a
        # shadowing `step` bound only when a live hub is attached.
        self._obs = None
        self._steps = 0

    # -- observability ----------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Heap entries processed while observed (0 when never observed)."""
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

    # -- scheduling -------------------------------------------------------

    def call_in(self, delay: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` units from now, in the normal tier,
        after every entry already scheduled for that instant."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(
            self._queue, (self._now + delay, _NORMAL_KEY_BASE + seq, fn, arg)
        )

    def call_urgent(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``fn(arg)`` at this instant in the urgent tier: after the
        current step, before every normal entry of the instant (including
        ones scheduled earlier)."""
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now, _URGENT_KEY_BASE + seq, fn, arg))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one entry.

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

    def run(self, until: Any = None) -> None:
        """Run the simulation: until the queue drains (``until=None``),
        or until the clock reaches ``until`` — entries of the normal
        tier at exactly that time are left for a later run."""
        if until is not None:
            at = float(until)
            if at < self._now:
                raise SimulationError(
                    f"run(until={at}) is in the past (now={self._now})"
                )
            # Urgent so that the clock stops *before* normal entries at
            # exactly `until` are processed.
            self._seq = seq = self._seq + 1
            heappush(self._queue, (at, _URGENT_KEY_BASE + seq, _stop, None))

        wall_start = (
            _time.perf_counter() if self._obs is not None else None
        )
        queue = self._queue
        try:
            if self._obs is not None:
                # Observed drain: step() + _step_observed accounting
                # inlined with the instruments' unlabelled series bound
                # as locals. Write-through per step, so any mid-run
                # reader sees exactly what _step_observed would produce.
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
            else:
                # Hot drain: step() inlined (identical body) so the
                # common unobserved run pays no per-event call frame.
                while queue:
                    when, _key, fn, arg = heappop(queue)
                    self._now = when
                    fn(arg)
        except StopSimulation:
            pass
        finally:
            if wall_start is not None:
                self._obs_wall.inc(_time.perf_counter() - wall_start)
                self._obs_sim_time.set(self._now)

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"
