"""Time-series measurement collection.

A :class:`StateMonitor` tracks a piecewise-constant state variable and
can compute its time-weighted average (e.g. mean locking-list length);
its samples convert to numpy arrays for the analysis layer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["StateMonitor"]


class StateMonitor:
    """Tracks a piecewise-constant variable for time-weighted statistics.

    Call :meth:`set` whenever the state changes; :meth:`time_average`
    integrates the step function from the first sample to ``until``.
    """

    __slots__ = ("name", "_times", "_states")

    def __init__(self, name: str = "", initial: Optional[float] = None,
                 time: float = 0.0) -> None:
        self.name = name
        self._times: List[float] = []
        self._states: List[float] = []
        if initial is not None:
            self.set(time, initial)

    def set(self, time: float, state: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"StateMonitor time went backwards: {time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._states.append(float(state))

    @property
    def current(self) -> float:
        if not self._states:
            raise ValueError("StateMonitor has no samples")
        return self._states[-1]

    def time_average(self, until: float) -> float:
        """Time-weighted mean of the state over ``[first sample, until]``.

        Zero-duration windows (``until`` at — or before — the first
        sample, or every sample at one instant) have no well-defined
        integral; the current state is returned instead of dividing by
        the zero-width window.
        """
        if not self._times:
            return float("nan")
        times = np.asarray(self._times + [float(until)])
        states = np.asarray(self._states)
        total = float(times[-1] - times[0])
        if total <= 0:
            return float(states[-1])
        widths = np.diff(times)
        return float(np.dot(widths, states) / total)

    def reset(self, initial: Optional[float] = None,
              time: float = 0.0) -> None:
        """Forget all samples; optionally re-seed an initial state.

        Lets long-lived monitors (e.g. the per-server Locking-List
        monitors) start a fresh measurement window without rebuilding
        the deployment wiring.
        """
        self._times.clear()
        self._states.clear()
        if initial is not None:
            self.set(time, initial)

    def samples(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self._times, dtype=float),
            np.asarray(self._states, dtype=float),
        )

    def __repr__(self) -> str:
        return f"<StateMonitor {self.name!r} n={len(self._times)}>"
