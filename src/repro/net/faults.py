"""Failure injection: host crash windows and transient link faults.

The paper's fault model (§2): processes are fail-stop and may recover;
the Internet shows "frequent short transient failures but rare long
transient failures". We model

* **crash windows** — a host is down during ``[down_at, up_at)``; it
  receives nothing and sends nothing while down;
* **transient link faults** — an individual transmission (message or
  agent migration) independently fails with a configurable probability,
  or during scheduled link outage windows.

A failed migration surfaces to the sending host, which declares the
destination unavailable for the agent's round (the paper's §2 policy;
the agent's next round is the next attempt).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.sim.rng import Stream

__all__ = ["CrashSchedule", "TransientLinkFaults", "FaultPlan"]


class CrashSchedule:
    """Per-host down-time windows.

    Windows for a host must be non-overlapping; they are kept sorted so
    queries are O(log n).
    """

    def __init__(self) -> None:
        self._windows: Dict[str, List[Tuple[float, float]]] = {}

    @property
    def by_host(self) -> Dict[str, List[Tuple[float, float]]]:
        """The live ``host -> sorted windows`` map (read-only to the
        caller; empty while nothing is scheduled, filled by :meth:`add`)."""
        return self._windows

    def add(self, host: str, down_at: float, up_at: float) -> "CrashSchedule":
        if down_at < 0 or up_at <= down_at:
            raise NetworkError(
                f"invalid crash window for {host!r}: [{down_at}, {up_at})"
            )
        windows = self._windows.setdefault(host, [])
        windows.append((down_at, up_at))
        windows.sort()
        for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            if s2 < e1:
                raise NetworkError(f"overlapping crash windows for {host!r}")
        return self

    def is_up(self, host: str, time: float) -> bool:
        windows = self._windows.get(host)
        if not windows:
            return True
        index = bisect.bisect_right(windows, (time, float("inf"))) - 1
        if index < 0:
            return True
        down_at, up_at = windows[index]
        return not (down_at <= time < up_at)

    def next_recovery(self, host: str, time: float) -> Optional[float]:
        """When the host comes back up, if it is currently down."""
        windows = self._windows.get(host)
        if not windows:
            return None
        for down_at, up_at in windows:
            if down_at <= time < up_at:
                return up_at
        return None

    def windows(self, host: str) -> List[Tuple[float, float]]:
        """All crash windows scheduled for ``host`` (sorted)."""
        return list(self._windows.get(host, ()))

    def payload(self) -> Dict[str, List[List[float]]]:
        """Stable JSON-serialisable description (for memo keys)."""
        return {
            host: [[down_at, up_at] for down_at, up_at in windows]
            for host, windows in sorted(self._windows.items())
        }

    def __repr__(self) -> str:
        n = sum(len(w) for w in self._windows.values())
        return f"<CrashSchedule hosts={len(self._windows)} windows={n}>"


class TransientLinkFaults:
    """Bernoulli per-transmission link failure plus outage windows."""

    def __init__(self, drop_probability: float = 0.0) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise NetworkError(
                f"drop probability must be in [0, 1): {drop_probability}"
            )
        self.drop_probability = drop_probability
        self._outages: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}

    def add_outage(
        self, src: str, dst: str, start: float, end: float
    ) -> "TransientLinkFaults":
        """Schedule a bidirectional link outage during ``[start, end)``."""
        if start < 0 or end <= start:
            raise NetworkError(f"invalid outage window [{start}, {end})")
        for key in ((src, dst), (dst, src)):
            self._outages.setdefault(key, []).append((start, end))
            self._outages[key].sort()
        return self

    def add_partition(
        self, side_a, side_b, start: float, end: float
    ) -> "TransientLinkFaults":
        """Cut every link between two host groups during ``[start, end)``.

        The classic network partition: hosts within each side still talk,
        nothing crosses the cut. Voting protocols survive this (at most
        one side holds a majority); Available Copies famously does not.
        """
        side_a, side_b = list(side_a), list(side_b)
        if not side_a or not side_b:
            raise NetworkError("both partition sides must be non-empty")
        overlap = set(side_a) & set(side_b)
        if overlap:
            raise NetworkError(f"hosts on both sides: {sorted(overlap)}")
        for a in side_a:
            for b in side_b:
                self.add_outage(a, b, start, end)
        return self

    def outage_ends(self, host: str) -> Set[float]:
        """When the outages of the links at ``host`` end."""
        return {
            end for (src, _dst), windows in self._outages.items()
            if src == host for _start, end in windows
        }

    def cut(self, src: str, dst: str, time: float) -> bool:
        """Is the (src, dst) link inside an outage window at ``time``?"""
        windows = self._outages.get((src, dst))
        if windows:
            for start, end in windows:
                if start <= time < end:
                    return True
        return False

    def transmission_fails(
        self, src: str, dst: str, time: float, stream: Stream
    ) -> bool:
        """Decide the fate of one transmission attempt."""
        if self.cut(src, dst, time):
            return True
        if self.drop_probability and stream.random() < self.drop_probability:
            return True
        return False

    def payload(self) -> Dict:
        """Stable JSON-serialisable description (for memo keys)."""
        return {
            "drop_probability": self.drop_probability,
            "outages": {
                f"{src}->{dst}": [[start, end] for start, end in windows]
                for (src, dst), windows in sorted(self._outages.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<TransientLinkFaults p={self.drop_probability} "
            f"outages={sum(len(w) for w in self._outages.values())}>"
        )


class FaultPlan:
    """Bundle of crash schedule + link faults injected into a Network."""

    def __init__(
        self,
        crashes: Optional[CrashSchedule] = None,
        links: Optional[TransientLinkFaults] = None,
    ) -> None:
        self.crashes = crashes or CrashSchedule()
        self.links = links or TransientLinkFaults()

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan with no faults (the default)."""
        return cls()

    def host_up(self, host: str, time: float) -> bool:
        return self.crashes.is_up(host, time)

    def rejoin_times(self, host: str) -> List[float]:
        """When ``host`` must catch up: the end of each of its crash
        windows and of each link outage it is on (sorted, once each)."""
        return sorted(self.links.outage_ends(host).union(
            up_at for _down_at, up_at in self.crashes.windows(host)
        ))

    def transmission_fails(
        self, src: str, dst: str, time: float, stream: Stream
    ) -> bool:
        return self.links.transmission_fails(src, dst, time, stream)

    def payload(self) -> Dict:
        """Stable JSON-serialisable description of the full plan.

        Two plans with identical crash windows and link faults produce
        identical payloads; any change to any window, probability or
        outage changes the payload. The claims memo key
        (:func:`~repro.experiments.runner.config_key`) hashes this.
        """
        return {
            "crashes": self.crashes.payload(),
            "links": self.links.payload(),
        }

    def __repr__(self) -> str:
        return f"FaultPlan({self.crashes!r}, {self.links!r})"
