"""On-disk result cache for the experiment engine.

A :class:`RunConfig` is hashed into a **content key**: a stable JSON
serialisation of every config field (including the nested
:class:`~repro.net.faults.FaultPlan` and the MARP knobs) combined with
the code version. Identical configs map to identical keys; changing any
field — or bumping the package version — changes the key, so stale
entries are never served. Because runs are bit-deterministic per seed
(the determinism suite enforces this), a cached :class:`RunResult` is
indistinguishable from a fresh run.

Entries are pickled :class:`RunResult` objects (deployment stripped)
wrapped in an integrity envelope; a corrupted or truncated entry is
treated as a miss with a warning, never a crash.

This module also defines the **result fingerprint**: a stable JSON
serialisation of everything a run measures (metrics, per-request
timelines, message/byte counts, audit verdicts, commit slots), with
process-global identifiers normalised out and the config left out. Two
runs are "the same run" iff their fingerprints are byte-identical — the
contract the determinism and serial-vs-parallel equivalence tests pin
down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.experiments.runner import RunConfig, RunResult

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "code_version",
    "config_key",
    "config_payload",
    "default_cache_dir",
    "result_fingerprint",
    "result_payload",
]

#: Bump when the cached RunResult surface changes shape, or when the
#: simulated numbers it caches move (12: a failed migration declares its
#: destination unavailable at once, and a down replica's empty Locking
#: List no longer vetoes the complete-info stalemate; 13: a result
#: carries its realised ``arrival_rate``); invalidates every existing
#: entry (alongside the package version).
CACHE_SCHEMA_VERSION = 13


def code_version() -> str:
    """Version tag mixed into every cache key."""
    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def config_payload(config: RunConfig) -> Dict[str, Any]:
    """Every field of a config as plain JSON-serialisable data."""
    payload: Dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "faults":
            value = value.payload() if value is not None else None
        elif isinstance(value, tuple):
            value = list(value)
        payload[field.name] = value
    return payload


def config_key(config: RunConfig, version: Optional[str] = None) -> str:
    """Content hash of a config + code version (hex, filesystem-safe).

    Raises ``TypeError`` when ``protocol_kwargs`` holds values without a
    stable JSON form — such configs are uncacheable.
    """
    text = json.dumps(
        {"config": config_payload(config), "version": version or code_version()},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- result fingerprinting --------------------------------------------------


def result_payload(result: RunResult) -> Dict[str, Any]:
    """The measurable surface of a run as plain data.

    The config is not part of it: a config field that moves no simulated
    number leaves the payload, and so the fingerprint, as it was.

    Request identifiers come from a process-global counter, so their
    absolute values depend on how many runs the process executed before
    this one; they are normalised relative to the run's smallest id,
    making the payload identical in-process, in a pool worker and in a
    fresh interpreter.
    """
    ids = [r.request_id for r in result.records]
    base = min(ids) if ids else 0
    records: List[Dict[str, Any]] = [
        {
            "id": r.request_id - base,
            "home": r.home,
            "op": r.op,
            "key": r.key,
            "value": repr(r.value),
            "created_at": r.created_at,
            "dispatched_at": r.dispatched_at,
            "lock_acquired_at": r.lock_acquired_at,
            "completed_at": r.completed_at,
            "visits_to_lock": r.visits_to_lock,
            "total_visits": r.total_visits,
            "agent_id": r.agent_id,
            "status": r.status,
            "extra": {k: r.extra[k] for k in sorted(r.extra)},
        }
        for r in result.records
    ]
    audit = result.audit
    return {
        "protocol": result.protocol_name,
        "committed": result.committed,
        "failed": result.failed,
        "open": result.open,
        "alt": result.alt,
        "att": result.att,
        "prk": {str(k): v for k, v in sorted(result.prk.items())},
        "throughput": result.throughput,
        "control_messages": result.control_messages,
        "control_bytes": result.control_bytes,
        "agent_migrations": result.agent_migrations,
        "agent_bytes": result.agent_bytes,
        "dropped": result.dropped,
        "sim_time": result.sim_time,
        "audit": {
            "final_state_equal": audit.final_state_equal,
            "divergence_free": audit.divergence_free,
            "monotone": audit.monotone,
            "complete": audit.complete,
            "identical_histories": audit.identical_histories,
            "total_commits": audit.total_commits,
        },
        "commit_slots": [
            [key, version, request_id - base, value]
            for key, version, request_id, value in result.commit_slots
        ],
        "records": records,
        # Streaming runs carry no records/commit slots; their measured
        # surface is the percentile estimates + rolling chain digests.
        "att_p50": result.att_p50,
        "att_p99": result.att_p99,
        "chain_digests": [
            [host, digest] for host, digest in result.chain_digests
        ],
    }


def result_fingerprint(result: RunResult) -> str:
    """Stable content hash of :func:`result_payload`.

    Byte-identical fingerprints ⇔ identical measured runs; NaN metrics
    (e.g. ALT of a run with zero commits) serialise stably via repr.
    """
    text = json.dumps(
        result_payload(result),
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the on-disk cache ------------------------------------------------------


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else an XDG-style per-user cache dir."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-marp")


class ResultCache:
    """Content-addressed RunConfig → RunResult store on disk."""

    def __init__(self, root, version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version or code_version()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    # -- keying ------------------------------------------------------------

    def _key(self, config: RunConfig) -> Optional[str]:
        try:
            return config_key(config, self.version)
        except (TypeError, ValueError):
            # e.g. a protocol_kwargs callable: no stable JSON form, so
            # no safe content address — run live every time.
            self.uncacheable += 1
            return None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- lookup ------------------------------------------------------------

    def get(self, config: RunConfig) -> Optional[RunResult]:
        """The cached result for an identical config, or ``None``."""
        key = self._key(config)
        if key is None:
            return None
        path = self._path(key)
        result: Optional[RunResult] = None
        if path.exists():
            try:
                with open(path, "rb") as handle:
                    envelope = pickle.load(handle)
                if (
                    envelope.get("version") == self.version
                    and envelope.get("key") == key
                    and isinstance(envelope.get("result"), RunResult)
                ):
                    result = envelope["result"]
            except Exception as exc:  # corrupt/truncated entry
                warnings.warn(
                    f"discarding corrupt cache entry {path}: {exc!r}; "
                    f"falling back to a live run",
                    RuntimeWarning,
                    stacklevel=2,
                )
                try:
                    path.unlink()
                except OSError:
                    pass
        if result is None:
            self.misses += 1
            self._record("miss")
            return None
        self.hits += 1
        self._record("hit")
        return result

    def put(self, config: RunConfig, result: RunResult) -> bool:
        """Store a result (deployment stripped). True if written."""
        key = self._key(config)
        if key is None:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "version": self.version,
            "key": key,
            "config": config_payload(config),
            "result": result.without_deployment(),
        }
        # Atomic publish: a reader never sees a half-written entry.
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{key[:8]}-", delete=False
        )
        try:
            with handle:
                pickle.dump(envelope, handle)
            os.replace(handle.name, path)
        except Exception:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return True

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def _record(self, outcome: str) -> None:
        from repro.obs.hub import get_hub

        hub = get_hub()
        if hub is not None:
            hub.counter(
                "experiment_cache_lookups_total",
                "result-cache lookups by the experiment engine",
                ("outcome",),
            ).inc(outcome=outcome)

    def __repr__(self) -> str:
        return (
            f"<ResultCache {str(self.root)!r} entries={len(self)} "
            f"hits={self.hits} misses={self.misses}>"
        )
