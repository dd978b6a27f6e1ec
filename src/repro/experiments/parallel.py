"""The parallel experiment engine.

Every figure, table and ablation in the harness reduces to a batch of
independent :func:`~repro.experiments.runner.run_once` calls — the sweep
modules build the configs, the engine executes them. A
:class:`ParallelRunner` fans a batch out over a
``concurrent.futures.ProcessPoolExecutor``; because each run is
bit-deterministic in its config (the determinism suite pins this down),
fanning out can never change a result, only the wall-clock time.

**Deterministic sharding.** Work is sharded by batch index: config ``i``
is submitted as task ``i`` and its result is reassembled into slot ``i``
regardless of which worker finishes first, and per-repeat child seeds
are derived by stream splitting (:func:`repro.sim.rng.spawn_seed`) from
the base seed alone. Output is therefore a pure function of the config
batch — independent of worker count, scheduling order and pool warmth.

**Observability.** When a process-wide hub is enabled
(:func:`repro.obs.enable`), the engine records ``experiment_engine_runs_total``
(labelled serial/pool) and an ``experiment_run_wall_ms`` histogram of
per-run wall time.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import (
    RunConfig,
    RunResult,
    repeat_configs,
    run_once,
)

__all__ = [
    "ParallelRunner",
    "get_default_runner",
    "set_default_runner",
]

#: Buckets for the per-run wall-time histogram (milliseconds).
RUN_WALL_BUCKETS_MS = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
    10000.0, 30000.0, 60000.0,
)


def _pool_run(config: RunConfig) -> Tuple[RunResult, float]:
    """Worker-side entry: one measured run, stripped for pickling."""
    start = time.perf_counter()
    result = run_once(config)
    return result.without_deployment(), time.perf_counter() - start


class ParallelRunner:
    """Executes batches of runs, serially or over a process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``None`` or ``1`` runs serially in-process
        (and retains each result's live deployment, exactly like
        calling :func:`run_once` directly); ``>= 2`` fans out over a
        lazily created, reused process pool. Pool results have their
        deployment stripped — everything measured survives, the
        audits (``audit``, ``audit_excluded``) included.

    The runner is a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- execution ---------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return (self.jobs or 1) > 1

    def run_many(self, configs: Sequence[RunConfig]) -> List[RunResult]:
        """Run every config; results in config order (index-sharded)."""
        configs = list(configs)
        if not configs:
            return []
        if self.parallel:
            return self._run_pool(configs)
        return self._run_serial(configs)

    def run_one(self, config: RunConfig) -> RunResult:
        """One run through the engine (pool included)."""
        return self.run_many([config])[0]

    def run_repeats_many(
        self, configs: Sequence[RunConfig], repeats: int
    ) -> List[List[RunResult]]:
        """Each config under ``repeats`` derived child seeds.

        The whole ``len(configs) × repeats`` batch is dispatched at
        once, so parallelism spans sweep points, not just repeats.
        """
        configs = list(configs)
        flat = [
            child
            for config in configs
            for child in repeat_configs(config, repeats)
        ]
        results = self.run_many(flat)
        return [
            results[index * repeats:(index + 1) * repeats]
            for index in range(len(configs))
        ]

    # -- execution backends ------------------------------------------------

    def _run_serial(self, configs: List[RunConfig]) -> List[RunResult]:
        out = []
        for config in configs:
            start = time.perf_counter()
            result = run_once(config)
            self._record("serial", time.perf_counter() - start)
            out.append(result)
        return out

    def _run_pool(self, configs: List[RunConfig]) -> List[RunResult]:
        pool = self._ensure_pool()
        futures = [pool.submit(_pool_run, config) for config in configs]
        out = []
        for future in futures:
            result, wall = future.result()
            self._record("pool", wall)
            out.append(result)
        return out

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- telemetry ---------------------------------------------------------

    def _record(self, mode: str, wall_seconds: float) -> None:
        from repro.obs.hub import get_hub

        hub = get_hub()
        if hub is not None:
            hub.counter(
                "experiment_engine_runs_total",
                "runs completed by the experiment engine",
                ("mode",),
            ).inc(mode=mode)
            hub.histogram(
                "experiment_run_wall_ms",
                "wall-clock time of one simulation run",
                buckets=RUN_WALL_BUCKETS_MS,
            ).observe(wall_seconds * 1000.0)

    def __repr__(self) -> str:
        return f"<ParallelRunner jobs={self.jobs or 1}>"


#: The engine used when no explicit runner is passed: serial.
_default_runner: Optional[ParallelRunner] = None


def get_default_runner() -> ParallelRunner:
    """The process-wide engine (created serial on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ParallelRunner()
    return _default_runner


def set_default_runner(
    runner: Optional[ParallelRunner],
) -> Optional[ParallelRunner]:
    """Install the process-wide engine; returns the previous one.

    The CLI's ``--jobs`` flag parallelises existing experiment commands
    this way, without threading a runner parameter through every figure
    function.
    """
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous
