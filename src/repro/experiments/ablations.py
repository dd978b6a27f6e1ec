"""Ablations and theorem validation (T3, A1, A2, A3 in DESIGN.md).

* **T3** — Theorem 3 bounds: in any round the winning agent learns the
  result after between ⌈(N+1)/2⌉ and N *distinct* server visits.
* **A1** — itinerary strategy: the paper's cost-sorted USL vs static,
  initial-sort and random orders, on a topology with non-uniform costs.
* **A2** — information sharing (bulletin boards, §3.1) on/off: sharing
  should reduce the visits needed to determine the lock holder.
* **A3** — batching (§3.2): requests per agent vs per-request overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.analysis.metrics import visit_counts
from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.experiments.parallel import get_default_runner
from repro.experiments.runner import RunConfig, RunResult, run_repeats

__all__ = [
    "theorem3_bounds",
    "Theorem3Report",
    "run_itinerary_ablation",
    "run_bulletin_ablation",
    "run_batching_ablation",
    "AblationTable",
]


@dataclass
class Theorem3Report:
    """Observed visit bounds versus Theorem 3's guarantees."""

    n_replicas: int
    lower_bound: int
    upper_bound: int
    observed_min: int
    observed_max: int
    commits: int

    @property
    def holds(self) -> bool:
        return (
            self.observed_min >= self.lower_bound
            and self.observed_max <= self.upper_bound
        )

    @property
    def text(self) -> str:
        return (
            f"Theorem 3 (N={self.n_replicas}): visits in "
            f"[{self.lower_bound}, {self.upper_bound}]; observed "
            f"[{self.observed_min}, {self.observed_max}] over "
            f"{self.commits} commits -> {'HOLDS' if self.holds else 'VIOLATED'}"
        )


def theorem3_bounds(
    n_replicas: int = 5,
    mean_interarrival: float = 25.0,
    requests_per_client: int = 20,
    repeats: int = 3,
    seed: int = 0,
    runner=None,
) -> Theorem3Report:
    """Measure the distinct-visit bounds of winning agents."""
    config = RunConfig(
        n_replicas=n_replicas,
        mean_interarrival=mean_interarrival,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    results = run_repeats(config, repeats, runner=runner)
    counts = np.concatenate(
        [visit_counts(r.records) for r in results]
    )
    return Theorem3Report(
        n_replicas=n_replicas,
        lower_bound=n_replicas // 2 + 1,
        upper_bound=n_replicas,
        observed_min=int(counts.min()) if counts.size else 0,
        observed_max=int(counts.max()) if counts.size else 0,
        commits=int(counts.size),
    )


@dataclass
class AblationTable:
    """Generic variant-per-row ablation result."""

    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)

    @property
    def text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def column(self, variant, header: str):
        index = self.headers.index(header)
        for row in self.rows:
            if row[0] == variant:
                return row[index]
        raise KeyError(f"no row for variant {variant!r}")


def _aggregate(results: List[RunResult]):
    return {
        "committed": summarize([float(r.committed) for r in results]).mean,
        "alt": summarize([r.alt for r in results]).mean,
        "att": summarize([r.att for r in results]).mean,
        "hops": summarize(
            [float(r.agent_migrations) for r in results]
        ).mean,
        "msgs": summarize(
            [float(r.control_messages) for r in results]
        ).mean,
        "consistent": all(r.audit.consistent for r in results),
    }


def _variant_table(
    title: str,
    base: RunConfig,
    param: str,
    variants: Sequence,
    repeats: int,
    runner=None,
) -> AblationTable:
    # ``param`` is a RunConfig field or else a setting of the MARP row.
    runner = runner if runner is not None else get_default_runner()
    table = AblationTable(
        title=title,
        headers=[param, "committed", "ALT(ms)", "ATT(ms)", "agent hops",
                 "ctl msgs", "consistent"],
    )
    grouped = runner.run_repeats_many([
        base.with_(**{param: variant}) if hasattr(base, param)
        else base.with_(protocol_kwargs={param: variant})
        for variant in variants
    ], repeats)
    for variant, results in zip(variants, grouped):
        agg = _aggregate(results)
        table.rows.append(
            [
                variant, agg["committed"], agg["alt"], agg["att"],
                agg["hops"], agg["msgs"], agg["consistent"],
            ]
        )
    return table


def run_itinerary_ablation(
    strategies: Sequence[str] = (
        "cost-sorted", "initial-cost-order", "static-order", "random-order",
    ),
    n_replicas: int = 5,
    mean_interarrival: float = 60.0,
    requests_per_client: int = 15,
    repeats: int = 2,
    seed: int = 0,
    runner=None,
) -> AblationTable:
    """A1: itinerary strategies on a random-cost topology."""
    base = RunConfig(
        n_replicas=n_replicas,
        mean_interarrival=mean_interarrival,
        requests_per_client=requests_per_client,
        topology="random-costs",
        seed=seed,
    )
    return _variant_table(
        "A1: itinerary strategy (random-cost topology)",
        base, "itinerary", strategies, repeats, runner=runner,
    )


def run_bulletin_ablation(
    n_replicas: int = 5,
    mean_interarrival: float = 30.0,
    requests_per_client: int = 15,
    repeats: int = 2,
    seed: int = 0,
    runner=None,
) -> AblationTable:
    """A2: information sharing via server bulletin boards on/off."""
    base = RunConfig(
        n_replicas=n_replicas,
        mean_interarrival=mean_interarrival,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    return _variant_table(
        "A2: agent information sharing (bulletin boards)",
        base, "enable_bulletin", (True, False), repeats, runner=runner,
    )


def run_batching_ablation(
    batch_sizes: Sequence[int] = (1, 2, 4, 8),
    n_replicas: int = 5,
    mean_interarrival: float = 20.0,
    requests_per_client: int = 24,
    repeats: int = 2,
    seed: int = 0,
    runner=None,
) -> AblationTable:
    """A3: requests carried per agent."""
    base = RunConfig(
        n_replicas=n_replicas,
        mean_interarrival=mean_interarrival,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    return _variant_table(
        "A3: request batching (requests per agent)",
        base, "batch_size", batch_sizes, repeats, runner=runner,
    )
