"""The paper's claims as rows: a grid, a table, a predicate, a verdict.

Each :class:`Claim` is one statement the reproduction checks — the
figures of §4 (F2–F4), the comparisons of §1/§5 (T1, T2, S1, F1), the
Theorem 3 bounds (T3), the design ablations (A1–A3) and two extensions
(X1, X2). A row carries the sentence it tests, its config grid at full
size and at ``--quick``, the function that runs the grid and projects
it to one :class:`~repro.analysis.tables.Table`, and a predicate over
that table with its bound. ``python -m repro claims [--quick] [ID…]``
prints every table, then a verdict table, and exits 1 when a verdict
differs from the row's expectation — including an expected failure
that starts to hold.

Every run goes through the experiment engine
(:meth:`~repro.experiments.parallel.ParallelRunner.run_repeats_many`),
one batch per claim, so ``-j`` fans the claims' runs out; a config two
claims share (Figs 2–4 sweep the same grid) runs once per invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import visit_counts
from repro.analysis.tables import Table
from repro.experiments.parallel import get_default_runner
from repro.experiments.runner import RunConfig, RunResult, config_key
from repro.experiments.scale import (
    DEFAULT_INTERARRIVALS as SCALE_INTERARRIVALS,
    QUICK_INTERARRIVALS as SCALE_QUICK_INTERARRIVALS,
    default_variants,
    run_scale,
)
from repro.net.faults import CrashSchedule, FaultPlan

__all__ = [
    "Claim",
    "CLAIMS",
    "ClaimsReport",
    "Verdict",
    "aggregate",
    "availability",
    "comparison",
    "figure",
    "measure_claims",
    "scalability",
    "scale_family",
    "theorem3",
    "throughput",
    "variants",
]

#: The quorum-voting comparators of T1/T2/S1.
VOTING = ("mcv", "weighted-voting")
COMPARED = ("marp",) + VOTING + ("primary-copy",)


# -- the one aggregator -------------------------------------------------------


def _mean(values) -> float:
    data = np.asarray([v for v in values if v == v], dtype=float)
    return float(data.mean()) if data.size else float("nan")


def aggregate(results: Sequence[RunResult]) -> Dict[str, Any]:
    """One grid cell's numbers: means over its repeats.

    ``consistent`` reads the audit without the config's
    ``audit_exclude`` hosts when it names any (F1's dead replicas).
    """
    committed = _mean(r.committed for r in results)
    messages = _mean(r.total_messages for r in results)
    total_bytes = _mean(r.total_bytes for r in results)
    n_replicas = results[0].config.n_replicas
    visits = np.concatenate([visit_counts(r.records) for r in results])
    per_commit = (lambda total: total / committed) if committed else (
        lambda total: float("nan")
    )
    return {
        "committed": committed,
        "failed": _mean(r.failed for r in results),
        "alt": _mean(r.alt for r in results),
        "att": _mean(r.att for r in results),
        "throughput": _mean(r.throughput for r in results),
        "ctl msgs": _mean(r.control_messages for r in results),
        "ctl KB": _mean(r.control_bytes for r in results) / 1024.0,
        "hops": _mean(r.agent_migrations for r in results),
        "agent KB": _mean(r.agent_bytes for r in results) / 1024.0,
        "msgs/commit": per_commit(messages),
        "KB/commit": per_commit(total_bytes / 1024.0),
        "prk %": {
            k: 100.0 * float(np.mean([r.prk.get(k, 0.0) for r in results]))
            for k in range(n_replicas // 2 + 1, n_replicas + 1)
        },
        "visits": (
            (int(visits.min()), int(visits.max())) if visits.size
            else (0, 0)
        ),
        "winners": int(visits.size),
        "consistent": all(
            (r.audit_excluded if r.config.audit_exclude else r.audit)
            .consistent
            for r in results
        ),
    }


class _Memo:
    """The engine's grid cells, each distinct (config, repeats) run once.

    Figs 2–4 sweep one grid; without this a claims run would simulate
    it three times. Only each cell's aggregate is kept, not its runs.
    """

    def __init__(self, runner=None) -> None:
        self.runner = runner if runner is not None else get_default_runner()
        self.done: Dict[Tuple[str, int], Dict[str, Any]] = {}

    def cells(self, configs: Sequence[RunConfig], repeats: int):
        keys = [(config_key(config), repeats) for config in configs]
        todo = {key: config for key, config in zip(keys, configs)
                if key not in self.done}
        fresh = self.runner.run_repeats_many(list(todo.values()), repeats)
        for key, results in zip(todo, fresh):
            self.done[key] = aggregate(results)
        return [self.done[key] for key in keys]


def _cells(runner, repeats: int, configs: Sequence[RunConfig]):
    """The grid's aggregates, one per config, in config order."""
    memo = runner if isinstance(runner, _Memo) else _Memo(runner)
    return memo.cells(configs, repeats)


_AUDIT_OK = "consistency audit: all runs consistent"


def _audit_note(cells) -> str:
    """The note of a table with no ``consistent`` column (Figs 2–4, T3)."""
    return (_AUDIT_OK if all(c["consistent"] for c in cells)
            else "consistency audit: VIOLATIONS")


def _consistent(table: Table) -> bool:
    """Whether every run behind ``table`` passed the consistency audit:
    its ``consistent`` column, else its audit note."""
    if "consistent" in table.headers:
        return all(table.column("consistent"))
    return table.note == _AUDIT_OK


# -- grid runners: each runs one grid and projects it to a Table --------------


def figure(
    runner=None, *, requests: int, repeats: int, seed: int, title: str,
    metric: str, server_counts: Sequence[int], gaps: Sequence[float],
) -> Table:
    """Figs 2–4: ``metric`` (``alt``, ``att`` or ``prk %``) over the mean
    inter-arrival sweep, one column per server count (per K for PRK)."""
    configs = [
        RunConfig(n_replicas=n, seed=seed, requests_per_client=requests)
        .with_(mean_interarrival=gap)
        for n in server_counts for gap in gaps
    ]
    cells = _cells(runner, repeats, configs)
    sweeps = iter(cells)
    columns: Dict[str, List[float]] = {}
    for n in server_counts:
        sweep = [next(sweeps) for _ in gaps]
        if metric == "prk %":
            for k in sweep[0]["prk %"]:
                columns[f"K={k}"] = [c["prk %"][k] for c in sweep]
        else:
            columns[f"{n} servers"] = [c[metric] for c in sweep]
    return Table(
        title, ["mean inter-arrival (ms)", *columns],
        [[gap, *(series[i] for series in columns.values())]
         for i, gap in enumerate(gaps)],
        note=_audit_note(cells),
    )


def comparison(
    runner=None, *, requests: int, repeats: int, seed: int, title: str,
    latencies: Sequence[str] = ("lan",), gap: float = 30.0,
    protocols: Sequence[str] = COMPARED, n_replicas: int = 5,
) -> Table:
    """T1/T2: every protocol on the identical workload, per latency."""
    grid = [(latency, protocol) for latency in latencies
            for protocol in protocols]
    configs = []
    for latency, protocol in grid:
        # Fairness: the voting baselines need WAN-scaled timeouts (a
        # LAN-tuned 500 ms lock round would time out against a 40 ms-
        # median heavy-tailed path and overstate MARP's win).
        settings: Dict[str, Any] = {}
        if latency == "wan" and protocol in VOTING + ("available-copies",):
            settings = {"lock_timeout": 3_000.0, "retry_backoff": 200.0}
        if latency == "wan" and protocol == "primary-copy":
            settings = {"write_timeout": 10_000.0}
        configs.append(RunConfig(
            protocol=protocol, latency=latency, n_replicas=n_replicas,
            mean_interarrival=gap, requests_per_client=requests,
            seed=seed, protocol_kwargs=settings,
        ))
    return Table(
        title,
        ["protocol", "net", "gap(ms)", "committed", "failed", "ATT(ms)",
         "ctl msgs", "ctl KB", "hops", "agent KB", "msgs/commit",
         "consistent"],
        [[protocol, latency, gap] + [c[name] for name in (
            "committed", "failed", "att", "ctl msgs", "ctl KB", "hops",
            "agent KB", "msgs/commit", "consistent")]
         for (latency, protocol), c in zip(
             grid, _cells(runner, repeats, configs))],
        keys=2,
    )


def theorem3(
    runner=None, *, requests: int, repeats: int, seed: int,
    server_counts: Sequence[int] = (3, 5), gap: float = 25.0,
) -> Table:
    """T3: the winners' distinct-visit range against Theorem 3's."""
    configs = [
        RunConfig(n_replicas=n, mean_interarrival=gap,
                  requests_per_client=requests, seed=seed)
        for n in server_counts
    ]
    cells = _cells(runner, repeats, configs)
    return Table(
        "T3: Theorem 3 visit bounds (distinct servers a winner visited)",
        ["N", "lower bound", "upper bound", "observed min",
         "observed max", "commits"],
        [[n, n // 2 + 1, n, *c["visits"], c["winners"]]
         for n, c in zip(server_counts, cells)],
        note=_audit_note(cells),
    )


def variants(
    runner=None, *, requests: int, repeats: int, seed: int, title: str,
    param: str, values: Sequence[Any], gap: float,
    topology: str = "mesh", n_replicas: int = 5,
) -> Table:
    """A1–A3: one MARP row per value of ``param`` (a RunConfig field,
    else a setting of the MARP row)."""
    base = RunConfig(
        n_replicas=n_replicas, mean_interarrival=gap,
        requests_per_client=requests, topology=topology, seed=seed,
    )
    configs = [
        base.with_(**{param: value}) if hasattr(base, param)
        else base.with_(protocol_kwargs={param: value})
        for value in values
    ]
    return Table(
        title,
        [param, "committed", "ALT(ms)", "ATT(ms)", "agent hops",
         "ctl msgs", "consistent"],
        [[value] + [c[name] for name in (
            "committed", "alt", "att", "hops", "ctl msgs", "consistent")]
         for value, c in zip(values, _cells(runner, repeats, configs))],
    )


def scalability(
    runner=None, *, requests: int, repeats: int, seed: int,
    replica_counts: Sequence[int], gap: float = 60.0,
    protocols: Sequence[str] = ("marp", "mcv"),
) -> Table:
    """S1: the replica count swept at a fixed per-server rate."""
    grid = [(protocol, n) for protocol in protocols for n in replica_counts]
    configs = [
        RunConfig(protocol=protocol, n_replicas=n, mean_interarrival=gap,
                  requests_per_client=requests, seed=seed)
        for protocol, n in grid
    ]
    return Table(
        f"S1: scaling the replica count ({gap:g}ms gaps per server)",
        ["protocol", "N", "committed", "ATT(ms)", "msgs/commit",
         "KB/commit", "consistent"],
        [[protocol, n] + [c[name] for name in (
            "committed", "att", "msgs/commit", "KB/commit", "consistent")]
         for (protocol, n), c in zip(grid, _cells(runner, repeats, configs))],
        keys=2,
    )


def availability(
    runner=None, *, requests: int, repeats: int, seed: int,
    protocols: Sequence[str] = ("marp", "primary-copy"),
    crash_counts: Sequence[int] = (0, 1, 2, 3), n_replicas: int = 5,
    gap: float = 150.0, horizon: float = 300_000.0,
) -> Table:
    """F1: the first ``k`` replicas crashed for the whole run."""
    grid = [(protocol, k) for protocol in protocols for k in crash_counts]
    configs = []
    for protocol, k in grid:
        dead = tuple(f"s{index + 1}" for index in range(k))
        schedule = CrashSchedule()
        for host in dead:
            schedule.add(host, 0, horizon * 10)  # never back in the horizon
        configs.append(RunConfig(
            protocol=protocol, n_replicas=n_replicas, mean_interarrival=gap,
            requests_per_client=requests, faults=FaultPlan(crashes=schedule),
            horizon=horizon, seed=seed,
            # the dead cannot converge: audit the survivors, inside the
            # run, so the report travels through pool workers
            audit_exclude=dead,
        ))
    total = float(n_replicas * requests)
    return Table(
        f"F1: availability with k of {n_replicas} replicas down",
        ["protocol", "crashed", "committed %", "ATT(ms)", "consistent"],
        [[protocol, k, 100.0 * c["committed"] / total, c["att"],
          c["consistent"]]
         for (protocol, k), c in zip(grid, _cells(runner, repeats, configs))],
        keys=2,
    )


def throughput(
    runner=None, *, requests: int, repeats: int, seed: int,
    gaps: Sequence[float], n_replicas: int = 5,
) -> Table:
    """X1: offered against achieved commit rate on one object."""
    configs = [
        RunConfig(n_replicas=n_replicas, requests_per_client=requests,
                  seed=seed).with_(mean_interarrival=gap)
        for gap in gaps
    ]
    rows = []
    for gap, c in zip(gaps, _cells(runner, repeats, configs)):
        offered = 1000.0 * n_replicas / gap  # requests/s cluster-wide
        rows.append([gap, offered, c["throughput"],
                     c["throughput"] / offered, c["alt"], c["consistent"]])
    return Table(
        f"X1: update throughput, {n_replicas} replicas (LAN)",
        ["gap(ms)", "offered/s", "achieved/s", "utilisation", "ALT(ms)",
         "consistent"],
        rows,
    )


def scale_family(
    runner=None, *, requests: int, repeats: int, seed: int,
    interarrivals: Sequence[float], variants=None,
) -> Table:
    """X2: the scale family's saturation curves (``run_scale``)."""
    return run_scale(
        interarrivals=interarrivals, variants=variants,
        requests_per_client=requests, repeats=repeats, seed=seed,
        runner=runner.runner if isinstance(runner, _Memo) else runner,
    ).table


# -- predicates ---------------------------------------------------------------


def _ends(table: Table):
    """(heaviest-load row, lightest-load row) of a gap-keyed table."""
    rows = sorted(table.rows, key=lambda row: row[0])
    return rows[0], rows[-1]


def _falls(table: Table) -> Tuple[bool, str]:
    heavy, light = _ends(table)
    falls = all(heavy[i] > light[i] for i in range(1, len(heavy)))
    return falls, ", ".join(
        f"N={header.split()[0]} {heavy[i]:.1f}→{light[i]:.1f}"
        for i, header in enumerate(table.headers) if i
    ) + " ms"


def _fig3(table: Table) -> Tuple[bool, str]:
    falls, measured = _falls(table)
    heavy, light = _ends(table)
    drops = [heavy[i] - light[i] for i in range(1, len(heavy))]
    return falls and drops[-1] > drops[0], measured


def _fig4(table: Table) -> Tuple[bool, str]:
    heavy, light = _ends(table)
    k_min, k_max = table.headers[1], table.headers[-1]
    return heavy[-1] > 50.0 and light[1] > 50.0, (
        f"{k_max} {heavy[-1]:.1f}% at {heavy[0]:g} ms, "
        f"{k_min} {light[1]:.1f}% at {light[0]:g} ms"
    )


def _marp_vs_voting(net: str, share: float):
    """MARP's ``net`` row sends under ``share`` of each voting
    protocol's msgs/commit and finishes sooner."""
    def check(table: Table) -> Tuple[bool, str]:
        rows = {p: table.row(p, net) for p in ("marp",) + VOTING}
        msgs = table.headers.index("msgs/commit")
        att = table.headers.index("ATT(ms)")
        holds = all(
            rows["marp"][msgs] < share * rows[p][msgs]
            and rows["marp"][att] < rows[p][att]
            for p in VOTING
        )
        return holds, "msgs/commit {}; ATT {} ms".format(*(
            " / ".join(f"{rows[p][i]:,.1f}" for p in rows)
            for i in (msgs, att)
        ))
    return check


def _theorem3(table: Table) -> Tuple[bool, str]:
    holds = all(lo <= seen_lo and seen_hi <= hi
                for _, lo, hi, seen_lo, seen_hi, _ in table.rows)
    return holds, "; ".join(
        f"N={n}: [{seen_lo}, {seen_hi}] over {commits}"
        for n, _, _, seen_lo, seen_hi, commits in table.rows
    )


def _a1(table: Table) -> Tuple[bool, str]:
    alt = table.series("ALT(ms)")
    return alt["cost-sorted"] < alt["random-order"], (
        f"ALT cost-sorted {alt['cost-sorted']:.1f}, random-order "
        f"{alt['random-order']:.1f} (static-order "
        f"{alt['static-order']:.1f}) ms"
    )


def _a2(table: Table) -> Tuple[bool, str]:
    hops = table.series("agent hops")
    return hops[True] < hops[False], (
        f"agent hops {hops[True]:g} on, {hops[False]:g} off"
    )


def _a3(table: Table) -> Tuple[bool, str]:
    hops = table.column("agent hops")
    return all(a > b for a, b in zip(hops, hops[1:])), (
        "agent hops " + " → ".join(f"{h:g}" for h in hops)
    )


def _s1(table: Table) -> Tuple[bool, str]:
    att = {p: table.series("ATT(ms)", p) for p in ("marp", "mcv")}
    msgs = {p: table.series("msgs/commit", p) for p in ("marp", "mcv")}
    low, high = min(att["marp"]), max(att["marp"])
    growth = {p: att[p][high] / att[p][low] for p in att}
    holds = growth["marp"] < growth["mcv"] and all(
        msgs["marp"][n] < msgs["mcv"][n] for n in msgs["marp"]
    )
    return holds, (
        f"ATT ×{growth['marp']:.1f} MARP, ×{growth['mcv']:.1f} MCV from "
        f"N={low} to {high}; msgs/commit at N={high} "
        f"{msgs['marp'][high]:.1f} / {msgs['mcv'][high]:.1f}"
    )


def _f1(table: Table) -> Tuple[bool, str]:
    marp = table.series("committed %", "marp")
    primary = table.series("committed %", "primary-copy")
    n = 5  # availability()'s cluster
    # while a majority lives every live home's clients commit, else none
    quorum = {k: 100.0 * (n - k) / n if n - k > n // 2 else 0.0
              for k in marp}
    holds = all(abs(marp[k] - quorum[k]) < 1e-9 for k in marp) and all(
        abs(primary[k] - (0.0 if k else 100.0)) < 1e-9 for k in primary
    )
    return holds, "MARP {} %, primary-copy {} %".format(
        " / ".join(f"{marp[k]:g}" for k in marp),
        " / ".join(f"{primary[k]:g}" for k in primary),
    )


def _x1(table: Table) -> Tuple[bool, str]:
    heavy, light = _ends(table)
    index = table.headers.index("utilisation")
    return heavy[index] < 0.5 < light[index], (
        f"utilisation {heavy[index]:.2f} at {heavy[1]:.1f}/s offered, "
        f"{light[index]:.2f} at {light[1]:.1f}/s"
    )


def _x2(table: Table) -> Tuple[bool, str]:
    gap, tput = table.headers.index("gap(ms)"), table.headers.index("tput/s")
    heaviest = min(row[gap] for row in table.rows)
    at_peak = {(row[0], row[1]): row[tput]
               for row in table.rows if row[gap] == heaviest}
    labels = sorted({label for _, label in at_peak})
    ratios = [at_peak["marp", label] / at_peak["mcv", label]
              for label in labels]
    return all(ratio >= 0.95 for ratio in ratios), (
        f"MARP/MCV throughput at {heaviest:g} ms gaps "
        f"{min(ratios):.2f}–{max(ratios):.2f} over {len(labels)} variants"
    )


# -- the rows -----------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One statement, its grid, its table and its predicate.

    ``measure(runner, requests=, repeats=, seed=, **grid)`` runs the
    ``full`` grid, or at ``--quick`` the full grid updated with
    ``quick``. A grid's ``requests`` fixes the requests per client; its
    ``max_requests`` caps the CLI's ``--requests``.
    ``predicate(table)`` returns ``(holds, measured)``; the claim holds
    only if every run behind the table passed the consistency audit. A
    row that fails today names the measured reason in ``fails_because``
    (an expected failure: the run is wrong if it starts to hold).
    """

    id: str
    quote: str
    measure: Callable[..., Table]
    full: Mapping[str, Any]
    predicate: Callable[[Table], Tuple[bool, str]]
    bound: str
    quick: Mapping[str, Any] = field(default_factory=dict)
    fails_because: str = ""

    def grid(self, *, quick: bool, requests: int) -> Dict[str, Any]:
        """The ``measure`` arguments of the full or ``quick`` grid, with
        ``requests`` per client (capped by ``max_requests``)."""
        grid = {**self.full, **(self.quick if quick else {})}
        cap = grid.pop("max_requests", requests)
        grid.setdefault("requests", min(requests, cap))
        return grid

    def table(self, *, quick: bool, requests: int, repeats: int,
              seed: int, runner=None) -> Table:
        """Run this claim's grid (``quick`` or full) into its table."""
        return self.measure(runner, repeats=repeats, seed=seed,
                            **self.grid(quick=quick, requests=requests))

    def verdict(self, table: Table) -> "Verdict":
        holds, measured = self.predicate(table)
        consistent = _consistent(table)
        if not consistent:
            measured += "; consistency audit VIOLATED"
        return Verdict(self, holds and consistent, measured, consistent)


@dataclass(frozen=True)
class Verdict:
    """A claim's predicate applied to its measured table."""

    claim: Claim
    holds: bool
    measured: str
    consistent: bool = True

    @property
    def expected(self) -> bool:
        """Whether the row says the claim holds today."""
        return not self.claim.fails_because

    @property
    def as_expected(self) -> bool:
        """An inconsistent run is never as expected, not even for an
        expected failure."""
        return self.consistent and self.holds == self.expected


def _word(holds: bool) -> str:
    return "holds" if holds else "fails"


def _fig(number: int, what: str, metric: str, counts=(3, 4, 5)):
    return dict(title=f"Figure {number}: {what}", metric=metric,
                server_counts=counts, gaps=(15, 25, 35, 45, 60, 80, 100))


_FIG_QUICK = dict(gaps=(20, 45, 80))

CLAIMS: Dict[str, Claim] = {claim.id: claim for claim in (
    Claim(
        "F2",
        '"as the mean arrival time increases both the ALT and ATT '
        'decrease" (§4, Fig 2)',
        figure,
        _fig(2, "average time for obtaining the lock (ALT, ms)", "alt"),
        _falls,
        "ALT at the heaviest load > ALT at the lightest, every N",
        quick=_FIG_QUICK,
    ),
    Claim(
        "F3",
        '"the message passing latency is the predominant factor ... As '
        'the number of servers increase, this trend is more obvious" '
        '(§4, Fig 3)',
        figure,
        _fig(3, "average time for completing a request (ATT, ms)", "att"),
        _fig3,
        "ATT falls from the heaviest load to the lightest, every N, and "
        "falls further at the largest N than at the smallest",
        quick=_FIG_QUICK,
    ),
    Claim(
        "F4",
        '"for a higher request generation rate ... for most requests, '
        'mobile agents need to visit all of the 5 servers ... as the '
        'generation rate drops, most requests can be granted the lock by '
        'having their mobile agents visit only 3 servers" (§4, Fig 4)',
        figure,
        _fig(4, "% of requests whose lock needed K server visits (N=5)",
             "prk %", counts=(5,)),
        _fig4,
        "K=5 > 50 % at the heaviest load, K=3 > 50 % at the lightest",
        quick=_FIG_QUICK,
    ),
    Claim(
        "T1",
        'MARP "avoids heavy message transmission required by conventional '
        'replication control protocols for achieving the quorum. A low '
        'message overhead leads to the improvement in the response time" '
        '(§1/§5)',
        comparison,
        dict(title="T1: protocol comparison under contention (LAN)",
             gap=30.0),
        _marp_vs_voting("lan", 0.5),
        "MARP msgs/commit < ½ MCV's and < ½ WV's; MARP ATT below both "
        "(MARP / MCV / WV)",
    ),
    Claim(
        "T2",
        'protocols built for closely coupled systems "may not scale to '
        'the world-wide Internet environment" (§1)',
        comparison,
        dict(title="T2: LAN vs WAN scaling", latencies=("lan", "wan"),
             gap=400.0),
        _marp_vs_voting("wan", 1.0),
        "on the WAN, MARP msgs/commit and ATT below MCV's and WV's "
        "(MARP / MCV / WV)",
    ),
    Claim(
        "T3",
        "Theorem 3: the winning agent learns it won after at least "
        "⌈(N+1)/2⌉ and at most N server visits",
        theorem3,
        dict(),
        _theorem3,
        "⌈(N+1)/2⌉ ≤ visits ≤ N for every winner, N = 3 and 5",
    ),
    Claim(
        "A1",
        "Algorithm 1: an agent travels to the cheapest unvisited server "
        "of its routing table (cost-sorted touring)",
        variants,
        dict(title="A1: itinerary strategy (random-cost topology)",
             param="itinerary",
             values=("cost-sorted", "initial-cost-order", "static-order",
                     "random-order"),
             gap=60.0, requests=15, topology="random-costs"),
        _a1,
        "ALT cost-sorted < ALT random-order (the same tour, unsorted)",
    ),
    Claim(
        "A2",
        'agents "exchange locking information by leaving it at servers", '
        'which "may be used by a mobile agent to determine which '
        'replicated server to visit next" (§3.1)',
        variants,
        dict(title="A2: agent information sharing (bulletin boards)",
             param="enable_bulletin", values=(True, False), gap=30.0,
             requests=15),
        _a2,
        "agent hops with sharing < agent hops without",
        fails_because=(
            "sharing saves no visits: 266 agent hops on against 265 off "
            "(full size), 252 against 247 (--quick)"
        ),
    ),
    Claim(
        "A3",
        'an agent is dispatched "after a pre-defined number of requests '
        'have been received" (§3.2)',
        variants,
        dict(title="A3: request batching (requests per agent)",
             param="batch_size", values=(1, 2, 4, 8), gap=20.0,
             requests=24),
        _a3,
        "agent hops fall strictly as the batch grows 1 → 2 → 4 → 8",
    ),
    Claim(
        "S1",
        'the protocol "is fully distributed and scalable" (§5)',
        scalability,
        dict(replica_counts=(3, 5, 7, 9), max_requests=10),
        _s1,
        "MARP's ATT grows by a smaller factor than MCV's over N, and its "
        "msgs/commit stays below MCV's at every N",
        quick=dict(replica_counts=(3, 5, 7)),
    ),
    Claim(
        "F1",
        '"if a single replica fails, others still exist" (§1)',
        availability,
        dict(max_requests=6),
        _f1,
        "MARP commits 100 / 80 / 60 / 0 % with 0 / 1 / 2 / 3 of 5 homes "
        "down; primary-copy 0 % once its primary is down",
    ),
    Claim(
        "X1",
        "extension: one serialised lock per object has a service "
        "ceiling; offered load beyond it queues",
        throughput,
        dict(gaps=(10.0, 20.0, 40.0, 80.0, 160.0), max_requests=15),
        _x1,
        "utilisation < 0.5 at the heaviest load, > 0.5 at the lightest",
        quick=dict(gaps=(10.0, 30.0, 80.0)),
    ),
    Claim(
        "X2",
        "extension: with a lock per key, MARP's throughput no longer "
        "plateaus below the quorum baseline's: at the heaviest load it "
        "keeps up with MCV's in every variant",
        scale_family,
        dict(interarrivals=SCALE_INTERARRIVALS,
             variants=tuple(default_variants())),
        _x2,
        "MARP throughput ≥ 0.95 × MCV's at the heaviest load, every variant",
        quick=dict(
            interarrivals=SCALE_QUICK_INTERARRIVALS, max_requests=40,
            variants=tuple(default_variants(
                replica_counts=(), key_counts=(), skews=(0.99,), wan=False,
            )),
        ),
    ),
)}


# -- running and rendering ----------------------------------------------------


@dataclass
class ClaimsReport:
    """Measured tables and verdicts of the claims run, in order."""

    tables: List[Table] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def as_expected(self) -> bool:
        return all(v.as_expected for v in self.verdicts)

    @property
    def verdict_table(self) -> Table:
        notes = [
            f"{v.claim.id} is expected to fail: {v.claim.fails_because}"
            for v in self.verdicts if not v.expected
        ]
        unexpected = [v.claim.id for v in self.verdicts
                      if not v.as_expected]
        notes.append(
            f"UNEXPECTED verdicts: {', '.join(unexpected)}" if unexpected
            else f"all {len(self.verdicts)} verdicts as expected"
        )
        return Table(
            "Verdicts",
            ["claim", "verdict", "expected", "measured", "bound"],
            [[v.claim.id, _word(v.holds), _word(v.expected), v.measured,
              v.claim.bound] for v in self.verdicts],
            note="\n".join(notes),
        )

    def render(self, fmt: str = "text") -> str:
        """The whole report as one text, CSV or JSON document."""
        if fmt == "json":
            return json.dumps({
                "claims": [
                    {
                        "id": v.claim.id,
                        "quote": v.claim.quote,
                        "verdict": _word(v.holds),
                        "expected": _word(v.expected),
                        "fails_because": v.claim.fails_because,
                        "measured": v.measured,
                        "bound": v.claim.bound,
                        "table": table.payload(),
                    }
                    for table, v in zip(self.tables, self.verdicts)
                ],
                "as_expected": self.as_expected,
            }, indent=2)
        if fmt == "csv":
            # one block per claim, then the verdicts; a blank line and a
            # one-cell label row open each block
            blocks = [(v.claim.id, t) for t, v in
                      zip(self.tables, self.verdicts)]
            blocks.append(("verdicts", self.verdict_table))
            return "\n".join(f"{label}\n{table.csv}"
                             for label, table in blocks)
        return "\n\n".join(
            [table.text for table in self.tables]
            + [self.verdict_table.text]
        )


def measure_claims(
    ids: Optional[Sequence[str]] = None, *, quick: bool = False,
    requests: int = 20, repeats: int = 2, seed: int = 0, runner=None,
) -> ClaimsReport:
    """Run the named claims (every claim by default), one engine batch
    per claim, and judge each."""
    memo = _Memo(runner)
    report = ClaimsReport()
    for claim_id in ids or list(CLAIMS):
        claim = CLAIMS[claim_id]
        table = claim.table(quick=quick, requests=requests,
                            repeats=repeats, seed=seed, runner=memo)
        report.tables.append(table)
        report.verdicts.append(claim.verdict(table))
    return report
