"""Scale family: saturation curves at large request counts.

Where the S1 claim (:mod:`repro.experiments.claims`) fixes the offered
load and grows the cluster, this family fixes a cluster variant and **sweeps
the offered load** until each protocol saturates: committed throughput
stops tracking the arrival rate and tail latency (p99 ATT) bends
upward. Curves are produced for MARP against the quorum baselines over
four axes — replica count, key-population size, Zipf skew and WAN
latency — so the first MARP-vs-quorum bend is visible per axis.

Every run uses the million-request data plane: streaming accounting
(constant-memory Welford/P² reservoirs, and the consistency checker fed
at every apply) and a bounded Updated-List retention window. Runs dispatch through the
parallel runner, so ``-j`` applies, and results are bit-deterministic
per seed like every other family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.experiments.runner import RunConfig

__all__ = [
    "ScaleVariant",
    "ScalePoint",
    "ScaleCurve",
    "ScaleFamily",
    "default_variants",
    "run_scale",
]

#: Sweep of per-client mean inter-arrival gaps (ms), densest at the
#: loaded end where the saturation knee lives.
DEFAULT_INTERARRIVALS: Tuple[float, ...] = (160.0, 80.0, 40.0, 20.0, 10.0)
QUICK_INTERARRIVALS: Tuple[float, ...] = (120.0, 40.0, 15.0)


@dataclass(frozen=True)
class ScaleVariant:
    """One point on a non-load axis: a cluster/workload shape."""

    label: str
    n_replicas: int = 5
    n_keys: int = 16
    key_skew: float = 0.9
    latency: str = "lan"

    def payload(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "n_replicas": self.n_replicas,
            "n_keys": self.n_keys,
            "key_skew": self.key_skew,
            "latency": self.latency,
        }


@dataclass
class ScalePoint:
    """One offered-load point of one curve (mean over repeats)."""

    mean_interarrival: float
    offered_load: float  # nominal requests/s across the whole cluster
    arrival_rate: float  # realised update arrivals/s, measured as throughput
    committed: float
    throughput: float  # committed writes/s of simulated time
    att: float
    att_p50: float
    att_p99: float
    consistent: bool

    def payload(self) -> Dict[str, Any]:
        return {
            "mean_interarrival": self.mean_interarrival,
            "offered_load": self.offered_load,
            "arrival_rate": self.arrival_rate,
            "committed": self.committed,
            "throughput": self.throughput,
            "att": self.att,
            "att_p50": self.att_p50,
            "att_p99": self.att_p99,
            "consistent": self.consistent,
        }


@dataclass
class ScaleCurve:
    """Offered load → throughput/latency for one (protocol, variant)."""

    protocol: str
    variant: ScaleVariant
    points: List[ScalePoint] = field(default_factory=list)

    def saturation_load(self, efficiency: float = 0.9) -> Optional[float]:
        """Offered load (req/s) at the first point where committed
        throughput drops below ``efficiency`` × the realised arrival
        rate — the knee of the curve — or ``None`` if the sweep never
        saturates.

        Both rates are ``(n-1)/span`` over the same run: a short sweep's
        arrivals span longer than the nominal rate implies, so the
        nominal offered load would name a knee where every update was
        served as it came."""
        for point in self.points:
            if point.arrival_rate <= 0:
                continue
            if point.throughput < efficiency * point.arrival_rate:
                return point.offered_load
        return None

    def payload(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "variant": self.variant.payload(),
            "saturation_load": self.saturation_load(),
            "points": [point.payload() for point in self.points],
        }


@dataclass
class ScaleFamily:
    """All saturation curves of one sweep + table/JSON projections."""

    title: str
    curves: List[ScaleCurve] = field(default_factory=list)

    @property
    def table(self) -> Table:
        """One row per curve point (the X2 claim's table)."""
        return Table(
            self.title,
            ["protocol", "variant", "gap(ms)", "offered/s", "arrived/s",
             "committed", "tput/s", "ATT(ms)", "p50", "p99", "consistent"],
            [
                [curve.protocol, curve.variant.label,
                 point.mean_interarrival, round(point.offered_load, 1),
                 round(point.arrival_rate, 1), point.committed,
                 round(point.throughput, 1), round(point.att, 2),
                 round(point.att_p50, 2), round(point.att_p99, 2),
                 point.consistent]
                for curve in self.curves for point in curve.points
            ],
            keys=3,
        )

    def curve(self, protocol: str, variant_label: str) -> ScaleCurve:
        for curve in self.curves:
            if (
                curve.protocol == protocol
                and curve.variant.label == variant_label
            ):
                return curve
        raise KeyError(f"no curve for ({protocol!r}, {variant_label!r})")

    def bends(self) -> Dict[str, Dict[str, Optional[float]]]:
        """variant label → protocol → saturation load (req/s)."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for curve in self.curves:
            out.setdefault(curve.variant.label, {})[curve.protocol] = (
                curve.saturation_load()
            )
        return out

    def payload(self) -> Dict[str, Any]:
        """JSON-serialisable document (the CI scale-smoke artifact)."""
        return {
            "schema": "repro-scale/v1",
            "title": self.title,
            "bends": self.bends(),
            "curves": [curve.payload() for curve in self.curves],
        }


def default_variants(
    replica_counts: Sequence[int] = (7,),
    key_counts: Sequence[int] = (256,),
    skews: Sequence[float] = (0.0, 0.99),
    wan: bool = True,
    base: Optional[ScaleVariant] = None,
) -> List[ScaleVariant]:
    """The default axis matrix: one base shape plus one variant per
    replica count, key count, skew and (optionally) WAN latency.

    A full cross-product would be quadratic in runs for no extra
    insight; one-axis-at-a-time keeps every curve attributable to a
    single knob, like the paper's own figures.
    """
    base = base or ScaleVariant(label="base")
    variants = [base]
    for n in replica_counts:
        if n != base.n_replicas:
            variants.append(ScaleVariant(
                label=f"N={n}", n_replicas=n, n_keys=base.n_keys,
                key_skew=base.key_skew, latency=base.latency,
            ))
    for k in key_counts:
        if k != base.n_keys:
            variants.append(ScaleVariant(
                label=f"keys={k}", n_replicas=base.n_replicas, n_keys=k,
                key_skew=base.key_skew, latency=base.latency,
            ))
    for theta in skews:
        if theta != base.key_skew:
            variants.append(ScaleVariant(
                label=f"skew={theta:g}", n_replicas=base.n_replicas,
                n_keys=base.n_keys, key_skew=theta, latency=base.latency,
            ))
    if wan and base.latency != "wan":
        variants.append(ScaleVariant(
            label="wan", n_replicas=base.n_replicas, n_keys=base.n_keys,
            key_skew=base.key_skew, latency="wan",
        ))
    return variants


def scale_config(
    protocol: str,
    variant: ScaleVariant,
    mean_interarrival: float,
    requests_per_client: int,
    seed: int = 0,
) -> RunConfig:
    """The canonical scale-family RunConfig: streaming accounting.

    The horizon grows with the offered workload (20× the expected
    arrival span, floored at the RunConfig default) so bulk runs —
    up to the million-request scenario — are never truncated mid-flight;
    the DES stops at quiescence, so a generous horizon costs nothing.
    """
    horizon = max(5_000_000.0, 20.0 * mean_interarrival * requests_per_client)
    return RunConfig(
        protocol=protocol,
        n_replicas=variant.n_replicas,
        seed=seed,
        mean_interarrival=mean_interarrival,
        requests_per_client=requests_per_client,
        latency=variant.latency,
        horizon=horizon,
        streaming=True,
        key_skew=variant.key_skew,
        n_keys=variant.n_keys,
    )


def run_scale(
    protocols: Sequence[str] = ("marp", "mcv"),
    interarrivals: Sequence[float] = DEFAULT_INTERARRIVALS,
    variants: Optional[Sequence[ScaleVariant]] = None,
    requests_per_client: int = 200,
    repeats: int = 1,
    seed: int = 0,
    runner=None,
) -> ScaleFamily:
    """Sweep the offered load per (protocol, variant) pair.

    The whole ``protocols × variants × loads × repeats`` batch goes to
    the runner at once, so ``-j`` parallelism spans the entire family.
    """
    from repro.experiments.parallel import get_default_runner

    runner = runner if runner is not None else get_default_runner()
    variants = list(variants) if variants is not None else default_variants()
    cells = [
        (protocol, variant, gap, scale_config(
            protocol, variant, gap, requests_per_client, seed=seed,
        ))
        for protocol in protocols
        for variant in variants
        for gap in interarrivals
    ]
    grouped = runner.run_repeats_many(
        [config for _, _, _, config in cells], repeats
    )
    family = ScaleFamily(
        title=(
            f"SCALE: offered load vs. committed throughput / tail ATT "
            f"({requests_per_client} req/client, streaming accounting)"
        ),
    )
    curves: Dict[Tuple[str, str], ScaleCurve] = {}
    for (protocol, variant, gap, _), results in zip(cells, grouped):
        key = (protocol, variant.label)
        curve = curves.get(key)
        if curve is None:
            curve = curves[key] = ScaleCurve(protocol=protocol,
                                             variant=variant)
            family.curves.append(curve)
        # One client per replica, each submitting at rate 1/gap per ms.
        offered = variant.n_replicas * 1000.0 / gap
        curve.points.append(ScalePoint(
            mean_interarrival=gap,
            offered_load=offered,
            arrival_rate=summarize([r.arrival_rate for r in results]).mean,
            committed=summarize(
                [float(r.committed) for r in results]
            ).mean,
            throughput=summarize([r.throughput for r in results]).mean,
            att=summarize([r.att for r in results]).mean,
            att_p50=summarize([r.att_p50 for r in results]).mean,
            att_p99=summarize([r.att_p99 for r in results]).mean,
            consistent=all(r.audit.consistent for r in results),
        ))
    return family
