"""No DES run leaves cyclic garbage, so ``run_once`` may pause the collector.

``run_once`` disables CPython's cyclic garbage collector for its whole
body (``docs/architecture.md``, "Memory"). That is only safe while a run
discards nothing that reference counting cannot free: a cycle made per
message or per commit would pile up, unreclaimed, until the run ends.
The matrix below counts, with ``gc.DEBUG_SAVEALL``, the objects a run
left unreachable only through cycles, for every protocol and MARP data
plane — writes only and a half-read mix (MARP's local and quorum
reads), MARP batching and a random-costs topology — under no fault, a
crash and 5 % link loss, with the deployment and the protocol still
alive; every cell must be zero.
"""

import gc
from collections import Counter

import pytest

from repro import obs
from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.runner import RunConfig, run_once
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults

#: read-heavy mix for the modes that exercise a protocol's read path
READS = {"write_fraction": 0.5}

#: mode -> (RunConfig fields, observability hub on?)
MODES = {
    "marp": ({"protocol": "marp"}, False),
    "marp-streaming": ({"protocol": "marp", "streaming": True}, False),
    "marp-obs": ({"protocol": "marp"}, True),
    "marp-quorum-reads": (
        {"protocol": "marp", "protocol_kwargs": {"read_strategy": "quorum"},
         **READS}, False,
    ),
    "marp-local-reads": ({"protocol": "marp", **READS}, False),
    "marp-batched": (
        {"protocol": "marp", "protocol_kwargs": {"batch_size": 3}}, False,
    ),
    "marp-random-costs": (
        {"protocol": "marp", "topology": "random-costs"}, False,
    ),
    "primary-copy": ({"protocol": "primary-copy"}, False),
    "primary-copy-reads": ({"protocol": "primary-copy", **READS}, False),
    "mcv": ({"protocol": "mcv"}, False),
    "mcv-reads": ({"protocol": "mcv", **READS}, False),
    "weighted-voting": ({"protocol": "weighted-voting"}, False),
    "weighted-voting-reads": (
        {"protocol": "weighted-voting", **READS}, False,
    ),
    "available-copies": ({"protocol": "available-copies"}, False),
    "available-copies-reads": (
        {"protocol": "available-copies", **READS}, False,
    ),
}


def _faults(kind):
    if kind == "crash":
        crashes = CrashSchedule()
        crashes.add("s2", 200.0, 1200.0)
        return FaultPlan(crashes=crashes)
    if kind == "loss":
        return FaultPlan(links=TransientLinkFaults(0.05))
    return None


@pytest.fixture(scope="module", autouse=True)
def imports_done():
    """Run every protocol once first: a module imported lazily during a
    process's first run (numpy's, say) leaves a few one-off cycles that
    are no run's doing."""
    for fields, _hub in MODES.values():
        run_once(RunConfig(n_replicas=3, seed=1, requests_per_client=2,
                           **fields))


@pytest.mark.parametrize("fault", ["none", "crash", "loss"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_run_leaves_no_cyclic_garbage(mode, fault, monkeypatch):
    fields, with_hub = MODES[mode]
    # The protocol is kept alive past the run, as the deployment is by
    # the result: what this counts is garbage made *during* the run.
    protocols = []
    build = runner.build_protocol

    def keep(deployment, config):
        protocols.append(build(deployment, config))
        return protocols[-1]

    monkeypatch.setattr(runner, "build_protocol", keep)
    config = RunConfig(
        n_replicas=5, seed=3, requests_per_client=10, horizon=30_000.0,
        faults=_faults(fault), **fields,
    )
    if with_hub:
        obs.enable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_once(config)
        gc.collect()
        garbage = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if with_hub:
            obs.disable()
    assert result.committed > 0
    assert not garbage, (
        f"{sum(garbage.values())} objects freed only by the cyclic "
        f"collector: {garbage.most_common(6)}"
    )


# -- run_once owns the collector, and hands it back --------------------------


def _collector_during_run(monkeypatch):
    seen = []
    build = runner.build_protocol

    def probe(deployment, config):
        seen.append(gc.isenabled())
        return build(deployment, config)

    monkeypatch.setattr(runner, "build_protocol", probe)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_run_once_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    seen = _collector_during_run(monkeypatch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_once(RunConfig(n_replicas=3, seed=1, requests_per_client=2))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_that_raises_still_hands_the_collector_back(
    enabled, monkeypatch
):
    seen = _collector_during_run(monkeypatch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ExperimentError):
            run_once(RunConfig(protocol="no-such-protocol"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
