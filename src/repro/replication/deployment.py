"""Deployment wiring: one call builds a complete replicated system.

A :class:`Deployment` owns the environment, random streams, topology,
network and one replica server (with its effect interpreter) per host,
and feeds each host's restart input from the fault plan. Protocols
(MARP and the message-passing baselines) are constructed *on top of* a
deployment, so every protocol runs over the identical substrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReplicationError
from repro.core.machines.interpreter import EffectInterpreter
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, lan_profile
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs.hub import get_hub
from repro.replication.server import ReplicaConfig, ReplicaServer
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams

__all__ = ["Deployment", "RELIABLE_KINDS"]

#: The kinds the paper's fault model makes reliable (write-all
#: propagation and crash recovery). The DES network sends them over a
#: reliable channel: a transmission a random link loss drops is
#: retransmitted. The replay harness never drops them either.
RELIABLE_KINDS = frozenset(("COMMIT", "ABORT", "SYNC_REQUEST", "SYNC_REPLY"))


class Deployment:
    """A cluster of N mobile-agent-enabled replica servers.

    Parameters
    ----------
    n_replicas:
        Number of replicated servers (the paper evaluates 3–5).
    seed:
        Master seed for all random streams.
    latency:
        Network latency model (default: calibrated LAN profile).
    topology:
        Host graph; default full mesh of unit cost over hosts
        ``s1..sN``.
    faults:
        Crash windows / link faults (default: none).
    replica_config:
        Server tunables, shared by all hosts.
    obs:
        An :class:`~repro.obs.hub.ObservabilityHub` to instrument this
        deployment with. Defaults to the process-wide hub installed via
        :func:`repro.obs.enable` (``None``/disabled → no telemetry and
        no overhead).
    """

    def __init__(
        self,
        n_replicas: int = 5,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        topology: Optional[Topology] = None,
        faults: Optional[FaultPlan] = None,
        replica_config: Optional[ReplicaConfig] = None,
        host_prefix: str = "s",
        obs=None,
    ) -> None:
        hub = obs if obs is not None else get_hub()
        #: the observability hub, or None when telemetry is off
        self.obs = hub if (hub is not None and hub.enabled) else None
        if topology is None:
            if n_replicas < 1:
                raise ReplicationError(f"need at least 1 replica: {n_replicas}")
            hosts = [f"{host_prefix}{i}" for i in range(1, n_replicas + 1)]
            topology = Topology.full_mesh(hosts)
        self.hosts: List[str] = sorted(topology.hosts)
        self.n_replicas = len(self.hosts)

        self.env = Environment()
        if self.obs is not None:
            self.obs.bind_clock(lambda: self.env.now)
            self.env.attach_observability(self.obs)
        self.streams = RandomStreams(seed)
        self.topology = topology
        self.faults = faults or FaultPlan.none()
        self.replica_config = replica_config or ReplicaConfig()
        self.network = Network(
            self.env,
            topology,
            latency=latency if latency is not None else lan_profile(),
            faults=self.faults,
            streams=self.streams,
            reliable_kinds=RELIABLE_KINDS,
        )
        if self.obs is not None:
            self.network.attach_observability(self.obs)
        self.servers: Dict[str, ReplicaServer] = {}
        for host in self.hosts:
            self.servers[host] = ReplicaServer(
                self.env, host, self.network.register(host), self.network,
                peers=self.hosts, config=self.replica_config,
                servers=self.servers, obs=self.obs,
            )

        #: optional structured protocol trace (see enable_tracing)
        self.trace = None

        # A host that comes back catches up before it serves again
        # (docs/protocol.md, "Recovery"): at the end of each of its
        # crash windows, and of each link outage it was on.
        for host, server in self.servers.items():
            for up_at in self.faults.rejoin_times(host):
                self.env.call_in(
                    up_at - self.env.now, EffectInterpreter.restarted,
                    server.interpreter,
                )

    # ------------------------------------------------------------------

    def enable_tracing(self, capacity: Optional[int] = None):
        """Turn on structured protocol tracing; returns the trace.

        Every replica server — for itself and its visiting agents —
        starts recording
        :class:`~repro.analysis.tracelog.TraceEvent`s. ``capacity``
        bounds memory for long runs (events beyond it are counted as
        dropped).

        When the deployment has an observability hub, the trace is a
        view over the hub's unified span/event stream, so protocol
        events also appear in JSONL exports; without a hub the trace
        gets a private stream (the pre-obs behaviour, bit for bit).
        """
        from repro.analysis.tracelog import ProtocolTrace

        if self.trace is None:
            tracer = self.obs.tracer if self.obs is not None else None
            self.trace = ProtocolTrace(capacity=capacity, tracer=tracer)
            for server in self.servers.values():
                server.trace = self.trace
        return self.trace

    def server(self, host: str) -> ReplicaServer:
        try:
            return self.servers[host]
        except KeyError:
            raise ReplicationError(f"unknown host {host!r}") from None

    @property
    def majority(self) -> int:
        """Smallest integer strictly greater than N/2."""
        return self.n_replicas // 2 + 1

    def alive_hosts(self) -> List[str]:
        return [h for h in self.hosts if self.network.host_up(h)]

    # ------------------------------------------------------------------

    def run(self, until=None):
        """Convenience passthrough to the environment's run loop."""
        return self.env.run(until=until)

    def __repr__(self) -> str:
        return f"<Deployment n={self.n_replicas} hosts={self.hosts}>"
