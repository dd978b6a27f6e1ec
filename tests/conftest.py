"""Shared fixtures for the test suite."""

import os

import pytest

from repro.experiments.parallel import ParallelRunner
from repro.replication.deployment import Deployment
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(12345)


@pytest.fixture
def deployment() -> Deployment:
    """A small default cluster (3 replicas, seed 0, LAN)."""
    return Deployment(n_replicas=3, seed=0)


@pytest.fixture
def deployment5() -> Deployment:
    """The paper's 5-replica cluster."""
    return Deployment(n_replicas=5, seed=0)


@pytest.fixture(scope="session")
def engine_runner():
    """The experiment engine the determinism/theorem suites run under.

    ``REPRO_TEST_JOBS=N`` (N >= 2) fans runs out over a process pool, so
    CI exercises the same assertions on both execution paths. Unset,
    this is the serial engine — identical to calling ``run_once``
    directly.
    """
    jobs = int(os.environ.get("REPRO_TEST_JOBS", "0") or 0) or None
    runner = ParallelRunner(jobs=jobs)
    yield runner
    runner.close()
