"""Each entry point imports only the code it runs.

Every case runs in a fresh interpreter, so what it finds in
``sys.modules`` is what that entry point loaded and nothing a test
before it left behind.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _child(code):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_live_host_loads_no_simulator():
    loaded = _child(
        "import json, sys\n"
        "import repro.runtime\n"
        "cluster = repro.runtime.LiveCluster(n_replicas=3, backend='thread',"
        " seed=0).start()\n"
        "cluster.shutdown()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for absent in ("numpy", "repro.sim", "repro.net",
                   "repro.replication.deployment", "repro.experiments",
                   "repro.analysis", "multiprocessing"):
        assert absent not in loaded, absent


def test_a_des_pass_loads_no_harness_claims_or_pool():
    found = _child(
        "import json, sys\n"
        "import repro.experiments.runner, repro.experiments.scale\n"
        "from repro.experiments.runner import RunConfig, run_once\n"
        "before = set(sys.modules)\n"
        "result = run_once(RunConfig(protocol='marp', n_replicas=3,"
        " requests_per_client=5, seed=1))\n"
        "print(json.dumps({'committed': result.committed,"
        " 'loaded': sorted(sys.modules),"
        " 'new': sorted(set(sys.modules) - before)}))\n"
    )
    assert found["committed"] > 0
    for absent in ("repro.core.machines.adversary", "repro.core.machines.replay",
                   "repro.experiments.claims",
                   "repro.experiments.parallel", "repro.obs.export",
                   "repro.obs.journeys", "repro.obs.selfcheck",
                   "repro.analysis.tracelog", "multiprocessing"):
        assert absent not in found["loaded"], absent
    assert [m for m in found["new"] if m.split(".")[0] == "repro"] == []


def test_the_root_names_still_import():
    names = _child(
        "import json\n"
        "from repro import Deployment, MARP, RequestRecord, READ, WRITE\n"
        "from repro import __version__\n"
        "print(json.dumps([Deployment.__module__, MARP.__module__,"
        " RequestRecord.__module__, READ, WRITE, __version__]))\n"
    )
    assert names[:3] == ["repro.replication.deployment",
                         "repro.replication.protocol",
                         "repro.replication.requests"]
    assert names[3:5] == [repro.READ, repro.WRITE]
    assert names[5] == repro.__version__
