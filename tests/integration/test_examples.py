"""Smoke tests: every shipped example must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_every_example_is_covered_here(self):
        assert EXAMPLES == [
            "internet_replication.py",
            "live_runtime.py",
            "protocol_comparison.py",
            "quickstart.py",
            "trace_walkthrough.py",
        ]

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "committed" in out
        assert "identical histories at all replicas: True" in out

    def test_trace_walkthrough(self):
        out = run_example("trace_walkthrough.py")
        assert "protocol trace" in out
        assert "[commit]" in out
        # read from the waiting agent's table as it claimed behind the
        # winner: both agents, winner first
        assert "epoch 2 behind s1@0#0" in out
        assert (
            "s2@0#0 claimed behind s1@0#0; grant-order prediction from "
            "its table then: ['s1@0#0', 's2@0#0']"
        ) in out

    def test_live_runtime(self):
        out = run_example("live_runtime.py")
        assert "12/12 updates committed" in out
        assert "consistent=True" in out

    @pytest.mark.slow
    def test_internet_replication(self):
        out = run_example("internet_replication.py")
        assert "audit after recovery: consistent=True" in out

    @pytest.mark.slow
    def test_protocol_comparison(self):
        out = run_example("protocol_comparison.py")
        assert "marp" in out
        assert "mcv" in out
