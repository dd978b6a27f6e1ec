"""Package-level quality gates: imports, docstrings, public API."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ALL_MODULES = [
    name
    for _finder, name, _is_pkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
]


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_package_has_version(self):
        assert repro.__version__

    def test_a_run_imports_no_graph_or_stats_library(self):
        """What every run and every benchmark child imports pulls in
        neither networkx (``net.topology`` routes by itself) nor scipy
        (``analysis.stats`` imports it at its one call site)."""
        code = (
            "import sys, repro.experiments.runner, repro.cli; "
            "print(sorted({'networkx', 'scipy'} & set(sys.modules)))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} lacks a module docstring"
        )

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_items_are_documented(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            return
        for name in exported:
            item = getattr(module, name)
            if isinstance(item, (int, float, str, tuple, dict, frozenset)):
                continue  # constants document themselves
            if not isinstance(item, type) and not callable(item):
                continue  # misc values
            if type(item).__module__ == "typing":
                continue  # type aliases (e.g. LockView)
            assert getattr(item, "__doc__", None), (
                f"{module_name}.{name} lacks a docstring"
            )


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        for subpackage in (
            "repro.sim", "repro.net", "repro.agents", "repro.replication",
            "repro.core", "repro.baselines", "repro.runtime",
            "repro.workload", "repro.analysis", "repro.experiments",
        ):
            module = importlib.import_module(subpackage)
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    f"{subpackage}.{name} missing"
                )
