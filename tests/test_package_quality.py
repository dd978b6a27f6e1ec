"""Package-level quality gates: imports, docstrings, public API."""

import ast
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


def _module_level_imports(tree):
    """The modules a parsed file imports outside its functions and
    classes (a relative import keeps its leading dots)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_the_kernel_imports_only_itself_errors_and_identity(self):
        """Every backend imports ``repro.core.machines`` (the DES, the
        live runtime, the replay harness), so at module level the kernel
        imports nothing of the package but itself and ``repro.errors``
        (agent identity is the kernel's own). An import inside a
        function binds at call time and is not a kernel import."""
        kernel = os.path.join(os.path.dirname(repro.__file__), "core",
                              "machines")
        allowed = ("repro.core.machines", "repro.errors")
        impure = {}
        for name in sorted(os.listdir(kernel)):
            if name.endswith(".py"):
                with open(os.path.join(kernel, name), encoding="utf-8") as f:
                    modules = _module_level_imports(ast.parse(f.read()))
                impure[name] = [
                    module for module in modules
                    if module.startswith((".", "repro")) and not any(
                        module == a or module.startswith(a + ".")
                        for a in allowed
                    )
                ]
        assert {"protocols.py", "identity.py"} <= set(impure)
        assert {name: bad for name, bad in impure.items() if bad} == {}

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
        """A subpackage re-exports nothing, but for the two the
        benchmark reaches through a package: the live cluster and the
        hub API."""
        kept = {
            "repro.runtime": {"LiveCluster"},
            "repro.obs": {"ObservabilityHub", "enable", "disable",
                          "get_hub", "set_hub"},
        }
        for subpackage in (
            "repro.sim", "repro.net", "repro.replication",
            "repro.core.machines", "repro.runtime", "repro.obs",
            "repro.workload", "repro.analysis", "repro.experiments",
        ):
            module = importlib.import_module(subpackage)
            exported = getattr(module, "__all__", [])
            assert set(exported) == kept.get(subpackage, set()), subpackage
            for name in exported:
                assert getattr(module, name) is not None, (
                    f"{subpackage}.{name} missing"
                )
