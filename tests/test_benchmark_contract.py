"""The names the benchmark in ``perfbench/`` looks up in movkit still exist.

The benchmark runs ``perfbench/run.py`` against this checkout, and its
tracer replaces functions at the names their callers look up. A deleted or
renamed name breaks the benchmark only when it runs, so these tests resolve
every such name without running it: each ``(owner, attribute)`` site of the
tracer's ``LAYERS``, and every ``movkit`` name a perfbench script imports or
reads as an attribute of an imported movkit module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _movkit_names(path):
    """(line, dotted name) of each movkit module, imported name, and
    attribute chain on an imported movkit module that ``path`` uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "movkit":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.append((node.lineno, dotted))
                modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "movkit":
                    names.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.append((node.lineno, ".".join([modules[node.id], *reversed(chain)])))
    return names


def _resolve(dotted):
    """The object a dotted name starting at a movkit module denotes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_the_scripts_use_movkit():
    # the scan below must see the workloads' imports, or it checks nothing
    used = {name for path in SCRIPTS for _, name in _movkit_names(path)}
    assert {"movkit.cli", "movkit.experiments.run_experiment",
            "movkit.estimators.VoteSource"} <= used


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_every_movkit_name_a_perfbench_script_uses_exists(path):
    missing = []
    for line, dotted in _movkit_names(path):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(f"{path.name}:{line}: {dotted}")
    assert not missing


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, (_, sites) in tracer.LAYERS.items():
        assert sites, layer
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), f"{layer}: {owner!r}.{attr}"
