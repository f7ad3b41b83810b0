"""Importing one movkit module loads only the movkit modules it imports.

The package root re-exports nothing, so ``import movkit.X`` runs ``movkit``,
X itself and the movkit modules that X's module-level imports reach, and no
other. The expected set is read from the sources with ``ast``; each module
is then imported in a fresh interpreter, with ``src`` first on its path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(f"movkit.{p.stem}" for p in (SRC / "movkit").glob("*.py") if p.stem != "__init__")


def _direct_imports(module):
    """The movkit modules that ``module``'s module-level statements import."""
    path = SRC / (module.replace(".", "/") + ".py")
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module == "movkit":
            found.update(f"movkit.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("movkit."):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("movkit."))
    return found


def _reached(module):
    """``module`` and every movkit module its imports reach, transitively."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_direct_imports(name))
    return seen


def test_every_module_is_checked():
    assert len(MODULES) == 7 and "movkit.cli" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_a_module_loads_only_what_it_imports(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (f"import sys, {module}, movkit; print(movkit.__file__); "
              "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'movkit'))")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert Path(out[0]) == SRC / "movkit" / "__init__.py"
    assert set(out[1].split()) == {"movkit"} | _reached(module)
