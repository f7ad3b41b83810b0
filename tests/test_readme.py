"""The README's command-line tour and library example, run as documented.

Every ``$ movkit ...`` line of the README's ``sh`` blocks runs in-process
against the ``demo.txt`` written from its ``$ cat demo.txt`` block, and its
output must equal the lines printed under it. Every bare expression in the
"Library use" block must evaluate to the value in its trailing comment.
"""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.io_formats import parse_election

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_examples():
    """(command, expected output) for every ``$`` line of the sh blocks."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _shell_examples()
DEMO = dict(EXAMPLES)["cat demo.txt"]
MOVKIT_EXAMPLES = [(cmd, out) for cmd, out in EXAMPLES if cmd.startswith("movkit ")]


def test_readme_tour_covers_every_command_and_mode():
    words = [shlex.split(cmd) for cmd, _ in MOVKIT_EXAMPLES]
    assert {w[1] for w in words} == {
        "winner", "mov", "samplesize", "lowerbound", "generate", "experiment", "distinguish",
    }
    modes = {w[w.index("--mode") + 1] for w in words if w[1] == "mov"}
    assert modes == {"exact", "bounds", "estimate"}
    parse_election(DEMO)


@pytest.mark.parametrize("command, expected", MOVKIT_EXAMPLES,
                         ids=[cmd.split()[1] for cmd, _ in MOVKIT_EXAMPLES])
def test_readme_command_output(command, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("demo.txt").write_text(DEMO, encoding="utf-8")
    result = CliRunner().invoke(main, shlex.split(command)[1:], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.output == expected


def _show(value):
    """A value as the README writes it: rationals as ``p/q``, tuples inline."""
    if isinstance(value, tuple):
        inner = ", ".join(_show(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def test_readme_library_example():
    [code] = [block for block in _blocks("python") if "from movkit" in block]
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            # the documented value, before any two-space gloss such as "ann wins"
            assert _show(value) == comment.split("  ")[0]
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README", "exec"), namespace)
    assert checked == 7
