"""The examples of README.md, run as written: the command-line examples
one by one, the python blocks in order in one namespace."""

import re
from pathlib import Path

import pytest

from boxalg.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

# "$ boxalg <kind> --json '<problem>'", the problem possibly over several
# lines and the command possibly followed by a comment, then the output
# lines up to a blank line, the next command or the end of the block
EXAMPLE = re.compile(
    r"^\$ boxalg (\w+) --json '([^']*)'.*\n((?:(?!\$ |```)[^\n]+\n)*)", re.M)

EXAMPLES = EXAMPLE.findall(README)

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) >= 9
    assert {kind for kind, _, _ in EXAMPLES} >= {
        "det", "solve", "maxsolve", "hyperplane", "charpoly", "eigen",
        "oracle", "sym"}


@pytest.mark.parametrize("kind, problem, shown", EXAMPLES,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(EXAMPLES)])
def test_example_runs_as_shown(capsys, kind, problem, shown):
    # the shown output is wrapped over lines and abridged with "...": its
    # pieces must appear in stdout in order
    assert run([kind, "--json", problem]) == 0
    out = capsys.readouterr().out
    at = 0
    shown = "".join(line.strip() for line in shown.splitlines())
    for piece in filter(None, shown.split("...")):
        found = out.find(piece, at)
        assert found >= 0, f"{piece!r} not in {out[at:]!r}"
        at = found + len(piece)


def test_python_blocks_run_in_order():
    # each block may use the names of the blocks before it
    assert len(PYTHON_BLOCKS) >= 2
    namespace: dict = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
