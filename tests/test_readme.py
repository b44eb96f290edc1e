"""Every example in README.md runs: Python blocks execute, CLI lines exit 0."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from ktheta.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
CLI_LINES = [
    line for lang, body in BLOCKS if lang == "sh"
    for line in body.splitlines() if line.startswith("ktheta ")
]


def test_examples_found():
    assert len(PYTHON_BLOCKS) >= 3
    assert len(CLI_LINES) >= 8


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(line):
    result = CliRunner().invoke(main, shlex.split(line, comments=True)[1:])
    assert result.exit_code == 0, result.output
