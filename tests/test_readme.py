"""The README's examples stay runnable: every command-line example parses
and the library tour executes."""

import re
import shlex
from pathlib import Path

import pytest

from ilab.cli import _parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block_after(heading: str) -> str:
    """The first fenced block after a Markdown heading."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```[a-z]*\n(.*?)^```", README, re.M | re.S)
    assert match, heading
    return match.group(1)


COMMANDS = [line for line in block_after("## Command line").splitlines()
            if line.startswith("ilab ")]


def test_command_block_is_found():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_command_line_example_parses(line):
    args = _parser().parse_args(shlex.split(line, comments=True)[1:])
    assert callable(args.func)


def test_library_tour_runs():
    exec(compile(block_after("## Library tour"), "README.md", "exec"), {})
