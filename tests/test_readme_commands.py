"""Every ``python -m repro.cli …`` line in README's bash blocks must parse.

The commands are only handed to :func:`repro.cli.build_parser` — nothing
runs — so a flag that was removed from the CLI but is still documented
fails here instead of in a reader's shell.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
_BASH_BLOCK = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)
_PREFIX = ["python", "-m", "repro.cli"]


def _readme_commands():
    """The argv tail of every CLI line in README's bash blocks."""
    commands = []
    for block in _BASH_BLOCK.findall(README.read_text(encoding="utf-8")):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            while words and "=" in words[0]:  # leading VAR=value assignments
                words.pop(0)
            if words[:3] == _PREFIX:
                commands.append(words[3:])
    return commands


COMMANDS = _readme_commands()


def test_readme_has_cli_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {' '.join(argv)}\n"
                    f"{capsys.readouterr().err}")
