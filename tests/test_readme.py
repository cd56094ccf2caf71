"""The README's examples run as written.

The "Python API in five minutes" block is executed as it stands.  Each
command of the "Command line" block runs through ``cli.main`` and must exit
0; where the ``# ...`` line under it is complete JSON, the output must be
exactly that line.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

import coapprox.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _cli_examples():
    """(argv, stdin text, expected comment) per example of the command-line block."""
    examples = []
    for chunk in _block("Command line", "sh").strip().split("\n\n"):
        command, _, comment = chunk.partition("\n# ")
        words = shlex.split(command.replace("\\\n", " "))
        stdin = ""
        if words[0] == "echo":
            pipe = words.index("|")
            stdin, words = " ".join(words[1:pipe]), words[pipe + 1:]
        assert words[0] == "coapprox", chunk
        examples.append(pytest.param(words[1:], stdin, comment.strip(), id=words[1]))
    return examples


def test_python_api_block_runs():
    exec(compile(_block("Python API in five minutes", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv, stdin, comment", _cli_examples())
def test_command_line_example(monkeypatch, argv, stdin, comment):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, out.getvalue()
    try:
        json.loads(comment)
    except ValueError:
        return  # an abridged comment such as {"anti": "yes", ...}
    assert out.getvalue().strip() == comment
