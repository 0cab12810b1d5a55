"""The README's Python examples and command lines run against the current package as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from pcmxbar.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_print_their_commented_values(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    namespace: dict = {}
    # one namespace: later blocks use names the first one imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    comments = [line.split("#", 1)[1].strip() for block in blocks for line in block.splitlines() if "print(" in line]
    assert comments == ["1", "~1.37e-10 J", "[0, 1, 2, 3, 5]"]
    epochs, energy, firing = capsys.readouterr().out.splitlines()
    assert epochs == "1"
    assert f"{float(energy):.3g}" == "1.37e-10"
    assert firing == "[0, 1, 2, 3, 5]"
    assert [row.cv for row in namespace["rows"]] == list(namespace["spec"].cvs)


def test_readme_command_lines_exit_0(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.DOTALL | re.MULTILINE).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("pcmxbar ")]
    assert [argv[1] for argv in commands] == ["learn", "recall", "sweep", "device-curve"]
    # in order, into one directory: recall probes the arrays learn stored
    for argv in commands:
        assert main([str(tmp_path) if arg == "out/" else arg for arg in argv[1:]]) == EXIT_OK, argv
