"""The README's Python examples and command lines run against the current package as written."""
from __future__ import annotations

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

from pcmxbar import DeviceParams, ProtocolParams
from pcmxbar.cli import EXIT_OK, main
from pcmxbar.configio import config_from_dict
from pcmxbar.network import DEFAULT_PROGRAM_PULSE, DEFAULT_READ_PULSE, DEFAULT_RESET_PULSE

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


def test_library_defaults_are_the_configuration_example():
    """The pulse, protocol and device defaults are what README's Library use says they are.

    No CLI run reads them, since every config key is required.
    """
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"^```jsonc\n(.*?)^```", section, flags=re.DOTALL | re.MULTILINE).group(1)
    example = config_from_dict(json.loads(re.sub(r"//[^\n]*", "", block)))
    pp = example.protocol
    assert (DEFAULT_READ_PULSE, DEFAULT_PROGRAM_PULSE, DEFAULT_RESET_PULSE) == (pp.read_pulse, pp.program_pulse, pp.reset_pulse)
    assert ProtocolParams() == pp
    assert DeviceParams() == replace(example.device, r_reset_partial_median=1.0e6, sigma_c2c=0.05)
