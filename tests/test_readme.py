"""The README's library example and CLI commands run as written."""
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ringsplit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    density = namespace["density"]
    assert density.shape == namespace["grid"].shape
    assert np.all(np.isfinite(density)) and np.all(density >= 0.0)


def readme_cli_commands():
    """The words of each command in the README's CLI block, with its
    backslash continuations joined."""
    (block,) = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                          re.DOTALL | re.MULTILINE)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


COMMANDS = readme_cli_commands()


def test_readme_cli_block_holds_six_ringsplit_commands():
    assert [words[0] for words in COMMANDS] == ["ringsplit"] * 6


@pytest.mark.parametrize("words", COMMANDS,
                         ids=[f"{i}-{words[1]}" for i, words in enumerate(COMMANDS)])
def test_readme_cli_command_runs(words, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RINGSPLIT_CONFIG", raising=False)
    argv = words[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert out != ""
