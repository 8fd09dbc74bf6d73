import re
import shlex
from pathlib import Path

import pytest

from primeshape import cli

_README = Path(__file__).resolve().parents[1] / "README.md"


def _sh_commands() -> list[str]:
    """Each `primeshape ...` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", _README.read_text(), re.S)
    return [
        line.strip() for block in blocks for line in block.splitlines()
        if line.strip().startswith("primeshape ")
    ]


def test_readme_python_example_runs(capsys):
    # the package re-exports nothing, so the example's import paths are the
    # defining modules; running it keeps them, and the calls, current
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_has_cli_examples():
    assert len(_sh_commands()) >= 6


@pytest.mark.parametrize("command", _sh_commands())
def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys, command):
    # a flag renamed in the CLI but not in the docs fails here
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(command)[1:])
    assert code == 0, capsys.readouterr().err
