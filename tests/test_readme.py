import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    # the package re-exports nothing, so the example's import paths are the
    # defining modules; running it keeps them, and the calls, current
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})
    assert capsys.readouterr().out.strip()
