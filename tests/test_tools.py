import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
parity = _load("parity")

# 8 code lines: the import, the def, the four lines of the multi-line
# statement, the string that follows the docstring and the return
MODULE = '''"""Module docstring
over two lines."""

import math  # a trailing comment leaves the line a code line

# a comment line


def f(x):
    """Function docstring."""
    # an indented comment
    total = (
        x

        + 1
    )
    "a string after the docstring is code"
    return math.sqrt(total)
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "m.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 8
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  pkg/m.py\n     8  total\n"


def _table(gap_db: float, nu_star: float, version: str = "0.1.0") -> str:
    doc = {
        "provenance": {"tool": f"primeshape {version}", "command": "table"},
        "rows": [{"p": 7, "gap_db": gap_db, "nu_star": nu_star, "status": "ok"}],
    }
    return json.dumps(doc, indent=2) + "\n"


def _outputs(root: Path, gap_db: float, nu_star: float, version: str) -> Path:
    """Two commands' output sets as `parity.run_commands` leaves them."""
    (root / "table").mkdir(parents=True)
    (root / "table" / "stdout").write_text(_table(gap_db, nu_star, version))
    (root / "table" / "exit_status").write_text("0\n")
    (root / "construct").mkdir()
    (root / "construct" / "points.csv").write_text(
        f"# tool: primeshape {version}\nindex,re\n0,1.0\n"
    )
    return root


@pytest.mark.parametrize(
    "gap_db, nu_star, verdict, ok",
    [
        (1.25, 0.1, "identical", True),
        (1.25 + 1e-12, 0.1 + 1e-6, "max |delta| 1e-12", True),
        (1.25 + 1e-6, 0.1, "past the bound 1e-09", False),
    ],
    ids=["identical", "within-bound", "past-bound"],
)
def test_parity_compares_two_output_sets(tmp_path, gap_db, nu_star, verdict, ok):
    # the provenance tool line (the version) never counts as a difference
    base = _outputs(tmp_path / "base", 1.25, 0.1, "0.1.0")
    change = _outputs(tmp_path / "change", gap_db, nu_star, "0.2.0")
    lines, all_ok = parity.compare(base, change, 1e-9)
    assert all_ok is ok
    assert lines[0].split() == ["construct", "identical"]
    assert lines[1].startswith("table ") and verdict in lines[1]
    if verdict != "identical":
        assert "stdout:rows[0].gap_db" in lines[1]
    if nu_star != 0.1:
        assert "nu_star max |delta| 1e-06 (stdout:rows[0].nu_star)" in lines[1]


def test_parity_flags_a_changed_csv_or_exit_status(tmp_path):
    base = _outputs(tmp_path / "base", 1.25, 0.1, "0.1.0")
    change = _outputs(tmp_path / "change", 1.25, 0.1, "0.1.0")
    (change / "construct" / "points.csv").write_text("index,re\n0,1.000001\n")
    (change / "table" / "exit_status").write_text("3\n")
    lines, all_ok = parity.compare(base, change, 1.0)
    assert not all_ok
    assert lines == [
        "construct                differs: points.csv",
        "table                    differs: exit_status",
    ]


def _csv_table(gap_db: str, nu_star: str) -> str:
    return (
        "# tool: primeshape 0.1.0\n# command: table\n"
        "p,Rc,gap_db,nu_star,status\n"
        "7,2/3,0.101,0.070000,ok\n"
        f"13,2/3,{gap_db},{nu_star},ok\n"
    )


@pytest.mark.parametrize(
    "gap_db, nu_star, verdict, ok",
    [
        ("0.088", "0.050000", "identical", True),
        ("0.088", "0.050001", "nu_star max |delta| 1e-06 (stdout:rows[1].nu_star)", True),
        ("0.089", "0.050000", "differs: stdout", False),
        ("0.089", "0.050001", "differs: stdout", False),
        ("0.088", "", "differs: stdout", False),
    ],
    ids=["identical", "nu-star-moves", "gap-moves", "both-move", "nu-star-empty"],
)
def test_parity_sets_the_csv_nu_star_column_apart(tmp_path, gap_db, nu_star, verdict, ok):
    # only the nu_star column of a CSV table may move; every other cell
    # compares exactly, whatever the bound
    sides = {}
    for side, (gap, nu) in (("base", ("0.088", "0.050000")), ("change", (gap_db, nu_star))):
        (tmp_path / side / "table").mkdir(parents=True)
        (tmp_path / side / "table" / "stdout").write_text(_csv_table(gap, nu))
        sides[side] = tmp_path / side
    lines, all_ok = parity.compare(sides["base"], sides["change"], 1.0)
    assert all_ok is ok
    assert lines[0].startswith("table ") and verdict in lines[0]
    if verdict.startswith("nu_star"):
        assert "max |delta| 0 (-)" in lines[0]


def test_parity_reference_reports_the_largest_move_per_scheme():
    # fixed rows as `parity.solve_rows` returns them at two node counts; a
    # row unreachable at one of them only moves by inf in its status
    def row(gap_db, nu_star):
        return {"nu_star": nu_star, "gamma_A_db": 11.0, "gap_db": gap_db}

    default = {
        ("cqam", 7, "2/3"): row(0.1, 0.115),
        ("cqam", 7, "9/10"): row(0.3, 0.2),
        ("time-sharing shaped", 13, "2/3"): row(0.5, 0.05),
        ("time-sharing shaped", 13, "19/20"): None,
        ("shaped-ask-squared", 5, "2/3"): None,
    }
    reference = {
        ("cqam", 7, "2/3"): row(0.1 - 3e-8, 0.115 + 1e-6),
        ("cqam", 7, "9/10"): row(0.3 + 2e-8, 0.2),
        ("time-sharing shaped", 13, "2/3"): row(0.5, 0.05),
        ("time-sharing shaped", 13, "19/20"): row(0.9, 0.01),
        ("shaped-ask-squared", 5, "2/3"): None,
    }
    assert parity.reference_lines(default, reference) == [
        f"{'cqam':28s} max |delta| 3e-08 dB (p=7 Rc=2/3 gap_db); "
        "nu_star max |delta| 1e-06 (p=7 Rc=2/3 nu_star)",
        f"{'time-sharing shaped':28s} max |delta| inf dB (p=13 Rc=19/20 status); "
        "nu_star max |delta| 0 (-)",
        f"{'shaped-ask-squared':28s} max |delta| 0 dB (-); nu_star max |delta| 0 (-)",
    ]


def test_parity_reference_takes_no_revisions(capsys):
    for argv in (["--reference", "HEAD"], ["HEAD"], []):
        with pytest.raises(SystemExit) as exc:
            parity.main(argv)
        assert exc.value.code == 2
    assert "give BASE and CHANGE, or --reference alone" in capsys.readouterr().err
