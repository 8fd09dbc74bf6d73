"""Compare the outputs of two git revisions of primeshape, command by command.

Usage, from the repository root:

    python3 tools/parity.py BASE CHANGE [--bound-db X]

BASE and CHANGE are any git revisions.  Each is checked out with
``git worktree`` under a temporary directory, and every command of
COMMANDS runs once per revision, in its own process and its own empty
working directory, with relative output paths, so that the provenance
records the same parameters on both sides.  The worktrees are removed
afterwards.

For each command the two sides' files (standard output, each output
file and the exit status) are compared after dropping the provenance
``tool`` line, which names the package version.  A command whose files
are byte-identical reads ``identical``.  Otherwise each file that holds
a JSON object is compared number by number, and the largest |delta| is reported with its
field, and the largest nu_star |delta| apart.  A CSV table is compared
cell by cell: its nu_star column counts toward that nu_star |delta|, and
every other cell must match exactly.  Exits 1 when an exit status, a
file that is neither, the layout of a JSON file or a CSV cell other than
nu_star differs, or when a JSON number other than nu_star moves by more
than ``--bound-db`` (default 1e-9, in the units of the field: dB for
every table column that moves).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Command name -> primeshape arguments; output paths are relative.
COMMANDS = {
    "table-ts-shaped": ["table", "--convention", "shaped", "--format", "json"],
    "table-ts-time-averaged": ["table", "--convention", "time-averaged", "--format", "json"],
    "table-cqam-json": [
        "table", "--mode", "cqam", "-p", "7", "-p", "13", "--rc", "2/3", "--format", "json",
    ],
    "table-cqam-csv": ["table", "--mode", "cqam", "-p", "7", "-p", "13", "--rc", "2/3"],
    "pas-p7": ["pas", "-p", "7", "-o", "report.json", "--dump-frames", "frames.csv"],
    "pas-p13": ["pas", "-p", "13", "-o", "report.json", "--dump-frames", "frames.csv"],
    # unstretched, so its shells are packed; and a stretch of its own
    "pas-p11": ["pas", "-p", "11", "-o", "report.json", "--dump-frames", "frames.csv"],
    "pas-p7-stretch": [
        "pas", "-p", "7", "--stretch", "3.0", "0.9", "-o", "report.json",
        "--dump-frames", "frames.csv",
    ],
    "sum-dist": [
        "sum-dist", "-p", "7", "--factor", "0.4,0.2,0.1,0.05,0.05,0.1,0.1",
        "--repeat", "3", "--format", "json",
    ],
    "construct": ["construct", "-p", "13", "--stretch", "6.0", "0.8", "-o", "points.csv"],
    # unstretched, so the packed shells themselves are diffed
    "construct-p11": ["construct", "-p", "11", "-o", "points.csv"],
}

#: The provenance line naming the tool version, in CSV and in JSON output.
_TOOL_LINE = re.compile(rb'^(# tool: |\s*"tool": ).*\n', re.MULTILINE)


def run_commands(src: Path, out: Path) -> None:
    """Run every command on the package under `src`, each in out/<name>."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, argv in COMMANDS.items():
        cwd = out / name
        cwd.mkdir(parents=True)
        with open(cwd / "stdout", "wb") as fh:
            done = subprocess.run(
                [sys.executable, "-m", "primeshape.cli", *argv],
                cwd=cwd, env=env, stdout=fh, stderr=subprocess.DEVNULL,
            )
        (cwd / "exit_status").write_text(f"{done.returncode}\n")


def _leaves(doc: object, path: str = ""):
    """(path, value) of every scalar in a parsed JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_deltas(a: bytes, b: bytes) -> list[tuple[float, str]] | None:
    """(|delta|, path) of each number that moves between two JSON objects;
    None when either text is not one, or their layouts or other values
    differ."""
    try:
        docs = [json.loads(x) for x in (a, b)]
    except ValueError:
        return None
    left, right = (list(_leaves(doc)) for doc in docs)
    if not all(isinstance(doc, dict) for doc in docs) or (
        [p for p, _ in left] != [p for p, _ in right]
    ):
        return None
    deltas = []
    for (path, x), (_, y) in zip(left, right):
        if x == y or repr(x) == repr(y):  # repr: NaN on both sides
            continue
        if not (_is_number(x) and _is_number(y) and abs(x - y) >= 0.0):
            return None  # a string, or a number against NaN
        deltas.append((abs(x - y), path))
    return deltas


def _csv_deltas(a: bytes, b: bytes) -> list[tuple[float, str]] | None:
    """(|delta|, path) of each nu_star cell that moves between two CSV
    tables, the path named as in the JSON table; None when any other line
    or cell differs, or a moved nu_star cell is not a number on both sides."""
    try:
        left, right = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    except (UnicodeDecodeError, csv.Error):
        return None
    if len(left) != len(right):
        return None
    header, deltas = None, []
    for line, (x, y) in enumerate(zip(left, right)):
        if x == y:
            if "nu_star" in x:
                header = line
            continue
        if header is None or len(x) != len(y):
            return None
        col = left[header].index("nu_star")
        if len(x) <= col or x[:col] + x[col + 1 :] != y[:col] + y[col + 1 :]:
            return None
        try:
            delta = abs(float(x[col]) - float(y[col]))
        except ValueError:
            return None
        deltas.append((delta, f"rows[{line - header - 1}].nu_star"))
    return deltas


def compare_command(base: Path, change: Path, bound: float) -> tuple[str, bool]:
    """One report line for the outputs in two directories, and whether
    they stay within the bound."""
    names = sorted(p.name for p in base.iterdir())
    if names != sorted(p.name for p in change.iterdir()):
        return "differs: the two sides wrote different files", False
    identical, moved, nu_moved = True, (0.0, "-"), (0.0, "-")
    for name in names:
        a, b = (_TOOL_LINE.sub(b"", (d / name).read_bytes()) for d in (base, change))
        if a == b:
            continue
        deltas = _json_deltas(a, b)
        if deltas is None:
            deltas = _csv_deltas(a, b)
        if deltas is None:
            return f"differs: {name}", False
        identical = False
        for delta, path in deltas:
            if path.rsplit(".", 1)[-1] == "nu_star":
                nu_moved = max(nu_moved, (delta, f"{name}:{path}"))
            else:
                moved = max(moved, (delta, f"{name}:{path}"))
    if identical:
        return "identical", True
    line = (
        f"max |delta| {moved[0]:.3g} ({moved[1]}); "
        f"nu_star max |delta| {nu_moved[0]:.3g} ({nu_moved[1]})"
    )
    if moved[0] <= bound:
        return line, True
    return f"{line}; past the bound {bound:g}", False


def compare(base: Path, change: Path, bound: float) -> tuple[list[str], bool]:
    """Report lines for every command directory under base and change,
    and whether all of them stay within the bound."""
    lines, all_ok = [], True
    for cmd in sorted(p.name for p in base.iterdir()):
        line, ok = compare_command(base / cmd, change / cmd, bound)
        lines.append(f"{cmd:24s} {line}")
        all_ok &= ok
    return lines, all_ok


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("change", help="git revision to check")
    parser.add_argument(
        "--bound-db", type=float, default=1e-9,
        help="largest |delta| allowed in a JSON number other than nu_star",
    )
    args = parser.parse_args(argv)
    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="primeshape-parity-") as tmp:
        tmp = Path(tmp)
        try:
            for side, rev in revs.items():
                _git("worktree", "add", "--detach", str(tmp / f"{side}-tree"), rev)
                run_commands(tmp / f"{side}-tree" / "src", tmp / side)
        finally:
            for side in revs:
                if (tmp / f"{side}-tree").exists():
                    _git("worktree", "remove", "--force", str(tmp / f"{side}-tree"))
        lines, ok = compare(tmp / "base", tmp / "change", args.bound_db)
    print(f"base {revs['base'][:12]}, change {revs['change'][:12]}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
