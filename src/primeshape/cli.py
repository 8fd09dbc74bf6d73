"""Command-line front end.

Subcommands:

* sum-dist    exact PMF of a mod-p sum of independent symbols
* construct   build a CQAM constellation and export its points
* table       gap/gain tables for the supported shaping schemes
* pas         run a shaping chain and report empirical statistics

Every file the tool writes starts with a provenance header (tool
version, the full parameter set, and the numeric tolerances in force);
`_csv` and `_json` write every output.
Exit codes: 0 success, 2 invalid input or exhausted memory, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .constellations import (
    CqamParams,
    Stretch,
    build_cqam,
    figure_of_merit,
    shell_radii,
)
from .field import Prime
from .optimizer import (
    LOG_GAMMA_TOL,
    NU_REL_TOL,
    RATE_RESIDUAL_TOL,
    UnreachableRateError,
    optimize_cqam,
    optimize_shaped_ask,
    optimize_time_sharing,
)
from .pas import (
    DEFAULT_DM_BLOCK,
    CodeSpec,
    empirical_distributions,
    generate_frames,
    split_frames,
)
from .shaping import MaxwellBoltzmann
from .sumdist import (
    NORMALIZATION_TOL,
    SymbolDistribution,
    sum_distribution_dft,
    uniformity_gap,
)

#: Stretch parameters of the reference constructions used by default in
#: `table --mode cqam` and `pas` (chosen to maximize the shaped gain).
REFERENCE_STRETCH = {7: Stretch(4.8, 0.76), 13: Stretch(6.0, 0.80)}


def _provenance(args: argparse.Namespace) -> dict:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    return {
        "tool": f"primeshape {__version__}",
        "command": args.command,
        "parameters": json.dumps(params, default=str, sort_keys=True),
        "tolerances": json.dumps(
            {
                "pmf_normalization": NORMALIZATION_TOL,
                "snr_solve_log_gamma": LOG_GAMMA_TOL,
                "snr_solve_rate_residual_bits": RATE_RESIDUAL_TOL,
                "nu_search_relative_width": NU_REL_TOL,
            }
        ),
    }


def _csv(
    args: argparse.Namespace,
    columns: Sequence[str],
    rows: Iterable[Iterable[object]],
    **extra: object,
) -> str:
    """CSV text: the provenance and `extra` as `# key: value` lines, the
    header, then one line per row with each value's str() as its cell."""
    items = {**_provenance(args), **extra}
    lines = [f"# {key}: {value}" for key, value in items.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _json(args: argparse.Namespace, doc: dict) -> str:
    """JSON text of `doc` after its provenance, indented by 2."""
    return json.dumps({"provenance": _provenance(args), **doc}, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if _destination(path) == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _destination(path: str | None) -> str:
    """Where `_write_output` writes for path: "-" for stdout, else the
    path made absolute, with its symbolic links resolved."""
    return "-" if path is None or path == "-" else os.path.realpath(path)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse coding rate {text!r}: {exc}") from exc


def _resolve_stretch(
    args: argparse.Namespace, default: Stretch | None
) -> Stretch | None:
    """The --stretch given, none under --no-stretch, else `default`."""
    if args.stretch:
        return Stretch(*args.stretch)
    return None if args.no_stretch else default


# ---------------------------------------------------------------------------
# sum-dist
# ---------------------------------------------------------------------------


def _parse_pmf(field: Prime, values: list[float]) -> SymbolDistribution:
    probs = np.asarray(values, dtype=float)
    if probs.shape != (field.p,):
        raise ValueError(
            f"factor has {probs.shape[0]} entries, expected {field.p}"
        )
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"factor sums to {float(total)!r}, expected 1 within 1e-9")
    return SymbolDistribution(field, probs / total)


def cmd_sum_dist(args: argparse.Namespace) -> int:
    field = Prime(args.prime)
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    factors = [
        _parse_pmf(field, [float(v) for v in spec.split(",")]) for spec in args.factor or []
    ]
    num_factors = len(factors) * args.repeat + args.uniform_factor
    if args.uniform_factor:
        # the sum is uniform with one uniform summand, and with `repeat` of them
        factors.append(SymbolDistribution.uniform(field))

    result = sum_distribution_dft(factors, args.repeat)
    gap = uniformity_gap(result)
    if args.format == "json":
        doc = {
            "p": field.p,
            "num_factors": num_factors,
            "pmf": result.probs.tolist(),
            "uniformity_gap": gap,
        }
        text = _json(args, doc)
    else:
        rows = enumerate(result.probs.tolist())
        text = _csv(
            args, ("symbol", "probability"), rows,
            num_factors=num_factors, uniformity_gap=gap,
        )
    _write_output(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    field = Prime(args.prime)
    stretch = Stretch(*args.stretch) if args.stretch else None
    c = build_cqam(field, CqamParams(stretch=stretch))
    dmin, merit = figure_of_merit(c)
    rho_out = float(c.shells.radii[-1])

    points = enumerate(zip(c.points.tolist(), c.priors.tolist()))
    rows = ((i, i // field.p, x.real, x.imag, prior) for i, (x, prior) in points)
    text = _csv(
        args, ("index", "shell", "re", "im", "prior"), rows,
        rho_out=rho_out, min_distance=dmin, figure_of_merit=merit,
    )
    _write_output(text, args.output)
    if _destination(args.output) != "-":
        print(
            f"p={field.p}: {c.size} points, rho_out={rho_out:.6f}, "
            f"d_min={dmin:.6f}, figure_of_merit={merit:.6f}"
        )
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


#: Leading table columns, in order; each optional column follows them
#: when any row has it.
TABLE_COLUMNS = (
    "p",
    "Rc",
    "target_rate",
    "potential_gain_db",
    "gap_db",
    "effective_gain_db",
    "nu_star",
    "gamma_A_db",
)
EXTRA_COLUMNS = ("scheme", "convention", "gamma_cap_db", "gamma_unif_db", "status")


def _table_cell(column: str, value: object) -> object:
    """A table value as its CSV cell: dB to 3 decimals, nu* and the target
    rate to 6, a missing value empty.  JSON keeps full precision."""
    if value is None:
        return ""
    if column.endswith("_db"):
        return f"{value:.3f}"
    if column in ("nu_star", "target_rate"):
        return f"{value:.6f}"
    return value


def cmd_table(args: argparse.Namespace) -> int:
    if args.mode == "time-sharing":
        if args.stretch or args.no_stretch:
            raise ValueError("--stretch and --no-stretch apply only to --mode cqam")
        del args.no_stretch  # refused here, so not a parameter to record
    elif args.convention:
        raise ValueError("--convention applies only to --mode time-sharing")
    primes = args.prime or [7, 13]
    if args.rc:
        rates = [_parse_fraction(r) for r in args.rc]
    elif args.mode == "cqam":
        rates = [Fraction(2, 3)]
    else:
        rates = [
            Fraction(2, 3), Fraction(3, 4), Fraction(4, 5),
            Fraction(17, 20), Fraction(9, 10), Fraction(19, 20),
        ]

    rows = []

    def solve(scheme: str, optimize, p: int, rc: Fraction, **kwargs) -> None:
        """Append optimize's solution at (p, rc), or an unreachable-rate row."""
        try:
            row = asdict(optimize(Prime(p), rc, **kwargs))
        except UnreachableRateError as exc:
            label = {"scheme": scheme, "p": p, "Rc": str(rc)}
            if "convention" in kwargs:
                label["convention"] = kwargs["convention"]
            rows.append({**label, "status": f"unreachable: {exc}"})
        else:
            row["Rc"] = str(row.pop("coding_rate"))
            if row["convention"] is None:  # the CQAM schemes have none
                del row["convention"]
            rows.append({**row, "status": "ok"})

    if args.mode == "time-sharing":
        args.convention = args.convention or "time-averaged"  # as the provenance records
        conventions = (
            ["shaped", "time-averaged"] if args.convention == "both" else [args.convention]
        )
        for conv in conventions:
            for p in primes:
                for rc in rates:
                    solve("time-sharing", optimize_time_sharing, p, rc, convention=conv)
    else:
        for p in primes:
            stretch = _resolve_stretch(args, REFERENCE_STRETCH.get(p))
            params = CqamParams(stretch=stretch)
            for rc in rates:
                solve("shaped-ask-squared", optimize_shaped_ask, p, rc)
                solve("cqam", optimize_cqam, p, rc, params=params)

    extra = [c for c in EXTRA_COLUMNS if any(c in row for row in rows)]
    columns = [*TABLE_COLUMNS, *extra]
    if args.format == "json":
        text = _json(args, {"columns": columns, "rows": rows})
    else:
        cells = ([_table_cell(c, row.get(c)) for c in columns] for row in rows)
        text = _csv(args, columns, cells)
    _write_output(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# pas
# ---------------------------------------------------------------------------


def cmd_pas(args: argparse.Namespace) -> int:
    # one stream or file cannot hold the frames CSV and the report JSON apart
    if args.dump_frames and _destination(args.dump_frames) == _destination(args.output):
        raise ValueError("--dump-frames and -o/--output name the same destination")
    field = Prime(args.prime)
    rc = _parse_fraction(args.rc)
    if args.block_n is not None:
        n = args.block_n
        if n % 2 or (n * rc.numerator) % rc.denominator:
            raise ValueError(
                f"block length {n} incompatible with coding rate {rc}"
            )
    else:
        n = rc.denominator if rc.denominator % 2 == 0 else 2 * rc.denominator
    k = n * rc.numerator // rc.denominator
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    code = CodeSpec.random_dense(field, n, k, seed=args.seed)

    stretch = _resolve_stretch(args, REFERENCE_STRETCH.get(field.p))
    shell_prior = MaxwellBoltzmann.from_amplitudes(args.nu, shell_radii(field, stretch))
    codewords, plan = generate_frames(
        code, shell_prior, args.frames, seed=args.seed, dm_block=args.dm_block
    )
    report = empirical_distributions(codewords, code, plan)
    report["code"] = {"n": n, "k": k, "coding_rate": str(rc), "seed": args.seed}
    report["matcher"] = {
        "block_length": plan.block_length,
        "counts": list(plan.counts),
        "input_length": plan.input_length(),
        "rate_bits_per_symbol": plan.rate_bits(),
    }
    # frames first: an unwritable dump path then leaves no report behind
    if args.dump_frames:
        shells, _, phases, points = split_frames(code, codewords)
        frames = zip(shells.tolist(), phases.tolist(), points.tolist())
        rows = (
            (i, *(" ".join(map(str, col)) for col in frame))
            for i, frame in enumerate(frames)
        )
        columns = ("frame", "shell_symbols", "phase_symbols", "point_indices")
        _write_output(_csv(args, columns, rows), args.dump_frames)
    _write_output(_json(args, report), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeshape",
        description="Shaping toolkit for prime-field constellations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sd = sub.add_parser("sum-dist", help="PMF of a mod-p sum of independent symbols")
    sd.add_argument("-p", "--prime", type=int, required=True)
    sd.add_argument(
        "--factor",
        action="append",
        metavar="P0,P1,...",
        help="one factor PMF, comma separated (repeatable)",
    )
    sd.add_argument(
        "--repeat", type=int, default=1, help="sum this many copies of the given factors"
    )
    sd.add_argument(
        "--uniform-factor",
        action="store_true",
        help="append one uniform factor (makes the sum exactly uniform)",
    )
    sd.add_argument("--format", choices=["csv", "json"], default="csv")
    sd.add_argument("-o", "--output", help="output path (default stdout)")
    sd.set_defaults(func=cmd_sum_dist)

    ct = sub.add_parser("construct", help="build a p^2-point CQAM constellation")
    ct.add_argument("-p", "--prime", type=int, required=True)
    ct.add_argument("-o", "--output", help="points CSV path (default stdout)")
    ct.set_defaults(func=cmd_construct)

    tb = sub.add_parser("table", help="gap/gain table for shaping schemes")
    tb.add_argument(
        "--mode", choices=["time-sharing", "cqam"], default="time-sharing"
    )
    tb.add_argument(
        "-p", "--prime", type=int, action="append", help="field size (repeatable)"
    )
    tb.add_argument(
        "--rc", action="append", metavar="A/B", help="coding rate (repeatable)"
    )
    tb.add_argument(
        "--convention",
        choices=["shaped", "time-averaged", "both"],
        help="energy normalization of the time-sharing rate terms, --mode "
        "time-sharing only (default time-averaged)",
    )
    tb.add_argument("--format", choices=["csv", "json"], default="csv")
    tb.add_argument("-o", "--output", help="output path (default stdout)")
    tb.set_defaults(func=cmd_table)

    ps = sub.add_parser("pas", help="run a shaping chain, report statistics")
    ps.add_argument("-p", "--prime", type=int, required=True)
    ps.add_argument("--rc", default="2/3", help="coding rate k/n (>= 1/2)")
    ps.add_argument(
        "--block-n", type=int, help="code length n (default: smallest even length)"
    )
    ps.add_argument("--nu", type=float, default=0.05, help="shell shaping parameter")
    ps.add_argument(
        "--dm-block", type=int, default=DEFAULT_DM_BLOCK, help="matcher block length"
    )
    ps.add_argument("--frames", type=int, default=20_000)
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument("-o", "--output", help="report JSON path (default stdout)")
    ps.add_argument(
        "--dump-frames", help="also dump per-frame symbols as CSV ('-' for stdout)"
    )
    ps.set_defaults(func=cmd_pas)

    # table and pas default to REFERENCE_STRETCH, so only they take --no-stretch
    for sp in (ct, tb, ps):
        stretch = sp.add_mutually_exclusive_group()
        stretch.add_argument(
            "--stretch",
            nargs=2,
            type=float,
            metavar=("RHO_MAX", "BETA"),
            help="stretch shell radii to rho_max with exponent beta",
        )
        if sp is not ct:
            stretch.add_argument(
                "--no-stretch", action="store_true", help="force unstretched CQAM"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
