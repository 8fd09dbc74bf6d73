"""primeshape benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cqam-p7, ts-table, pas-p13, matcher-p13-n1024 (see
workloads.py for what each runs and why).  Every workload runs in a
fresh single-threaded process (BLAS/OpenMP pools pinned to one thread).

--trace 0 measures the end-to-end metrics: the workload's passes repeat
while another fits in --seconds, and the result holds the median pass
time (wall_s), the median of three fresh-process imports of
primeshape.cli (setup_s) and the workload process's peak resident
memory (peak_rss_mb).  Both times are taken at the reference host speed
(hostspeed.py): the host's own slowdown, sampled during each timed
span, is divided out.  The raw times are printed above the result.

--trace 1 runs one untraced pass and then one pass with every layer
function wrapped (layertrace.py), and reports the per-layer metrics;
trace.overhead_frac compares the two pass times, both at the reference
host speed.

Every output is checked (checks.py).  Lines before the last describe
the run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import layertrace
from workloads import PAS_FRAMES, MATCHER_BLOCKS, WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: Fresh processes that only import primeshape.cli; with the workload
#: process they give three set-up samples.
SETUP_PROBES = 2

#: One workload process may take this long before it is killed.
WORKER_TIMEOUT_S = 160

#: Single-threaded numerics: each workload process uses one core.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Counts the traced run reproduced at the commit that defined this
#: benchmark.  They are counts, not timings; a change that alters them
#: (a faster solver, say) reports the new value next to the old one.
SEED_COUNTS = {
    "cqam-p7": {
        "awgn_mi.complex.p7.n48.calls": 796,
        "awgn_mi.complex.p7.n96.calls": 73,
        "awgn_mi.real.p7.n96.calls": 792,
    },
    "ts-table": {"optimizer.solves": 276},
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode,
        ],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
        text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _rounded(values) -> list[float]:
    return [round(v, 4) for v in values]


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": THREAD_ENV,
        "git_revision": git_revision(),
    }


def check_outputs(workload: str, outputs: list[dict]) -> list[list[str]]:
    import checks

    refs = checks.load_references(ROOT)
    results = []
    for i, output in enumerate(outputs):
        results += checks.check_pass(workload, output, refs, outputs[0] if i else None)
    return results


def items_note(workload: str, wall_s: float) -> str:
    if workload == "pas-p13":
        return f"frames_per_s = {PAS_FRAMES / wall_s:.6g} 1/s"
    if workload == "matcher-p13-n1024":
        return f"roundtrips_per_s = {MATCHER_BLOCKS / wall_s:.6g} 1/s"
    return "row_s_max: see optimizer.row_s_max in the traced run (--trace 1)"


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    setups = [run_worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    main = run_worker(workload, seed, "plain", seconds)
    setups.append(main)
    walls = [p["wall_norm_s"] for p in main["passes"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    print(f"passes: {len(walls)}; wall_s each (reference speed): {_rounded(walls)}")
    print(f"raw wall_s each: {_rounded(p['wall_s'] for p in main['passes'])}; "
          f"host slowdown: {_rounded(p['slowdown'] for p in main['passes'])}")
    print(f"setup_s samples (reference speed): {_rounded(s['setup_norm_s'] for s in setups)}; "
          f"raw: {_rounded(s['setup_s'] for s in setups)}")
    print(items_note(workload, metrics["wall_s"]))
    outputs = [p["output"] for p in main["passes"]]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, outputs, main["versions"]


def per_layer(workload: str, seed: int) -> tuple[dict, list, dict]:
    plain = run_worker(workload, seed, "plain")
    traced = run_worker(workload, seed, "traced")
    trace = traced["trace"]
    metrics = dict(trace["metrics"])
    untraced_s, traced_s = plain["passes"][0]["wall_norm_s"], traced["passes"][0]["wall_norm_s"]
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    print(f"pass wall_s (reference speed): untraced {untraced_s:.4f}, traced {traced_s:.4f}")
    print(f"wrapped layers: {sorted(set(layertrace.LAYERS) - set(trace['missing_layers']))}")
    missing = [name for name in layertrace.PER_LAYER_UNITS if name not in metrics]
    if missing:
        print(f"missing (layer function gone): {missing}")
    print(f"MI calls by kernel: {trace['mi_calls']}")
    for name, seed_count in SEED_COUNTS.get(workload, {}).items():
        now = metrics.get(name)
        verdict = "same" if now == seed_count else "differs"
        print(f"count {name} = {now} (benchmark-defining commit: {seed_count}, {verdict})")
    outputs = [plain["passes"][0]["output"], traced["passes"][0]["output"]]
    units = layertrace.PER_LAYER_UNITS
    return {k: (v, units[k]) for k, v in metrics.items()}, outputs, traced["versions"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    needed = [ROOT / "src" / "primeshape" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    absent = [str(path) for path in needed if not path.is_file()]
    if absent:
        print(f"error: run from the repository root; missing {absent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.trace:
        metrics, outputs, versions = per_layer(args.workload, args.seed)
    else:
        metrics, outputs, versions = end_to_end(args.workload, args.seed, args.seconds)
    results = check_outputs(args.workload, outputs)
    failed = [f for f in results if f]
    print(f"environment: {json.dumps(environment(versions))}")
    if args.workload in ("cqam-p7", "ts-table"):
        print("inputs: fixed (the table references are frozen); the seed is unused")
    else:
        print(f"inputs: seed {args.seed}")
    print(f"checks: {len(results)} outputs, {len(failed)} failed, "
          f"fail_frac = {len(failed) / len(results):.6g}")
    for failures in failed[:10]:
        print(f"  FAILED: {'; '.join(failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
