"""One workload process, started by run.py.

It times the import of ``primeshape.cli`` (set-up), runs the workload's
passes, and prints one JSON line: set-up time, each pass's wall time and
output, peak resident memory and, when traced, the per-layer metrics.
Every timed span (the import, each pass) runs under a
``hostspeed.Sampler``; next to its raw time the worker reports it at
the reference host speed (``*_norm_s``).

Modes:
  setup   import only;
  plain   untraced passes, as many as fit in --seconds (at least one);
  traced  one pass with every layer function wrapped.

Nothing but the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings

import hostspeed


def _timed_pass(workload: str, seed: int, index: int) -> dict:
    import workloads

    with hostspeed.Sampler(workloads.PROBES[workload]) as sampler:
        t0 = time.perf_counter()
        output = workloads.run_pass(workload, seed, index)
        wall_s = time.perf_counter() - t0
    return {
        "wall_s": wall_s,
        "wall_norm_s": sampler.normalized(wall_s),
        "slowdown": sampler.slowdown(),
        "output": output,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    args = parser.parse_args()

    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        import primeshape.cli  # noqa: F401  (the measured set-up)

        setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s, "setup_norm_s": sampler.normalized(setup_s)}
    if args.mode != "setup":
        import numpy
        import scipy

        import layertrace
        import workloads

        passes = []
        trace = None
        if args.mode == "plain":
            start = time.perf_counter()
            while not passes or (
                time.perf_counter() - start + max(p["wall_s"] for p in passes) <= args.seconds
            ):
                passes.append(_timed_pass(args.workload, args.seed, len(passes)))
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with layertrace.Tracer() as tracer:
                    passes.append(_timed_pass(args.workload, args.seed, 0))
            wall_s = passes[0]["wall_s"]
            output = passes[0]["output"]
            widenings = sum("widening" in str(w.message) for w in caught)
            trace = {
                "metrics": layertrace.layer_metrics(
                    tracer.spans,
                    tracer.wrapped,
                    wall_s,
                    widenings,
                    len(output.get("stdout", "").encode()),
                ),
                "missing_layers": tracer.missing,
                "mi_calls": layertrace.mi_calls_by_key(tracer.spans),
            }
        left_wrapped = layertrace.wrapped_names()
        if left_wrapped:
            raise RuntimeError(f"functions left wrapped after the passes: {left_wrapped}")
        result.update(
            passes=passes,
            trace=trace,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
