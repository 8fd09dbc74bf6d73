"""The four workloads: what one pass runs.

Each pass function returns a JSON-serialisable output that
``checks.py`` verifies.  Library functions are looked up on their
module at call time, so a pass run under the tracer calls the wrappers.

Why these workloads:

* ``cqam-p7`` (`table --mode cqam -p 7 --rc 2/3`): the complex MI kernel
  does almost all the work, so kernel and solver changes show here.
* ``ts-table`` (`table --mode time-sharing --convention shaped`): the 12
  reference rows; the real MI kernel, the SNR solve and the nu search,
  with no complex kernel and no matcher.
* ``pas-p13`` (`pas -p 13 --frames 20000 --seed <seed>`): the matcher at
  N = 64 and the frame mapper; it never calls MI, so MI and optimizer
  changes must show no change here.
* ``matcher-p13-n1024``: encode/decode round trips at N = 1024 with the
  13^2 stretched shell law at nu = 0.05 (the law of ``pas-p13``); long
  blocks, where big-rational cost grows, and the decode path, which no
  command uses.

The table workloads have fixed inputs, because their references are
frozen; the seed drives only ``pas --seed`` and the matcher's inputs.
"""

from __future__ import annotations

import contextlib
import io

#: Round trips per matcher pass.
MATCHER_BLOCKS = 16
MATCHER_BLOCK_LENGTH = 1024
MATCHER_P = 13
MATCHER_NU = 0.05

PAS_FRAMES = 20_000

#: Workload -> primeshape command line; the matcher runs library calls.
COMMANDS = {
    "cqam-p7": ["table", "--mode", "cqam", "-p", "7", "--rc", "2/3", "--format", "json"],
    "ts-table": ["table", "--mode", "time-sharing", "--convention", "shaped", "--format", "json"],
    "pas-p13": ["pas", "-p", "13", "--frames", str(PAS_FRAMES), "--seed", "{seed}"],
}

WORKLOADS = (*COMMANDS, "matcher-p13-n1024")

#: Host-speed probes (hostspeed.py) sampled during a workload's passes:
#: those whose instruction mix is closest to the workload's hot path.
#: The tables mix numpy kernels with Python solver code; the matcher
#: and the pas chain are pure-Python big-integer arithmetic.
PROBES = {
    "cqam-p7": ("python", "numpy"),
    "ts-table": ("python", "numpy"),
    "pas-p13": ("python",),
    "matcher-p13-n1024": ("python",),
}


def run_pass(workload: str, seed: int, pass_index: int) -> dict:
    if workload == "matcher-p13-n1024":
        return _matcher_pass(seed, pass_index)
    argv = [arg.format(seed=seed) for arg in COMMANDS[workload]]
    return _cli_pass(argv)


def _cli_pass(argv: list[str]) -> dict:
    from primeshape import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def matcher_plan():
    """The N = 1024 composition plan of the 13^2 stretched shell prior."""
    from primeshape import cli, constellations, shaping
    from primeshape.field import Prime

    field = Prime(MATCHER_P)
    geom = constellations.build_cqam_stretched(
        field, constellations.CqamParams(stretch=cli.REFERENCE_STRETCH[MATCHER_P])
    )
    prior = shaping.MaxwellBoltzmann.from_amplitudes(MATCHER_NU, geom.shells.radii)
    return shaping.CompositionPlan.from_distribution(
        field, prior.probs, MATCHER_BLOCK_LENGTH
    )


def _matcher_pass(seed: int, pass_index: int) -> dict:
    import numpy as np
    from primeshape import shaping

    plan = matcher_plan()
    rng = np.random.default_rng([seed, pass_index])
    d = plan.input_length()
    trips = []
    for _ in range(MATCHER_BLOCKS):
        u = rng.integers(0, MATCHER_P, size=d).tolist()
        block = shaping.ccdm_encode(plan, u)
        decoded = shaping.ccdm_decode(plan, block)
        trips.append({"input": u, "block": block, "decoded": decoded})
    return {"counts": list(plan.counts), "trips": trips}
