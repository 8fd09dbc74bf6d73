"""Output checks.  Each checked output (a table row, a pas report, a
matcher round trip) passes or fails; the failures give ``fail_frac``.

Table references are imported from ``tests/test_acceptance.py`` so they
cannot drift from the acceptance gate; the tolerances below are the
ones that gate applies to them.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Frozen tolerances of tests/test_acceptance.py, in dB.
TS_TOL_DB = 0.05  # time-sharing gap and effective gain
CQAM_GAP_TOL_DB = 0.03
CQAM_POTENTIAL_TOL_DB = 0.05

#: Standard deviations allowed between an empirical PMF and its law.
PMF_SIGMAS = 6.0


def load_references(root: Path):
    """Import the acceptance test module for its frozen reference tables."""
    path = root / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("perfbench_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_pass(workload: str, output: dict, refs, first: dict | None = None) -> list[list[str]]:
    """Failures of each checked output of one pass (empty list = passed).

    `first` is the output of an earlier pass with the same seed; a pas
    report must equal it once provenance is set aside.
    """
    if workload == "matcher-p13-n1024":
        return _check_matcher(output)
    if output["exit_code"] != 0:
        return [[f"command exited with {output['exit_code']}"]]
    doc = json.loads(output["stdout"])
    if workload == "cqam-p7":
        return _check_cqam(doc["rows"], refs)
    if workload == "ts-table":
        return _check_time_sharing(doc["rows"], refs)
    if workload == "pas-p13":
        reference = json.loads(first["stdout"]) if first else None
        return [_check_pas(doc, reference)]
    raise ValueError(f"unknown workload {workload!r}")


def _near(failures: list[str], label: str, value: float, ref: float, tol: float) -> None:
    if not abs(value - ref) <= tol:
        failures.append(f"{label} {value:.4f} vs reference {ref} (tolerance {tol})")


def _row_failures(row: dict) -> list[str]:
    failures = []
    if row.get("status") != "ok":
        failures.append(f"status {row.get('status')!r}")
        return failures
    exact = float(Fraction(row["Rc"])) * math.log2(row["p"])
    if row["target_rate"] != exact:
        failures.append(f"target rate {row['target_rate']!r} is not R_c log2 p = {exact!r}")
    return failures


def _check_cqam(rows: list[dict], refs) -> list[list[str]]:
    schemes = [row.get("scheme") for row in rows]
    if schemes != ["shaped-ask-squared", "cqam"] or any(r["p"] != 7 for r in rows):
        return [[f"expected the p=7 shaped-ASK^2 and CQAM rows, got {schemes}"]]
    results = []
    for row in rows:
        failures = _row_failures(row)
        if not failures and row["scheme"] == "cqam":
            _, pot_ref, gap_ref = refs.REFERENCE_CQAM[7]
            _near(failures, "cqam gap", row["gap_db"], gap_ref, CQAM_GAP_TOL_DB)
            _near(failures, "cqam potential gain", row["potential_gain_db"], pot_ref,
                  CQAM_POTENTIAL_TOL_DB)
        elif not failures:
            # the uniform 7-ASK baseline is the time-sharing table's
            pot_ref = refs.REFERENCE_TIME_SHARING[(7, Fraction(2, 3))][0]
            _near(failures, "shaped-ASK^2 potential gain", row["potential_gain_db"], pot_ref,
                  TS_TOL_DB)
        results.append(failures)
    return results


def _check_time_sharing(rows: list[dict], refs) -> list[list[str]]:
    keys = [(row["p"], Fraction(row["Rc"])) for row in rows]
    if sorted(keys) != sorted(refs.REFERENCE_TIME_SHARING):
        return [[f"rows {keys} are not the 12 reference rows"]]
    results = []
    for row, key in zip(rows, keys):
        failures = _row_failures(row)
        if row.get("convention") != "shaped":
            failures.append(f"convention {row.get('convention')!r}")
        if not failures:
            _, gap_ref, eff_ref = refs.REFERENCE_TIME_SHARING[key]
            _near(failures, f"p={key[0]} Rc={key[1]} gap", row["gap_db"], gap_ref, TS_TOL_DB)
            _near(failures, f"p={key[0]} Rc={key[1]} effective gain",
                  row["effective_gain_db"], eff_ref, TS_TOL_DB)
        results.append(failures)
    return results


def expected_parity_pmf(p: int, parity: np.ndarray, half: int, shell_law: np.ndarray) -> np.ndarray:
    """Law of the pooled parity symbols when the first `half` information
    symbols follow `shell_law` and the rest are uniform, all independent."""
    laws = []
    for column in parity.T:
        law = np.zeros(p)
        law[0] = 1.0
        for i, coef in enumerate(column):
            term = shell_law if i < half else np.full(p, 1.0 / p)
            scaled = np.zeros(p)
            np.add.at(scaled, (int(coef) * np.arange(p)) % p, term)
            law = np.array([law @ scaled[(t - np.arange(p)) % p] for t in range(p)])
        laws.append(law)
    return np.mean(laws, axis=0)


def _check_pas(doc: dict, reference: dict | None) -> list[str]:
    from primeshape.field import Prime
    from primeshape.pas import CodeSpec

    failures = []
    code, matcher = doc["code"], doc["matcher"]
    frames, n, k = doc["num_frames"], code["n"], code["k"]
    if doc["num_points"] != frames * n // 2:
        failures.append(f"num_points {doc['num_points']} != frames*n/2 = {frames * n // 2}")
    if doc["num_parity_symbols"] != frames * (n - k):
        failures.append(f"num_parity_symbols {doc['num_parity_symbols']} != {frames * (n - k)}")
    counts = np.array(matcher["counts"])
    if counts.sum() != matcher["block_length"]:
        failures.append(f"matcher counts sum to {counts.sum()}, not N = {matcher['block_length']}")

    # Whole matcher blocks have the planned composition exactly; only the
    # last, partly used block can move the shell PMF.
    shell_bound = matcher["block_length"] / doc["num_points"]
    if not doc["shells"]["max_abs_dev"] <= shell_bound:
        failures.append(f"shell deviation {doc['shells']['max_abs_dev']:.2e} > {shell_bound:.2e}")

    p = len(counts)
    spec = CodeSpec.random_dense(Prime(p), n, k, seed=code["seed"])
    expected = expected_parity_pmf(p, spec.parity, n // 2, counts / counts.sum())
    observed = np.array(doc["parity"]["pmf"])
    # shells within one matcher block are not independent; the O(1/N)
    # error of the independent law is far below PMF_SIGMAS sigma
    sigma = math.sqrt(expected.max() * (1.0 - expected.max()) / doc["num_parity_symbols"])
    dev = float(np.abs(observed - expected).max())
    if not dev <= PMF_SIGMAS * sigma:
        failures.append(f"parity PMF off its law by {dev:.4f} > {PMF_SIGMAS:g} sigma")

    if reference is not None:
        ours = {key: v for key, v in doc.items() if key != "provenance"}
        theirs = {key: v for key, v in reference.items() if key != "provenance"}
        if ours != theirs:
            failures.append("report differs from an earlier run with the same seed")
    return failures


def _check_matcher(output: dict) -> list[list[str]]:
    import workloads

    planned = list(workloads.matcher_plan().counts)
    if output["counts"] != planned:
        return [[f"plan counts {output['counts']} != {planned}"]]
    results = []
    for trip in output["trips"]:
        failures = []
        composition = np.bincount(trip["block"], minlength=len(planned)).tolist()
        if composition != planned:
            failures.append(f"block composition {composition} != {planned}")
        if trip["decoded"] != trip["input"]:
            failures.append("decode(encode(u)) != u")
        results.append(failures)
    return results
