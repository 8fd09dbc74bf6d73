"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from primeshape import cli, optimizer, pas, shaping  # noqa: E402
from primeshape.field import Prime  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bindings() -> dict:
    return {
        (m.__name__, attr): value
        for m in layertrace.primeshape_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END_UNITS, layertrace.PER_LAYER_UNITS):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_declares_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_calls_give_every_layer_metric_and_restore_originals():
    before = _bindings()
    with layertrace.Tracer() as tracer:
        assert optimizer.mi_real_points is not before[("primeshape.awgn_mi", "mi_real_points")]
        assert cli.main(["pas", "-p", "7", "--frames", "60"]) == 0
        optimizer.optimize_time_sharing(Prime(3), Fraction(2, 3), nu=0.1, nodes=16)
        plan = shaping.CompositionPlan(Prime(3), 4, (2, 1, 1))
        shaping.ccdm_decode(plan, shaping.ccdm_encode(plan, [0, 1]))
    assert _bindings() == before
    assert layertrace.wrapped_names() == []
    assert tracer.missing == []

    metrics = layertrace.layer_metrics(tracer.spans, tracer.wrapped, 10.0, 0, 123)
    expected = set(layertrace.PER_LAYER_UNITS) - {"trace.overhead_frac"}
    assert set(metrics) == expected
    assert metrics["optimizer.solves"] == 2
    assert metrics["shaping.ccdm_decode.calls"] == 1
    assert metrics["pas.map_frame.calls"] == 60
    assert metrics["cli.output_bytes"] == 123
    assert layertrace.mi_calls_by_key(tracer.spans)["real.p3.n16"] > 0
    assert metrics["optimizer.mi_evals_per_solve"] > 2


def test_originals_are_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with layertrace.Tracer() as tracer:
            optimizer.snr_for_rate(lambda g: 1.0, -1.0)
    assert _bindings() == before
    assert tracer.spans[0][layertrace.FAILED]


def test_vanished_function_reports_its_layer_missing():
    layers = {
        **layertrace.LAYERS,
        "shaping": ("primeshape.shaping", ("ccdm_encode", "ccdm_renamed")),
        "pas": ("primeshape.no_such_module", ("map_frame",)),
    }
    before = _bindings()
    with layertrace.Tracer(layers) as tracer:
        assert pas.ccdm_encode is before[("primeshape.shaping", "ccdm_encode")]
    assert sorted(tracer.missing) == ["pas", "shaping"]
    metrics = layertrace.layer_metrics(tracer.spans, tracer.wrapped, 1.0, 0, 0)
    assert not any(name.startswith(("shaping.", "pas.")) for name in metrics)
    assert "awgn_mi.busy_s" in metrics
    assert _bindings() == before


def test_host_speed_sampler_samples_every_probe_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(("python", "numpy")) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        span_s = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(len(s) >= hostspeed.MIN_SAMPLES for s in sampler.samples.values())
    assert 0.0 < sampler.in_span_s < span_s
    assert 0.0 < sampler.normalized(span_s) < span_s / sampler.slowdown()
    assert set(workloads.PROBES) == set(run.WORKLOADS)
    assert all(set(probes) <= set(hostspeed.PROBES) for probes in workloads.PROBES.values())


def _ts_output(shift_db: float = 0.0) -> dict:
    refs = checks.load_references(ROOT)
    rows = []
    for (p, rc), (pot, gap, eff) in refs.REFERENCE_TIME_SHARING.items():
        rows.append({
            "p": p, "Rc": str(rc), "target_rate": float(rc) * math.log2(p),
            "potential_gain_db": pot, "gap_db": gap + shift_db, "effective_gain_db": eff,
            "convention": "shaped", "status": "ok",
        })
    return {"exit_code": 0, "stdout": json.dumps({"rows": rows})}


def test_table_check_uses_the_frozen_references():
    refs = checks.load_references(ROOT)
    assert not any(checks.check_pass("ts-table", _ts_output(), refs))
    failed = checks.check_pass("ts-table", _ts_output(shift_db=0.06), refs)
    assert len(failed) == 12 and all(failed)


def test_expected_parity_law_is_uniform_with_a_uniform_term():
    import numpy as np

    shell_law = np.array([0.7, 0.2, 0.1])
    with_uniform = checks.expected_parity_pmf(3, np.array([[1], [2], [1]]), 2, shell_law)
    assert np.allclose(with_uniform, 1.0 / 3.0)
    shaped_only = checks.expected_parity_pmf(3, np.array([[1], [0], [0]]), 2, shell_law)
    assert np.allclose(shaped_only, shell_law)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pas-p13", "--seed", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric_with_its_unit(trace):
    proc = _run("--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = layertrace.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    proc = _run("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
