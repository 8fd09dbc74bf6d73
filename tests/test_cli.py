import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from primeshape import cli, constellations, optimizer
from primeshape.awgn_mi import mi_complex_points, mi_real_points
from primeshape.cli import build_parser, main
from primeshape.constellations import Constellation, Stretch, build_cqam, min_distance
from primeshape.field import Prime
from primeshape.optimizer import ShapingSolution, UnreachableRateError
from primeshape.pas import CodeSpec
from primeshape.shaping import CompositionPlan, MaxwellBoltzmann
from primeshape.sumdist import SymbolDistribution


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# sum-dist
# ---------------------------------------------------------------------------


def test_sum_dist_uniform_absorption(capsys):
    code, out, _ = _run(
        capsys,
        [
            "sum-dist", "-p", "5",
            "--factor", "0.5,0.2,0.1,0.1,0.1",
            "--uniform-factor",
            "--format", "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 5
    assert doc["num_factors"] == 2
    assert doc["uniformity_gap"] < 1e-12
    assert np.allclose(doc["pmf"], 0.2)


def test_sum_dist_csv_output(capsys):
    code, out, _ = _run(
        capsys,
        ["sum-dist", "-p", "3", "--factor", "0.6,0.3,0.1", "--repeat", "2"],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "symbol,probability"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    pmf = np.array([float(r[1]) for r in rows])
    # independent check: convolve the factor with itself mod 3
    f = np.array([0.6, 0.3, 0.1])
    expect = np.zeros(3)
    for a in range(3):
        for b in range(3):
            expect[(a + b) % 3] += f[a] * f[b]
    assert np.allclose(pmf, expect, atol=1e-15)
    assert pmf.sum() == pytest.approx(1.0)


def test_sum_dist_rejects_bad_pmf(capsys):
    code, _, err = _run(capsys, ["sum-dist", "-p", "5", "--factor", "0.5,0.5"])
    assert code == 2
    assert "error:" in err
    code, _, _ = _run(capsys, ["sum-dist", "-p", "5", "--factor", "1,0,0,0,0.5"])
    assert code == 2
    code, _, _ = _run(capsys, ["sum-dist", "-p", "5"])  # no factors at all
    assert code == 2


@pytest.mark.parametrize("repeat", ["0", "-3"])
def test_sum_dist_rejects_repeat_below_one(capsys, repeat):
    # a repeat below 1 would drop the given factors and leave the uniform one
    code, out, err = _run(
        capsys,
        [
            "sum-dist", "-p", "5", "--factor", "0.5,0.2,0.1,0.1,0.1",
            "--repeat", repeat, "--uniform-factor",
        ],
    )
    assert code == 2
    assert err.startswith("error: ") and "--repeat" in err
    assert out == ""


@pytest.mark.parametrize(
    "uniform, num_factors", [([], 300000000), (["--uniform-factor"], 300000001)],
    ids=["factor", "factor-and-uniform"],
)
def test_sum_dist_repeat_is_a_power_not_a_list(capsys, uniform, num_factors):
    # 3e8 replicated factors would take gigabytes; their transform's power does not
    start = time.perf_counter()
    code, out, err = _run(
        capsys,
        [
            "sum-dist", "-p", "3", "--factor", "0.5,0.5,0", "--repeat", "300000000",
            *uniform, "--format", "json",
        ],
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    doc = json.loads(out)
    assert doc["num_factors"] == num_factors
    assert np.allclose(doc["pmf"], 1.0 / 3.0, rtol=0.0, atol=1e-15)


def test_sum_dist_lost_precision_exits_3(capsys):
    code, out, err = _run(
        capsys,
        ["sum-dist", "-p", "7", "--factor", "0.000000001,0.999999999,0,0,0,0,0",
         "--repeat", "100000"],
    )
    assert code == 3
    assert err.startswith("error: ") and "lost precision" in err
    assert out == ""


def test_sum_dist_rejects_composite_modulus(capsys):
    code, _, err = _run(
        capsys, ["sum-dist", "-p", "6", "--factor", "0.5,0.1,0.1,0.1,0.1,0.1"]
    )
    assert code == 2
    assert "prime" in err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_csv(capsys):
    code, out, _ = _run(capsys, ["construct", "-p", "5"])
    assert code == 0
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert any("tool: primeshape" in l for l in comments)
    assert any("min_distance" in l for l in comments)
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "index,shell,re,im,prior"
    rows = list(csv.reader(io.StringIO("\n".join(data[1:]))))
    assert len(rows) == 25
    assert sorted({int(r[1]) for r in rows}) == [0, 1, 2, 3, 4]
    # innermost shell on the unit circle, priors uniform
    radii = [np.hypot(float(r[2]), float(r[3])) for r in rows if r[1] == "0"]
    assert np.allclose(radii, 1.0)
    assert np.allclose([float(r[4]) for r in rows], 1 / 25)


def test_construct_point_row_layout(capsys):
    # row i is point i of the constellation, on shell i // p
    code, out, _ = _run(capsys, ["construct", "-p", "5"])
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    idx, shell, re, im, prior = data[1 + 7].split(",")
    assert idx == "7" and shell == "1"
    assert float(prior) == pytest.approx(1 / 25)
    np.testing.assert_allclose(
        float(re) + 1j * float(im), build_cqam(Prime(5)).points[7], atol=1e-15
    )


def test_construct_stretch_and_file_output(tmp_path, capsys):
    out_path = tmp_path / "points.csv"
    code, out, _ = _run(
        capsys,
        ["construct", "-p", "7", "--stretch", "4.8", "0.76", "-o", str(out_path)],
    )
    assert code == 0
    assert "p=7: 49 points" in out  # summary goes to stdout
    text = out_path.read_text()
    assert "# rho_out: 4.8" in text
    assert text.count("\n") > 49


def test_construct_rejects_even_modulus(capsys):
    code, _, _ = _run(capsys, ["construct", "-p", "4"])
    assert code == 2


def _parameters(text):
    """The provenance parameters a CSV output records."""
    prefix = "# parameters: "
    (line,) = [l for l in text.splitlines() if l.startswith(prefix)]
    return json.loads(line[len(prefix):])


def test_construct_records_only_its_own_flags(capsys):
    # construct takes no --no-stretch, so it records none
    code, out, _ = _run(capsys, ["construct", "-p", "5"])
    assert code == 0
    assert _parameters(out) == {"command": "construct", "prime": 5}


def test_construct_measures_min_distance_once(monkeypatch, capsys):
    # the summary's d_min and figure of merit come from one O(M^2) pass
    calls = []

    def counted(c):
        calls.append(c.size)
        return min_distance(c)

    monkeypatch.setattr(constellations, "min_distance", counted)
    # also count a call through a name cli might import for itself
    monkeypatch.setattr(cli, "min_distance", counted, raising=False)
    code, out, _ = _run(capsys, ["construct", "-p", "7"])
    assert code == 0 and calls == [49]
    assert f"# min_distance: {min_distance(build_cqam(Prime(7)))}" in out.splitlines()


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_single_time_sharing_row(capsys):
    code, out, _ = _run(
        capsys,
        [
            "table", "--mode", "time-sharing", "-p", "7", "--rc", "2/3",
            "--convention", "shaped",
        ],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["p"] == "7" and row["Rc"] == "2/3"
    assert row["scheme"] == "time-sharing"
    assert row["convention"] == "shaped"
    assert row["status"] == "ok"
    assert float(row["gap_db"]) == pytest.approx(0.333, abs=0.05)
    assert float(row["potential_gain_db"]) == pytest.approx(0.817, abs=0.05)


def test_table_both_conventions(capsys):
    code, out, _ = _run(
        capsys,
        [
            "table", "-p", "7", "--rc", "2/3", "--convention", "both",
            "--format", "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    convs = [r["convention"] for r in doc["rows"]]
    assert convs == ["shaped", "time-averaged"]
    gaps = [r["gap_db"] for r in doc["rows"]]
    assert gaps[0] != gaps[1]


def test_table_cqam_mode(capsys):
    code, out, _ = _run(
        capsys,
        [
            "table", "--mode", "cqam", "-p", "5", "--no-stretch",
            "--format", "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    schemes = [r["scheme"] for r in doc["rows"]]
    assert schemes == ["shaped-ask-squared", "cqam"]
    for row in doc["rows"]:
        assert row["status"] == "ok"
        assert row["p"] == 5
        assert row["gap_db"] + row["effective_gain_db"] == pytest.approx(
            row["potential_gain_db"], abs=1e-9
        )


def test_table_unreachable_rate_is_marked(capsys):
    # Rc = 1 demands the full log2(7) bits/dim: uniform time sharing can
    # only approach it, so the row must degrade to a status marker, not die
    code, out, _ = _run(
        capsys,
        ["table", "-p", "7", "--rc", "1", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["status"].startswith("unreachable")


def test_table_unreachable_rows_name_their_convention(capsys):
    code, out, _ = _run(
        capsys,
        ["table", "-p", "7", "--rc", "1", "--convention", "both", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert "convention" in doc["columns"]
    assert [row["convention"] for row in doc["rows"]] == ["shaped", "time-averaged"]
    assert all(row["status"].startswith("unreachable: ") for row in doc["rows"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-p", "4", "--rc", "2/3"], "4 is not prime"),
        (["--mode", "cqam", "-p", "2", "--rc", "2/3"], "requires an odd prime"),
        (["-p", "7", "--rc", "1/3"], "coding rate 1/3 outside [1/2, 1]"),
        (["-p", "7", "--rc", "0"], "coding rate 0 outside [1/2, 1]"),
        (["-p", "7", "--rc", "1/0"], "cannot parse coding rate '1/0'"),
        (["-p", "7", "--rc", "abc"], "cannot parse coding rate 'abc'"),
        # time-shared p-ASK has no shells to stretch
        (["-p", "7", "--rc", "2/3", "--stretch", "4.8", "0.76"], "apply only to --mode cqam"),
        (["-p", "7", "--rc", "2/3", "--no-stretch"], "apply only to --mode cqam"),
    ],
    ids=[
        "composite", "even", "rc=1/3", "rc=0", "rc=1/0", "rc=abc",
        "time-sharing-stretch", "time-sharing-no-stretch",
    ],
)
def test_table_invalid_input_exits_2(capsys, argv, message):
    # input errors end the command; only an unreachable rate becomes a row
    code, out, err = _run(capsys, ["table", *argv])
    assert code == 2
    assert message in err
    assert out == ""


def test_table_non_convergence_exits_3(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise RuntimeError("SNR bisection did not converge to the rate tolerance")

    monkeypatch.setattr(cli, "optimize_time_sharing", diverge)
    code, out, err = _run(capsys, ["table", "-p", "7", "--rc", "2/3"])
    assert code == 3
    assert "error: SNR bisection did not converge" in err
    assert out == ""


def test_cqam_table_nu_search_gives_up_after_six_widenings_exit_3(monkeypatch, capsys):
    # nu* ~ 0.28 lies past 64 times a first edge of 1e-4: the coarse search
    # announces six doublings and gives up, and the row fails the command
    build = optimizer._cqam_scheme
    monkeypatch.setattr(
        optimizer, "_cqam_scheme",
        lambda *args: dataclasses.replace(build(*args), nu_max=1e-4),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["table", "--mode", "cqam", "-p", "5", "--rc", "2/3"])
    assert code == 3 and out == ""
    assert err == "error: nu bracket widening failed to contain the optimum\n"
    assert sum("widening the bracket" in str(w.message) for w in caught) == 6


TABLE_HEAD = [
    "p", "Rc", "target_rate", "potential_gain_db", "gap_db",
    "effective_gain_db", "nu_star", "gamma_A_db",
]


def _fake_time_sharing(field, rc, convention):
    """A fixed solution in place of a solve; Rc = 1 is unreachable."""
    if rc == 1:
        raise UnreachableRateError("rate too high")
    return ShapingSolution(
        scheme="time-sharing",
        p=field.p,
        coding_rate=rc,
        target_rate=1.871,
        nu_star=0.236,
        gamma_A_db=8.25,
        gamma_cap_db=7.92,
        gamma_unif_db=8.74,
        gap_db=0.3325,
        potential_gain_db=0.817,
        effective_gain_db=0.4846,
        convention=convention,
    )


def _fake_table(monkeypatch, capsys, *argv):
    monkeypatch.setattr(cli, "optimize_time_sharing", _fake_time_sharing)
    code, out, err = _run(capsys, ["table", "-p", "7", "--rc", "2/3", *argv])
    assert code == 0, err
    return out


def test_table_csv_layout(monkeypatch, capsys):
    lines = _fake_table(monkeypatch, capsys, "--convention", "shaped").splitlines()
    header = lines[-2].split(",")
    assert header[:8] == TABLE_HEAD
    row = dict(zip(header, lines[-1].split(",")))
    assert row["p"] == "7" and row["Rc"] == "2/3"
    # dB to 3 decimals, nu* and the target rate to 6
    assert row["potential_gain_db"] == "0.817" and row["gap_db"] == "0.333"
    assert row["gamma_A_db"] == "8.250" and row["gamma_unif_db"] == "8.740"
    assert row["nu_star"] == "0.236000" and row["target_rate"] == "1.871000"
    assert row["scheme"] == "time-sharing" and row["convention"] == "shaped"
    assert row["status"] == "ok"


def test_time_sharing_table_records_its_convention(monkeypatch, capsys):
    # time-averaged when none is given, as the rows are solved
    assert _parameters(_fake_table(monkeypatch, capsys))["convention"] == "time-averaged"
    params = _parameters(_fake_table(monkeypatch, capsys, "--convention", "both"))
    assert params["convention"] == "both"


def test_time_sharing_table_records_no_stretch_flag(monkeypatch, capsys):
    # the mode refuses --stretch and --no-stretch, so neither is its parameter
    assert "no_stretch" not in _parameters(_fake_table(monkeypatch, capsys))


def _fake_cqam_table(monkeypatch, capsys, *argv):
    def fake(field, rc, **kwargs):
        return _fake_time_sharing(field, rc, None)

    monkeypatch.setattr(cli, "optimize_shaped_ask", fake)
    monkeypatch.setattr(cli, "optimize_cqam", fake)
    code, out, err = _run(capsys, ["table", "--mode", "cqam", "-p", "5", *argv])
    assert code == 0, err
    return out


def test_cqam_table_and_pas_keep_the_no_stretch_flag(monkeypatch, capsys):
    assert _parameters(_fake_cqam_table(monkeypatch, capsys))["no_stretch"] is False
    code, out, err = _run(capsys, ["pas", "-p", "5", "--frames", "20"])
    assert code == 0, err
    assert json.loads(json.loads(out)["provenance"]["parameters"])["no_stretch"] is False


def test_cqam_table_rows_have_no_convention(monkeypatch, capsys):
    # an unreachable row (Rc = 1) has no convention either
    argv = ["--rc", "2/3", "--rc", "1"]
    lines = _fake_cqam_table(monkeypatch, capsys, *argv).splitlines()
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    assert header[:8] == TABLE_HEAD and "convention" not in header
    assert "scheme" in header and "status" in header
    doc = json.loads(_fake_cqam_table(monkeypatch, capsys, *argv, "--format", "json"))
    assert "convention" not in doc["columns"]
    assert [row["status"][:2] for row in doc["rows"]] == ["ok", "ok", "un", "un"]
    assert not any("convention" in row for row in doc["rows"])


def test_cqam_table_records_no_convention(monkeypatch, capsys):
    assert "convention" not in _parameters(_fake_cqam_table(monkeypatch, capsys, "--rc", "2/3"))


def test_cqam_table_refuses_a_convention_before_any_solve(monkeypatch, capsys):
    # the CQAM schemes have no time-sharing energy convention
    def unexpected(*args, **kwargs):
        raise AssertionError("solved a row")

    monkeypatch.setattr(cli, "optimize_shaped_ask", unexpected)
    monkeypatch.setattr(cli, "optimize_cqam", unexpected)
    code, out, err = _run(
        capsys,
        ["table", "--mode", "cqam", "-p", "5", "--rc", "2/3", "--convention", "time-averaged"],
    )
    assert code == 2 and out == ""
    assert err == "error: --convention applies only to --mode time-sharing\n"


def test_table_json_keeps_full_precision(monkeypatch, capsys):
    doc = json.loads(_fake_table(monkeypatch, capsys, "--format", "json"))
    assert doc["provenance"]["command"] == "table"
    assert doc["columns"][:8] == TABLE_HEAD
    [row] = doc["rows"]
    assert row["gap_db"] == 0.3325 and row["effective_gain_db"] == 0.4846


def test_table_json_record_columns(monkeypatch, capsys):
    doc = json.loads(_fake_table(monkeypatch, capsys, "--format", "json"))
    [row] = doc["rows"]
    assert row["Rc"] == "2/3" and row["status"] == "ok"
    assert "coding_rate" not in row


def test_table_csv_unreachable_row_has_empty_cells(monkeypatch, capsys):
    lines = _fake_table(monkeypatch, capsys, "--rc", "1").splitlines()
    header = lines[-3].split(",")
    ok, unreachable = (dict(zip(header, l.split(","))) for l in lines[-2:])
    assert ok["status"] == "ok"
    assert unreachable["p"] == "7" and unreachable["Rc"] == "1"
    assert unreachable["scheme"] == "time-sharing"
    assert unreachable["convention"] == "time-averaged"
    assert unreachable["status"] == "unreachable: rate too high"
    empty = [c for c in header if c not in ("p", "Rc", "scheme", "convention", "status")]
    assert [unreachable[c] for c in empty] == [""] * len(empty)


@pytest.mark.parametrize(
    "argv",
    [
        ["sum-dist", "-p", "3", "--factor", "0.6,0.3,0.1", "-o", "{dir}/out.csv"],
        ["construct", "-p", "5", "-o", "{dir}/out.csv"],
        ["table", "-p", "7", "--rc", "1", "-o", "{dir}/out.csv"],
        ["pas", "-p", "5", "--frames", "20", "-o", "{dir}/report.json",
         "--dump-frames", "{dir}/out.csv"],
    ],
    ids=["sum-dist", "construct", "table", "pas-dump"],
)
def test_csv_starts_with_tool_line(tmp_path, capsys, argv):
    code, _, err = _run(capsys, [arg.format(dir=tmp_path) for arg in argv])
    assert code == 0, err
    first = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert first == f"# tool: primeshape {cli.__version__}"


def test_table_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = _run(
        capsys,
        [
            "table", "-p", "7", "--rc", "2/3", "-o", str(out_path),
        ],
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# tool: primeshape")
    assert "p,Rc,target_rate" in text


# ---------------------------------------------------------------------------
# pas
# ---------------------------------------------------------------------------


def test_pas_report_and_determinism(capsys):
    argv = [
        "pas", "-p", "5", "--rc", "2/3", "--nu", "0.1",
        "--frames", "400", "--dm-block", "16", "--seed", "7",
    ]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out1)
    assert doc["code"] == {"n": 6, "k": 4, "coding_rate": "2/3", "seed": 7}
    assert doc["matcher"]["block_length"] == 16
    assert doc["num_frames"] == 400
    assert doc["parity"]["uniformity_gap"] < 0.1
    assert sum(doc["shells"]["pmf"]) == pytest.approx(1.0)
    code, out2, _ = _run(capsys, argv)
    assert out2 == out1  # same seed, same report, byte for byte


def test_pas_dump_frames(tmp_path, capsys):
    dump = tmp_path / "frames.csv"
    code, _, _ = _run(
        capsys,
        [
            "pas", "-p", "5", "--frames", "120", "--dm-block", "16",
            "--dump-frames", str(dump), "-o", str(tmp_path / "report.json"),
        ],
    )
    assert code == 0
    lines = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "frame,shell_symbols,phase_symbols,point_indices"
    assert len(lines) == 121
    # default rate 2/3 and seed 1: n = 6, k = 4, so each frame carries 3
    # shells and 3 phases, [1 source symbol | 2 parity symbols]
    code = CodeSpec.random_dense(Prime(5), 6, 4, seed=1)
    for i, line in enumerate(lines[1:]):
        frame, *cols = line.split(",")
        assert int(frame) == i
        shells, phases, points = (np.array(c.split(), dtype=np.int64) for c in cols)
        assert shells.shape == phases.shape == (3,)
        assert np.array_equal(points, shells * 5 + phases)
        info = np.concatenate([shells, phases[:1]])
        assert np.array_equal(phases[1:], info @ code.parity % 5)


def test_pas_dump_frames_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # '-' names stdout for --dump-frames as it does for -o
    monkeypatch.chdir(tmp_path)
    argv = ["pas", "-p", "5", "--frames", "30", "--dm-block", "16"]
    code, out, _ = _run(capsys, [*argv, "--dump-frames", "-", "-o", "r.json"])
    assert code == 0
    assert not (tmp_path / "-").exists()
    assert json.loads((tmp_path / "r.json").read_text())["num_frames"] == 30
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "frame,shell_symbols,phase_symbols,point_indices"
    assert len(lines) == 31


@pytest.mark.parametrize(
    "outputs",
    [["--dump-frames", "-"], ["--dump-frames", "-", "-o", "-"],
     ["-o", "f", "--dump-frames", "f"]],
    ids=["dump-dash", "both-dash", "one-file"],
)
def test_pas_frames_and_report_to_one_destination_exit_2(
    tmp_path, monkeypatch, capsys, outputs
):
    # no reader could split the frames CSV from the report JSON in one
    # stream, and a file would keep only the report
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_frames", lambda *a, **k: pytest.fail("ran"))
    code, out, err = _run(capsys, ["pas", "-p", "5", "--frames", "30", *outputs])
    assert code == 2
    assert err.startswith("error: ") and "--dump-frames and -o/--output" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_pas_block_n_sets_code_length(capsys):
    code, out, err = _run(
        capsys, ["pas", "-p", "5", "--rc", "2/3", "--block-n", "12", "--frames", "50"]
    )
    assert code == 0, err
    assert json.loads(out)["code"] == {"n": 12, "k": 8, "coding_rate": "2/3", "seed": 1}


@pytest.mark.parametrize("p, nu, dof", [(13, "0.1", 155), (7, "0.2", 41)])
def test_pas_near_optimal_nu_leaves_a_shell_empty(capsys, p, nu, dof):
    # the 64-symbol matcher block gives the outermost shell a count of 0, so
    # the chi-square covers the p * (p - 1) points of the other shells
    code, out, err = _run(capsys, ["pas", "-p", str(p), "--nu", nu, "--frames", "2000"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["matcher"]["counts"][-1] == 0
    assert doc["shells"]["pmf"][-1] == 0.0
    assert doc["points"]["degrees_of_freedom"] == dof


@pytest.mark.parametrize(
    "argv", [["-p", "7"], ["-p", "13"], ["-p", "5", "--stretch", "3.0", "0.9"]],
    ids=["p7-reference", "p13-reference", "p5-stretch"],
)
def test_stretched_pas_packs_no_shells(monkeypatch, capsys, argv):
    # a stretch sets the shell radii by its law alone
    def unexpected(field):
        raise AssertionError("packed the shells")

    monkeypatch.setattr(constellations, "_pack_shells", unexpected)
    code, _, err = _run(capsys, ["pas", *argv, "--frames", "50"])
    assert code == 0, err


@pytest.mark.parametrize(
    "argv, p", [(["-p", "7", "--no-stretch"], 7), (["-p", "5"], 5)],
    ids=["p7-no-stretch", "p5-no-reference"],
)
def test_unstretched_pas_packs_its_shells(monkeypatch, capsys, argv, p):
    pack, packed = constellations._pack_shells, []

    def counted(field):
        packed.append(field.p)
        return pack(field)

    monkeypatch.setattr(constellations, "_pack_shells", counted)
    code, _, err = _run(capsys, ["pas", *argv, "--frames", "50"])
    assert code == 0, err
    assert packed == [p]


@pytest.mark.parametrize("stretch", [[], ["--stretch", "3.0", "0.9"]], ids=["plain", "stretch"])
def test_pas_refuses_p2(capsys, stretch):
    code, out, err = _run(capsys, ["pas", "-p", "2", *stretch, "--frames", "50"])
    assert code == 2 and out == ""
    assert err == "error: CQAM construction requires an odd prime\n"


def test_pas_rejects_bad_rates(capsys):
    code, _, err = _run(capsys, ["pas", "-p", "5", "--rc", "1/3", "--frames", "50"])
    assert code == 2
    code, _, _ = _run(
        capsys, ["pas", "-p", "5", "--rc", "2/3", "--block-n", "7", "--frames", "50"]
    )
    assert code == 2  # odd length
    code, _, _ = _run(
        capsys, ["pas", "-p", "5", "--rc", "2/3", "--block-n", "8", "--frames", "50"]
    )
    assert code == 2  # 8 * 2/3 not an integer


@pytest.mark.parametrize("rc", ["1", "3/2", "0"])
def test_pas_names_the_coding_rate_range(capsys, rc):
    # as table does: the rate and the range, not the code dimensions
    code, out, err = _run(capsys, ["pas", "-p", "7", "--rc", rc, "--frames", "50"])
    assert code == 2 and out == ""
    assert f"error: coding rate {rc} outside [1/2, 1)" in err


def test_pas_rejects_a_negative_seed(capsys):
    # numpy's own message would name no option
    code, out, err = _run(capsys, ["pas", "-p", "7", "--seed", "-1", "--frames", "50"])
    assert code == 2
    assert "error: --seed must be nonnegative, got -1" in err
    assert out == ""


def test_pas_rejects_a_negative_block_length(capsys):
    # the code dimensions are checked before the parity matrix is drawn
    code, out, err = _run(capsys, ["pas", "-p", "7", "--block-n", "-6", "--frames", "50"])
    assert code == 2
    assert "need 0 < k < n" in err
    assert out == ""


# ---------------------------------------------------------------------------
# unreadable and unwritable files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "-p", "5", "-o", "{missing}/x.csv"], "No such file"),
        (["pas", "-p", "7", "--frames", "50", "--dump-frames", "{missing}/f.csv"],
         "No such file"),
        (["table", "-p", "7", "--rc", "2/3", "-o", "{missing}/t.csv"],
         "No such file"),
    ],
    ids=["construct-output", "pas-dump", "table-output"],
)
def test_bad_paths_and_job_counts_exit_2(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing")
    code, out, err = _run(capsys, [arg.format(missing=missing) for arg in argv])
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", ["nan", "inf"])
@pytest.mark.parametrize(
    "case",
    [
        ["construct", "-p", "7", "--stretch", "{x}", "0.7"],
        ["sum-dist", "-p", "5", "--factor", "{x},0.25,0.25,0.25,0.25"],
        ["table", "--mode", "cqam", "-p", "7", "--stretch", "{x}", "0.7"],
        ["pas", "-p", "7", "--nu", "{x}"],
        lambda x: Stretch(x, 0.7),
        lambda x: Stretch(4.8, x),
        lambda x: SymbolDistribution(Prime(3), [x, 0.5, 0.5]),
        lambda x: MaxwellBoltzmann([1.0, 2.0], [x, 0.5]),
        lambda x: MaxwellBoltzmann.from_amplitudes(x, [1.0, 2.0]),
        (lambda x: MaxwellBoltzmann.from_amplitudes(0.0, [x, 1.0]), "amplitudes must be finite"),
        lambda x: CompositionPlan.from_distribution(Prime(3), [x, 0.5, 0.5], 8),
        lambda x: mi_real_points(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), x),
        lambda x: mi_complex_points(np.array([-1.0, 1.0j]), np.array([0.5, 0.5]), x),
        lambda x: Constellation([1.0, -1.0], [x, 0.5]),
        lambda x: Constellation([1.0, x], [0.5, 0.5]),
    ],
    ids=[
        "construct", "sum-dist", "table", "pas", "rho_max", "beta", "SymbolDistribution",
        "MaxwellBoltzmann", "from_amplitudes", "amplitude", "from_distribution", "mi_real_points",
        "mi_complex_points", "Constellation-prior", "Constellation-point",
    ],
)
def test_nonfinite_input_rejected(capsys, x, case):
    # NaN passes a check written as `value <= bound`
    if isinstance(case, list):
        code, _, err = _run(capsys, [arg.format(x=x) for arg in case])
        assert code == 2
        assert x in err or "finite" in err
        if case[0] == "sum-dist":
            assert f"factor sums to {x}," in err  # a plain float, not np.float64(...)
    else:
        case, message = case if isinstance(case, tuple) else (case, None)
        with pytest.raises(ValueError, match=message):
            case(float(x))


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "target, argv, raised, message",
    [
        ("build_cqam", ["construct", "-p", "1000000007"],
         MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000007,)"),
         "error: construct ran out of memory: Unable to allocate 7.45 GiB"),
        # a MemoryError may carry no message
        ("sum_distribution_dft", ["sum-dist", "-p", "3", "--factor", "0.5,0.5,0"],
         MemoryError(), "error: sum-dist ran out of memory\n"),
    ],
    ids=["construct-numpy", "sum-dist-bare"],
)
def test_memory_exhaustion_exits_2(monkeypatch, capsys, target, argv, raised, message):
    def exhausted(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err


def test_argparse_failures_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # table solves its rows in one loop
        ["table", "-p", "7", "--rc", "2/3", "--jobs", "2"],
        # the CQAM nu search runs at optimizer.SEARCH_NODES
        ["table", "--mode", "cqam", "-p", "7", "--rc", "2/3", "--search-nodes", "24"],
        # the packing's phase grid is constellations.PHASE_STEPS
        ["construct", "-p", "7", "--phase-steps", "7"],
        # each --factor takes one factor PMF, as each file row did
        ["sum-dist", "-p", "3", "--factors-file", "f.csv"],
        # every row is solved at awgn_mi.DEFAULT_NODES
        ["table", "--nodes", "16", "-p", "7", "--rc", "2/3"],
    ],
    ids=[
        "table-jobs", "table-search-nodes", "construct-phase-steps",
        "sum-dist-factors-file", "table-nodes",
    ],
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "unrecognized arguments" in out.err
    assert out.out == ""


def test_stretch_flags_exclusive_exit_2(capsys):
    both = ["--stretch", "4.8", "0.76", "--no-stretch"]
    for argv in (["table", "--mode", "cqam", "-p", "5"], ["pas", "-p", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + both)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_parser_builds_help_for_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("sum-dist", "construct", "table", "pas"):
        assert name in text


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys, tmp_path):
    # main parses every argv with the one parser build_parser keeps: failing
    # calls leave nothing behind in it, and table and pas, whose commands
    # change their Namespace, write the bytes of a fresh process
    assert build_parser() is build_parser()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in (
        ["table", "--mode", "qam"],  # argparse refuses it: SystemExit(2)
        ["table", "--mode", "cqam", "--convention", "shaped"],  # exit 2
        ["table", "-p", "7", "--rc", "2/3", "--rc", "4/5"],
        ["table", "-p", "5", "--rc", "3/4", "--convention", "shaped", "--format", "json"],
        ["pas", "-p", "5", "--frames", "40", "--dump-frames", "-"],
        ["table", "-p", "7", "--rc", "2/3", "--rc", "4/5"],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "primeshape.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
