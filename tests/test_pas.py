import json
import math
import os
import subprocess
import sys
import warnings

import types

import numpy as np
import pytest

import primeshape
from primeshape import pas
from primeshape.constellations import build_cqam
from primeshape.field import Prime
from primeshape.pas import (
    CodeSpec,
    _chi_square_99pct,
    empirical_distributions,
    encode,
    generate_frames,
    map_frame,
    split_frames,
)
from primeshape.shaping import CompositionPlan, MaxwellBoltzmann, ccdm_decode

P5 = Prime(5)
P7 = Prime(7)


def _toy_code() -> CodeSpec:
    # rate 2/3, n = 6, k = 4 over F_5; P written out by hand
    parity = [
        [1, 2],
        [3, 0],
        [4, 4],
        [2, 1],
    ]
    return CodeSpec(P5, 6, 4, np.array(parity))


# ---------------------------------------------------------------------------
# CodeSpec / encode
# ---------------------------------------------------------------------------


def test_encode_hand_checked():
    code = _toy_code()
    info = [1, 0, 2, 3]
    word = encode(code, info)
    # parity computed by hand: 1*[1,2] + 2*[4,4] + 3*[2,1] mod 5
    assert word.tolist() == [1, 0, 2, 3, (1 + 8 + 6) % 5, (2 + 8 + 3) % 5]
    assert word.tolist()[:4] == info  # systematic


def test_encode_is_linear():
    code = CodeSpec.random_dense(P7, 12, 8, seed=3)
    rng = np.random.default_rng(11)
    a = rng.integers(0, 7, size=8)
    b = rng.integers(0, 7, size=8)
    lhs = encode(code, (a + b) % 7)
    rhs = (encode(code, a) + encode(code, b)) % 7
    assert np.array_equal(lhs, rhs)


def test_encode_matches_independent_matmul():
    code = CodeSpec.random_dense(P7, 10, 6, seed=5)
    rng = np.random.default_rng(2)
    info = rng.integers(0, 7, size=6)
    g = np.concatenate([np.eye(6, dtype=np.int64), code.parity], axis=1)
    assert np.array_equal(encode(code, info), info @ g % 7)


def test_encode_batched_equals_per_row():
    code = CodeSpec.random_dense(P5, 8, 5, seed=9)
    rng = np.random.default_rng(4)
    block = rng.integers(0, 5, size=(7, 5))
    batch = encode(code, block)
    assert batch.shape == (7, 8)
    for i in range(7):
        assert np.array_equal(batch[i], encode(code, block[i]))
    empty = encode(code, block[:0])
    assert empty.shape == (0, 8) and empty.dtype == np.int64


def test_encode_rejects_bad_input():
    code = _toy_code()
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        encode(code, 3)  # a 0-d block
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3, 5])  # symbol out of field
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3, -1])
    # in one frame or in a batch, at the edges of the int64 range too
    for bad in (-1, 5, -(2**63), 2**63 - 1):
        batch = np.zeros((3, 4), dtype=np.int64)
        batch[2, 1] = bad
        for info in (batch[2], batch):
            with pytest.raises(ValueError, match="must lie in 0..p-1"):
                encode(code, info)
    # a non-integer is refused, not truncated, and NaN without a cast warning
    dense = CodeSpec.random_dense(P5, 6, 4, seed=1)
    for bad in (0.5, 1.9, np.nan, np.inf):
        batch = np.zeros((3, 4))
        batch[2, 1] = bad
        for info in (batch[2], batch):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be integers"):
                    encode(dense, info)
    with pytest.raises(ValueError, match="must be integers"):
        encode(dense, [0.5, 1.9, 2, 3])
    # integral floats are kept
    assert encode(dense, [0.0, 1.0, 2.0, 3.0]).tolist() == encode(dense, [0, 1, 2, 3]).tolist()
    # complex, object and string symbols are refused before any cast, even
    # where the value is integral
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([1 + 0j, 0, 0, 0], np.array([1, 0, 0, 0], dtype=object), ["1", "0", "0", "0"]):
            with pytest.raises(ValueError, match="must be integers"):
                encode(dense, bad)


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec(P5, 6, 2, np.zeros((2, 4), dtype=int))  # rate 1/3 < 1/2
    with pytest.raises(ValueError):
        CodeSpec(P5, 6, 6, np.zeros((6, 0), dtype=int))  # k = n
    with pytest.raises(ValueError):
        CodeSpec(P5, 6, 4, np.zeros((3, 2), dtype=int))  # wrong shape
    with pytest.raises(ValueError):
        CodeSpec(P5, 6, 4, np.full((4, 2), 5))  # entries outside F_5
    # a non-integer entry is refused, not truncated to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="parity entries must be integers"):
                CodeSpec(P5, 6, 4, [[bad, 2], [3, 0], [4, 4], [2, 1]])
        with pytest.raises(ValueError, match="parity entries must be integers"):
            CodeSpec(P5, 6, 4, [[1 + 0j, 2], [3, 0], [4, 4], [2, 1]])


def test_random_dense_column_weights():
    for seed in range(5):
        code = CodeSpec.random_dense(P7, 24, 16, seed=seed)
        weights = (code.parity != 0).sum(axis=0)
        assert weights.min() >= 8  # ceil(k/2)


def test_random_dense_columns_reach_a_source_symbol():
    # a column without a nonzero on the source rows n/2 .. k-1 makes its
    # parity symbol a function of the shaped shells alone
    for p, n, k in ((5, 6, 4), (13, 6, 4), (7, 8, 5), (5, 10, 6)):
        for seed in range(40):
            code = CodeSpec.random_dense(Prime(p), n, k, seed=seed)
            assert (code.parity[n // 2 :] != 0).any(axis=0).all(), (p, n, k, seed)


def test_random_dense_parity_uniform_under_degenerate_shells():
    # at nu = 100 every shell symbol is 0, so only the one source symbol per
    # frame can make the parity uniform; seed 2's first draw has a column
    # without it, whose parity symbol is constant (a gap of 0.40)
    code = CodeSpec.random_dense(P5, 6, 4, seed=2)
    cqam = build_cqam(P5)
    prior = MaxwellBoltzmann.from_amplitudes(100.0, cqam.shells.radii)
    codewords, plan = generate_frames(code, prior, num_frames=2000, seed=2)
    report = empirical_distributions(codewords, code, plan)
    sigma = math.sqrt(0.2 * 0.8 / report["num_parity_symbols"])
    assert report["parity"]["uniformity_gap"] < 6 * sigma


def test_random_dense_deterministic():
    a = CodeSpec.random_dense(P5, 10, 6, seed=42)
    b = CodeSpec.random_dense(P5, 10, 6, seed=42)
    assert np.array_equal(a.parity, b.parity)


# ---------------------------------------------------------------------------
# frame mapping
# ---------------------------------------------------------------------------


def test_map_frame_structure():
    code = _toy_code()
    dm = [4, 0, 2]
    src = [3]
    word = map_frame(code, dm, src)
    # the frame is the codeword of [shells | source]
    assert word.dtype == np.int64
    assert word.tolist() == encode(code, dm + src).tolist()
    shells, parity, phases, points = split_frames(code, word)
    assert shells.tolist() == [4, 0, 2]
    assert parity.tolist() == word[4:].tolist()
    # phases = [source | parity], indices = shell*p + phase
    assert phases.tolist() == [3] + parity.tolist()
    assert points.tolist() == [s * 5 + q for s, q in zip(dm, phases.tolist())]


def test_map_frame_zero_inputs():
    code = _toy_code()
    word = map_frame(code, [0, 0, 0], [0])
    assert split_frames(code, word)[3].tolist() == [0, 0, 0]
    # at R_c = 1/2 there are no source symbols, and the frame's information
    # [0, 0, 0] + [] concatenates to float64, which encode still takes
    half = CodeSpec(P5, 6, 3, np.ones((3, 3), dtype=int))
    assert map_frame(half, [0, 0, 0], []).tolist() == [0] * 6


def test_map_frame_injective_on_sample():
    code = _toy_code()
    rng = np.random.default_rng(7)
    inputs, rows = set(), set()
    for _ in range(200):
        dm = rng.integers(0, 5, size=3).tolist()
        src = rng.integers(0, 5, size=1).tolist()
        word = map_frame(code, dm, src)
        inputs.add((*dm, *src))
        rows.add(tuple(split_frames(code, word)[3].tolist()))
    assert len(inputs) > 100  # the sample repeats few inputs
    # distinct (dm, src) inputs give distinct point-index rows
    assert len(rows) == len(inputs)


def test_map_frame_rejects_bad_shapes():
    code = _toy_code()
    with pytest.raises(ValueError):
        map_frame(code, [0, 0], [0])  # too few matcher symbols
    with pytest.raises(ValueError):
        map_frame(code, [0, 0, 0], [])  # too few source symbols
    odd = CodeSpec(P5, 5, 3, np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError):
        map_frame(odd, [0, 0], [0])  # odd frame length


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------


def _chain_pieces():
    code = CodeSpec.random_dense(P5, 6, 4, seed=0)
    prior = MaxwellBoltzmann.from_amplitudes(0.15, build_cqam(P5).shells.radii)
    return code, prior


def test_generate_frames_shapes_and_determinism():
    code, prior = _chain_pieces()
    codewords, plan = generate_frames(code, prior, num_frames=40, seed=3)
    assert codewords.shape == (40, 6)
    assert codewords.dtype == np.int64
    # every row is a codeword of the code
    assert np.array_equal(encode(code, codewords[:, :4]), codewords)
    assert plan.block_length == 64  # default matcher block length
    again, _ = generate_frames(code, prior, num_frames=40, seed=3)
    assert np.array_equal(codewords, again)
    other, _ = generate_frames(code, prior, num_frames=40, seed=4)
    assert not np.array_equal(codewords, other)


@pytest.mark.parametrize("p, n, k", [(5, 6, 4), (7, 6, 4), (3, 10, 6)])
def test_chain_round_trip(p, n, k):
    # the statistics pass cannot see a chain that loses information, so
    # every frame is taken apart again: parity against encode, source
    # symbols and matcher inputs against a replay of the chain's RNG
    field, frames, seed, half = Prime(p), 30, 5, n // 2
    code = CodeSpec.random_dense(field, n, k, seed=seed)
    prior = MaxwellBoltzmann.from_amplitudes(0.1, build_cqam(field).shells.radii)
    codewords, plan = generate_frames(code, prior, frames, seed=seed, dm_block=12)
    d, N = plan.input_length(), plan.block_length
    assert d > 0
    shells, parity, phases, _ = split_frames(code, codewords)
    assert np.array_equal(parity, encode(code, codewords[:, :k])[:, k:])
    rng = np.random.default_rng(seed)
    inputs = [rng.integers(0, p, size=d) for _ in range(-(-frames * half // N))]
    assert np.array_equal(phases[:, : k - half], rng.integers(0, p, size=(frames, k - half)))
    stream = shells.ravel()
    for i in range(len(stream) // N):
        assert ccdm_decode(plan, stream[i * N : (i + 1) * N].tolist()) == inputs[i].tolist()


def test_generate_frames_rejects_empty():
    code, prior = _chain_pieces()
    with pytest.raises(ValueError):
        generate_frames(code, prior, num_frames=0, seed=1)


@pytest.mark.parametrize("num_frames", [1.5, 2.0, True, "2"])
def test_generate_frames_refuses_a_frame_count_that_is_not_an_integer(num_frames):
    # a float count reached the slicing and failed there; a bool passed as 1
    code, prior = _chain_pieces()
    with pytest.raises(ValueError, match="num_frames must be an integer"):
        generate_frames(code, prior, num_frames=num_frames, seed=1)
    assert generate_frames(code, prior, num_frames=np.int64(2), seed=1)[0].shape == (2, 6)


def test_generate_frames_refuses_odd_length_before_matching(monkeypatch):
    def matcher(*args):
        raise AssertionError("the matcher ran for a code no frame can use")

    monkeypatch.setattr(pas, "ccdm_encode", matcher)
    _, prior = _chain_pieces()
    odd = CodeSpec(P5, 5, 3, np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError, match="even code length"):
        generate_frames(odd, prior, num_frames=20, seed=1)


def test_chain_statistics():
    # moderate run: parity near-uniform, shells near the matcher's
    # composition, and the product-law chi-square inside its 99% quantile
    code, prior = _chain_pieces()
    codewords, plan = generate_frames(code, prior, num_frames=4000, seed=12)
    report = empirical_distributions(codewords, code, plan)
    assert report["num_points"] == 12000
    assert report["parity"]["uniformity_gap"] < 0.02
    assert report["shells"]["max_abs_dev"] < 0.02
    assert report["points"]["chi_square"] < report["points"]["chi_square_99pct"]
    pmf = np.array(report["parity"]["pmf"])
    assert pmf.sum() == pytest.approx(1.0)


def test_empirical_distributions_guards():
    code, prior = _chain_pieces()
    codewords, plan = generate_frames(code, prior, num_frames=50, seed=1)
    # a plan that gives every shell but the first an expected count of 0
    N = plan.block_length
    with pytest.raises(ValueError, match="expected count is zero"):
        empirical_distributions(codewords, code, CompositionPlan(P5, N, (N, 0, 0, 0, 0)))
    # a plan over another field than the code's
    with pytest.raises(ValueError, match="plan over F_3 does not fit a code over F_5"):
        empirical_distributions(codewords, code, CompositionPlan(Prime(3), 64, (30, 20, 14)))


def test_all_lists_the_public_names():
    # a name removed from the package must leave __all__ too, and vice versa
    public = {
        name
        for name, value in vars(primeshape).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(primeshape.__all__)) == len(primeshape.__all__)
    assert set(primeshape.__all__) == public | {"__version__"}


@pytest.mark.parametrize(
    "module", ["scipy.stats", "scipy.optimize", "concurrent.futures"]
)
def test_package_import_leaves_scipy_stats_unloaded(module):
    # no module needs scipy.stats (empirical_distributions computes its
    # quantile without scipy) or scipy.optimize (the SNR solve's Newton method
    # and the nu search's secant method are written out); table solves its
    # rows in one loop, without a thread pool
    code = f"import sys, primeshape.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def pas_run(tmp_path_factory):
    """One `pas -p 5 --frames 200` in a fresh process: its exit code, the
    scipy modules it loaded, and the path of its report."""
    report = tmp_path_factory.mktemp("pas") / "report.json"
    code = (
        "import json, sys; from primeshape.cli import main; "
        f"code = main(['pas', '-p', '5', '--frames', '200', '-o', {str(report)!r}]); "
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "print(json.dumps({'code': code, 'scipy': scipy}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return {**json.loads(out.stdout), "report": report}


def test_pas_leaves_scipy_stats_unloaded(pas_run):
    # the chi-square quantile comes from the standard library, not scipy.stats
    assert pas_run["code"] == 0
    assert "scipy.stats" not in pas_run["scipy"]
    assert pas_run["report"].exists()


def test_pas_loads_no_scipy(pas_run):
    # the chi-square quantile is computed with the standard library, so no
    # scipy module is loaded, scipy.stats among them
    assert pas_run["code"] == 0
    assert pas_run["scipy"] == []
    report = pas_run["report"]
    assert report.exists()
    assert json.loads(report.read_text())["points"]["chi_square_99pct"] > 0.0


def test_chi_square_quantile_matches_scipy():
    # scipy is a test dependency only; the stdlib quantile holds to it within
    # 3e-14 relative.  The gap grows with dof, as the rounding of the terms of
    # dof/2 log x - x - lgamma(dof/2) does: it is 3.3e-15 up to dof 168
    # (13^2 points) and 2.3e-14 at most, at dof 1651.
    gammaincinv = pytest.importorskip("scipy.special").gammaincinv
    dof = np.arange(1, 2000)
    want = 2.0 * gammaincinv(dof / 2.0, 0.99)
    got = np.array([_chi_square_99pct(int(d)) for d in dof])
    np.testing.assert_allclose(got, want, rtol=3e-14, atol=0.0)
    with pytest.raises(ValueError):
        _chi_square_99pct(0)


def test_table_leaves_scipy_optimize_unloaded():
    # the SNR solve (safeguarded Newton) and the nu search (safeguarded
    # secant) are written out by hand
    code = (
        "import sys; from primeshape.cli import main; "
        "code = main(['table', '--mode', 'cqam', '-p', '5', '--rc', '2/3']); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "0 False"
