import numpy as np
import pytest

from primeshape.constellations import Constellation, ShellStructure
from primeshape.field import Prime, ask_amplitudes, is_prime
from primeshape.pas import CodeSpec
from primeshape.shaping import MaxwellBoltzmann
from primeshape.sumdist import SymbolDistribution


# ---------------------------------------------------------------------------
# primality / construction
# ---------------------------------------------------------------------------


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_prime_accepts_primes(p):
    assert Prime(p).p == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 21, -7])
def test_prime_rejects_composites(bad):
    with pytest.raises(ValueError):
        Prime(bad)


# ---------------------------------------------------------------------------
# ASK embedding
# ---------------------------------------------------------------------------


def test_ask_point_examples():
    assert ask_amplitudes(Prime(7)).tolist() == [0, 1, 2, 3, -3, -2, -1]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_ask_embedding_is_a_bijection(p):
    images = ask_amplitudes(Prime(p)).tolist()
    half = (p - 1) // 2
    assert sorted(images) == list(range(-half, half + 1))
    # each amplitude is congruent to its symbol: x = s (mod p)
    for s, x in enumerate(images):
        assert x % p == s


def test_ask_point_rejects_even_prime():
    with pytest.raises(ValueError):
        ask_amplitudes(Prime(2))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda v: CodeSpec(Prime(5), 6, 4, v), "parity", [[1, 2], [3, 0], [4, 4], [2, 1]]),
        (lambda v: ShellStructure(v, np.zeros(3)), "radii", [1.0, 2.0, 3.0]),
        (lambda v: ShellStructure(np.ones(3), v), "phases", [0.0, 0.1, 0.2]),
        (lambda v: Constellation(v, np.full(2, 0.5)), "points", [1.0 + 1.0j, -1.0 - 1.0j]),
        (lambda v: Constellation(np.array([1.0, -1.0]), v), "priors", [0.25, 0.75]),
        (lambda v: MaxwellBoltzmann(v, np.full(2, 0.5)), "amplitudes", [1.0, 2.0]),
        (lambda v: MaxwellBoltzmann(np.ones(2), v), "probs", [0.25, 0.75]),
        (lambda v: SymbolDistribution(Prime(2), v), "probs", [0.25, 0.75]),
    ],
    ids=[
        "CodeSpec.parity", "ShellStructure.radii", "ShellStructure.phases",
        "Constellation.points", "Constellation.priors", "MaxwellBoltzmann.amplitudes",
        "MaxwellBoltzmann.probs", "SymbolDistribution.probs",
    ],
)
def test_array_fields_are_read_only_copies(make, name, value):
    given = np.array(value)
    stored = getattr(make(given), name)
    kept = stored.copy()
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = stored[-1]
    given[0] = given[-1]  # the caller's array is its own
    assert np.array_equal(stored, kept)
