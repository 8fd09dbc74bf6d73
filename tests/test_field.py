import pytest

from primeshape.field import Prime, ask_amplitudes, is_prime


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
