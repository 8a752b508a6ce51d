from math import gcd as math_gcd

import pytest
from hypothesis import given, strategies as st

from latindist import ParameterError, mod1n, residue_orbit


def test_mod1n_examples():
    assert mod1n(0, 5) == 5
    assert mod1n(13, 9) == 4
    assert mod1n(-4, 11) == 7
    assert mod1n(7, 7) == 7
    assert mod1n(1, 1) == 1


def test_mod1n_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        mod1n(3, 0)
    with pytest.raises(ParameterError):
        mod1n(3, -2)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_mod1n_is_a_congruent_representative_in_window(a, n):
    r = mod1n(a, n)
    assert 1 <= r <= n
    assert (a - r) % n == 0


def test_residue_orbit_examples():
    assert residue_orbit(1, 4, 9) == [1, 5, 9, 4, 8, 3, 7, 2, 6]
    assert residue_orbit(1, 1, 4) == [1, 2, 3, 4]
    assert residue_orbit(1, 3, 9) == [1, 4, 7, 1, 4, 7, 1, 4, 7]
    with pytest.raises(ParameterError):
        residue_orbit(1, 2, 0)


def test_coprime_steps_visit_every_residue():
    # sweep: any start and any step coprime to n hits all of {1..n}
    for n in range(1, 31):
        for k in range(1, n + 1):
            if math_gcd(k, n) != 1:
                continue
            for a in range(1, n + 1):
                assert set(residue_orbit(a, k, n)) == set(range(1, n + 1)), (n, k, a)


def test_half_of_n_minus_a_shares_exactly_a_with_n():
    # for odd widths b, gcd(a*b, (a*b - a)/2) comes out to a
    for a in range(1, 13):
        for b in range(3, 14, 2):
            n = a * b
            assert math_gcd(n, (n - a) // 2) == a, (a, b)


def test_orbit_period_is_n_over_gcd():
    for n in range(1, 21):
        for step in range(0, n + 1):
            orbit = residue_orbit(1, step, n)
            period = n // math_gcd(step, n)
            for m in range(n):
                assert orbit[m] == orbit[m % period]
            assert len(set(orbit[:period])) == period
