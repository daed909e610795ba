import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion import intutil
from mqtorsion.intutil import ModelError, crt_pair, factorize, integer_cubic_roots, is_prime
from reference import factorize_by_trial_division, integer_cubic_roots_by_fractions

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

SIZES = st.sampled_from((1, 10, 1000, 10**6, 10**12))
COEFF = SIZES.flatmap(lambda m: st.integers(-m, m))


class TestIntegerCubicRoots:
    @PROPERTY
    @given(COEFF, COEFF, COEFF)
    def test_random_coefficients_match_fraction_cuts(self, a2, a1, a0):
        assert integer_cubic_roots(a2, a1, a0) == integer_cubic_roots_by_fractions(a2, a1, a0)

    @PROPERTY
    @given(st.lists(SIZES.flatmap(lambda m: st.integers(-m, m)), min_size=3, max_size=3), st.sampled_from((0, 1, 2)))
    def test_cubics_from_integer_roots(self, roots, repeats):
        """(x - r1)(x - r2)(x - r3), with a double or triple root when
        `repeats` asks for one: exactly its distinct roots."""
        r1, r2, r3 = roots
        if repeats:
            r2 = r1
        if repeats == 2:
            r3 = r1
        a2, a1, a0 = -(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -r1 * r2 * r3
        got = integer_cubic_roots(a2, a1, a0)
        assert got == sorted({r1, r2, r3}) == integer_cubic_roots_by_fractions(a2, a1, a0)

    def test_near_critical_points(self):
        # x^3 - 3x + 2 = (x - 1)^2 (x + 2): the double root is a critical
        # point; x^3 - x = x(x - 1)(x + 1) has roots on both sides of both
        assert integer_cubic_roots(0, -3, 2) == [-2, 1]
        assert integer_cubic_roots(0, -1, 0) == [-1, 0, 1]
        assert integer_cubic_roots(0, 1, 1) == []


class TestCrtPair:
    @PROPERTY
    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_the_residue_of_both_congruences(self, m1, m2, r1, r2):
        """The one residue mod m1*m2 with both congruences, or ValueError
        when the moduli share a factor."""
        if math.gcd(m1, m2) != 1:
            with pytest.raises(ValueError, match="moduli not coprime"):
                crt_pair(r1, m1, r2, m2)
            return
        x = crt_pair(r1, m1, r2, m2)
        assert 0 <= x < m1 * m2 and (x - r1) % m1 == 0 and (x - r2) % m2 == 0


# primes on both sides of the trial-division bound, and a few far past it
_PRIMES = [p for p in range(2, 1200) if is_prime(p)][::7] + [1021, 1031, 1033, 65537, 999983, 1000003]


class TestFactorize:
    @PROPERTY
    @given(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=6), st.lists(st.sampled_from(_PRIMES), max_size=3))
    def test_matches_trial_division(self, primes, hint):
        """Products of primes below and above the bound, squares among them,
        with and without hint primes: the factorization of trial division
        up to the square root."""
        n = math.prod(primes)
        assert factorize(n, tuple(hint)) == factorize(-n) == factorize_by_trial_division(n)

    def test_past_the_bound(self):
        P = 999999999989
        assert factorize(P * P * 21649 * 513239) == {21649: 1, 513239: 1, P: 2}
        assert factorize((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}
        assert factorize(1031**3 * 1033) == {1031: 3, 1033: 1}

    def test_unfactorable_raises_model_error(self):
        """Two primes of 19 and 27 digits: rho spends its work bound without
        a factor."""
        with pytest.raises(ModelError, match="rho steps"):
            factorize((2**61 - 1) * (2**89 - 1))

    def test_small_inputs_take_trial_division_alone(self, monkeypatch):
        """Below the square of the bound, no cofactor is tested or split."""
        monkeypatch.setattr(intutil, "is_prime", None)
        monkeypatch.setattr(intutil, "_rho", None)
        for n in (1, 2, 997 * 1009, 1021 * 1021 - 2, 2**20 - 1):
            assert intutil._factor.__wrapped__(n, ()) == tuple(sorted(factorize_by_trial_division(n).items()))
