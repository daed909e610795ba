import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion.intutil import crt_pair, integer_cubic_roots
from reference import integer_cubic_roots_by_fractions

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
