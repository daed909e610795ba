"""Integer arithmetic helpers shared across the package.

Everything here is exact: no floating point except where explicitly noted
(cubic root isolation, which is always followed by integer verification).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond any input this package sees)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, hint: tuple[int, ...] = ()) -> dict[int, int]:
    """Factor |n| by trial division.  `hint` primes are tried first, which keeps
    twist discriminants (known prime support) cheap.  Each call returns a
    fresh dict, so a caller may change it."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return dict(_factor(abs(n), tuple(hint)))


@lru_cache(maxsize=256)
def _factor(n: int, hint: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The sorted (prime, exponent) pairs of n > 0, memoised: one run factors
    the same group orders and discriminants many times."""
    out: dict[int, int] = {}
    for p in hint:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def squarefree_part(n: int) -> int:
    """Squarefree part of a nonzero integer (sign preserved)."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def rational_is_square(x: Fraction) -> bool:
    return x >= 0 and is_square(x.numerator) and is_square(x.denominator)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None."""
    if x < 0:
        return None
    a = math.isqrt(x.numerator)
    b = math.isqrt(x.denominator)
    if a * a == x.numerator and b * b == x.denominator:
        return Fraction(a, b)
    return None


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2s of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi on odd n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    g, x, _ = ext_gcd(m1, m2)
    if g != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Find a/b = r (mod m) with |a|, b <= sqrt(m/2), b coprime to m; None if absent."""
    r %= m
    bound = math.isqrt(m // 2)
    v0, v1 = (m, 0), (r, 1)
    while v1[0] > bound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    a, b = v1[0], v1[1]
    if b < 0:
        a, b = -a, -b
    if b == 0 or b > bound or math.gcd(b, m) != 1:
        return None
    if (a - r * b) % m != 0:
        return None
    return Fraction(a, b)


def integer_cubic_roots(a2: int, a1: int, a0: int) -> list[int]:
    """All integer roots of x^3 + a2 x^2 + a1 x + a0, exactly.

    Splits the line at the critical points of the cubic (bracketed by exact
    rationals), then runs integer bisection on each monotone piece.
    """

    def f(x: int) -> int:
        return ((x + a2) * x + a1) * x + a0

    bound = 2 + max(abs(a2), abs(a1), abs(a0))
    roots: set[int] = set()
    # critical points of f: roots of 3x^2 + 2 a2 x + a1
    disc = a2 * a2 - 3 * a1
    # monotone segments [lo, hi] in Fractions, plus stray integers near criticals
    cuts: list[Fraction] = [Fraction(-bound), Fraction(bound)]
    if disc >= 0:
        r = math.isqrt(disc)
        cuts += [
            Fraction(-a2 - r - 1, 3),
            Fraction(-a2 - r, 3),
            Fraction(-a2 + r, 3),
            Fraction(-a2 + r + 1, 3),
        ]
        # the two critical brackets have width 1/3: test their nearby integers
        for num in (-a2 - r, -a2 + r):
            base = num // 3
            for d in (-1, 0, 1, 2):
                x = base + d
                if abs(x) <= bound and f(x) == 0:
                    roots.add(x)
    cuts = sorted(set(cuts))
    for a, b in zip(cuts, cuts[1:]):
        lo = math.ceil(a)
        hi = math.floor(b)
        if lo > hi:
            continue
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            roots.add(lo)
        if fhi == 0:
            roots.add(hi)
        if flo * fhi < 0:
            # f monotone here apart from the (already handled) critical slivers
            while hi - lo > 1:
                mid = (lo + hi) // 2
                fm = f(mid)
                if fm == 0:
                    roots.add(mid)
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi, fhi = mid, fm
    return sorted(r for r in roots if f(r) == 0)
