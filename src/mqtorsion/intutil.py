"""Integer arithmetic helpers shared across the package.

Everything here is exact: no floating point.
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
    try:
        x = pow(m1, -1, m2)
    except ValueError:
        raise ValueError("moduli not coprime") from None
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


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
    """All integer roots of f = x^3 + a2 x^2 + a1 x + a0, exactly, on
    integers alone.

    Every root has |x| < bound = 2 + max |a_i| (Cauchy).  f' = 3x^2 +
    2 a2 x + a1 vanishes at c = (-a2 -+ sqrt(disc))/3, disc = a2^2 - 3 a1;
    with r = isqrt(disc), r <= sqrt(disc) < r + 1, so c- lies in
    [floor((-a2 - r - 1)/3), ceil((-a2 - r)/3)] and c+ in
    [floor((-a2 + r)/3), ceil((-a2 + r + 1)/3)], each bracket holding at
    most three integers, which are tested.  f is monotone on each piece of
    [-bound, bound] outside the open brackets (on all of it if disc < 0),
    so each piece holds at most one root, found by integer bisection.
    """

    def f(x: int) -> int:
        return ((x + a2) * x + a1) * x + a0

    bound = 2 + max(abs(a2), abs(a1), abs(a0))
    disc = a2 * a2 - 3 * a1
    if disc < 0:
        pieces, brackets = [(-bound, bound)], ()
    else:
        r = math.isqrt(disc)
        lo1, hi1 = (-a2 - r - 1) // 3, -((a2 + r) // 3)
        lo2, hi2 = (-a2 + r) // 3, -((a2 - r - 1) // 3)
        pieces = [(-bound, lo1), (hi1, lo2), (hi2, bound)]
        brackets = (*range(lo1, hi1 + 1), *range(lo2, hi2 + 1))
    roots = {x for x in brackets if f(x) == 0}
    for lo, hi in pieces:  # an empty piece, lo > hi, adds only exact roots
        flo, fhi = f(lo), f(hi)
        roots.update(x for x, fx in ((lo, flo), (hi, fhi)) if fx == 0)
        while flo * fhi < 0 and hi - lo > 1:
            mid = (lo + hi) // 2
            fm = f(mid)
            if fm == 0:
                roots.add(mid)
                break
            lo, hi = (mid, hi) if (fm < 0) == (flo < 0) else (lo, mid)
    return sorted(roots)
