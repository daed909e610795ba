"""Integer arithmetic helpers shared across the package.

Everything here is exact: no floating point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Trial division stops below this bound; what is left is split by is_prime,
# isqrt and Pollard-Brent rho.
_TRIAL_BOUND = 1 << 10
# The squarings mod a piece that rho may spend on one number.
_RHO_WORK = 1 << 18


class ModelError(ValueError):
    """A model, or a number it gives, that the package cannot work with."""


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


def factorize(n: int) -> dict[int, int]:
    """Factor |n| (`_factor`).  Each call returns a fresh dict, so a caller
    may change it."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return dict(_factor(abs(n)))


@lru_cache(maxsize=256)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The sorted (prime, exponent) pairs of n > 0, memoised: one run factors
    the same group orders and discriminants many times.

    Trial division by p = 2, 3, 5, 7, ... while p^2 <= n and
    p < _TRIAL_BOUND, so an n below _TRIAL_BOUND^2 is factored by trial
    division alone.  Every prime factor of what is left is then at
    least the last p, so a piece m of it is prime when m < p^2 or
    `is_prime(m)`; otherwise it splits as r * r for r = isqrt(m) when that
    is exact, and else by `_rho`.  Rho may spend _RHO_WORK squarings on n,
    and raises ModelError past them, so every call ends."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p < _TRIAL_BOUND:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    pieces, work = [n] if n > 1 else [], _RHO_WORK
    while pieces:
        m = pieces.pop()
        if m < p * p or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            d = r
        else:
            d, work = _rho(m, work)
        pieces += [d, m // d]
    return tuple(sorted(out.items()))


def _rho(m: int, work: int) -> tuple[int, int]:
    """(d, work left): a proper divisor d of the odd composite m, by
    Pollard's rho with Brent's cycle search and gcds batched over 64 steps,
    on x -> x^2 + c for c = 1, 2, ... from x = 2, all fixed.  Each squaring
    mod m costs one unit of work; ModelError when none is left."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 64
            work -= 2 * r
            if work < 0:
                raise ModelError(f"no factor of a {len(str(m))}-digit number within {_RHO_WORK} rho steps")
            r *= 2
        if g == m:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g, work


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


def rational_is_square(x: int | Fraction) -> bool:
    return x >= 0 and is_square(x.numerator) and is_square(x.denominator)


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


def rational_reconstruct(r: int, m: int) -> int | Fraction | None:
    """Find a/b = r (mod m) with |a|, b <= sqrt(m/2), b coprime to m; None if
    absent.  An element of `poly.QQ`: an int when b divides a."""
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
    return a // b if a % b == 0 else Fraction(a, b)


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
