"""Exact arithmetic in the prime field of odd characteristic.

Downstream geometry stores field elements as plain ints reduced into
[0, p).  This module owns validation of the modulus, the Legendre symbol
and the scalar inverse.
"""

from __future__ import annotations

MAX_MODULUS = 1 << 31

# Witnesses 2, 3, 5, 7 make Miller-Rabin deterministic below 3_215_031_751,
# which covers the whole admissible modulus range.
_MR_WITNESSES = (2, 3, 5, 7)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n < 3_215_031_751."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """Odd prime modulus in [3, 2**31).  Usable anywhere a plain int is."""

    def __new__(cls, p) -> "Prime":
        p = int(p)
        if p == 2:
            raise ValueError("modulus 2 is rejected: the geometry needs odd characteristic")
        if not 3 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must lie in [3, 2**31), got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        return super().__new__(cls, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion: 0 for 0, 1 for nonzero squares, -1 otherwise."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p.  Raises ZeroDivisionError for a == 0."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)
