"""Exact integer and rational arithmetic kernel.

Everything in this package is computed exactly: integers are Python's
arbitrary-precision ints, rationals are `fractions.Fraction` values
(always in lowest terms, positive denominator).  This module collects
the combinatorial number functions the identity checkers share.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "binomial",
    "factorial",
    "bernoulli_number",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 outside 0 <= k <= n.

    The out-of-range convention keeps summation loops free of edge-case
    guards; a negative n is still rejected.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return math.factorial(n)


# Bernoulli numbers, "first" convention (B_1 = -1/2).  The cache only ever
# grows and is guarded by a lock, so concurrent callers are safe and always
# see fully computed prefixes.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def _bernoulli_table(k: int) -> list[Fraction]:
    """[B_0, ..., B_k] from the integer tangent numbers T_1..T_{k//2}.

    The in-place tangent triangle T[j] = (j-i) T[j-1] + (j-i+2) T[j] needs
    no gcd (Knuth and Buckholtz, "Computation of tangent, Euler, and
    Bernoulli numbers", 1967; Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", 2013); then
    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)), and the odd B past B_1 are 0.
    """
    half = k // 2
    t = [0, 1] + [0] * (half - 1)  # t[i] = T_i for i >= 1
    for j in range(2, half + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, half + 1):
        for j in range(i, half + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)]
    for i in range(1, half + 1):
        sign = 1 if i % 2 else -1
        table += [Fraction(sign * 2 * i * t[i], 4**i * (4**i - 1)), Fraction(0)]
    return table[: k + 1]


def bernoulli_number(k: int) -> Fraction:
    """B_k; a cache miss builds B_0..B_k in one pass (`_bernoulli_table`).

    B_1 = -1/2 is the convention forced by the closed power-sum formula
    (see powersum.power_sum_via_bernoulli): with B_1 = +1/2 the formula
    would sum k^m through n instead of n - 1.  The table satisfies the
    defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, which the tests
    check.
    """
    if k < 0:
        raise ValueError("bernoulli_number requires k >= 0")
    with _bernoulli_lock:
        if len(_bernoulli_cache) <= k:
            _bernoulli_cache.extend(_bernoulli_table(k)[len(_bernoulli_cache):])
        return _bernoulli_cache[k]
