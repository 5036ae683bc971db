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


def bernoulli_number(k: int) -> Fraction:
    """B_k from the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0.

    The recurrence pins B_1 = -1/2, which is the convention forced by the
    closed power-sum formula (see powersum.power_sum_via_bernoulli): with
    B_1 = +1/2 the formula would sum k^m through n instead of n - 1.
    """
    if k < 0:
        raise ValueError("bernoulli_number requires k >= 0")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= k:
            m = len(_bernoulli_cache)
            acc = sum(binomial(m + 1, j) * _bernoulli_cache[j] for j in range(m))
            _bernoulli_cache.append(-acc / (m + 1))
        return _bernoulli_cache[k]

