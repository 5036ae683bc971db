"""The generalized power-sum identity and its numeric corollaries.

The symbolic identity lives in the x/y families: for m >= 1, r >= 1,

    sum_{k=1}^{m}  Pi_r([k]) y_{k+1}
        =  sum_{U subset [m+1], |U| >= 2}
               ( sum_{nonempty V subset U \\ {max U}}
                   (-1)^{|U| - |V| - 1} Pi_r(V) ) y_{max U}

where Pi_r(P) = prod_{j=1}^{r} ( sum_{i in P} x_i^(j) ).  The inner sum
depends on U only through R = U \\ {max U}, and over all R at once it is
the Moebius transform of Pi_r on the subset lattice of [m]; power_sum_rhs
computes it that way, with 2^m - 1 products Pi_r(V) and m * 2^(m-1)
polynomial subtractions instead of about 3^m products.  It does not assume
that the inner sum vanishes for |U| - 1 > r, which is what the identity
asserts; rhs_inner_sum is the literal per-U sum that tests compare it
against.  An independent route to the same polynomial counts the "good
words": products x_{i_1}^(1) ... x_{i_r}^(r) y_t over all index tuples with
every i_p < t.

The numeric corollaries are the closed forms for 1^m + ... + n^m via
Stirling numbers and via Bernoulli numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .exactnum import bernoulli_number, binomial, factorial
from .poly import Poly, poly_prod, poly_sum, xvar, yvar

__all__ = [
    "sum_product",
    "power_sum_lhs",
    "rhs_inner_sum",
    "power_sum_rhs",
    "good_word_sum",
    "stirling2",
    "stirling2_recurrence",
    "verify_binomial_transform",
    "power_sum_direct",
    "power_sum_below",
    "power_sum_via_stirling",
    "power_sum_via_stirling_prefactored",
    "power_sum_via_bernoulli",
]


def sum_product(indices: Iterable[int], r: int) -> Poly:
    """Pi_r(P): the product over j = 1..r of sum_{i in P} x_i^(j).

    An empty index set gives the zero polynomial (each factor is an empty
    sum).
    """
    if r < 1:
        raise ValueError("sum_product requires r >= 1")
    idx = sorted(set(indices))
    if any(i < 1 for i in idx):
        raise ValueError("indices must be >= 1")
    if not idx:
        return Poly.zero()
    return poly_prod(
        poly_sum(Poly.variable(xvar(i, j)) for i in idx) for j in range(1, r + 1)
    )


def _check_m_r(m: int, r: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")


def power_sum_lhs(m: int, r: int) -> Poly:
    """sum_{k=1}^{m} Pi_r([k]) y_{k+1}."""
    _check_m_r(m, r)
    return poly_sum(
        sum_product(range(1, k + 1), r) * Poly.variable(yvar(k + 1))
        for k in range(1, m + 1)
    )


def rhs_inner_sum(u: Iterable[int], r: int) -> Poly:
    """The signed inner sum attached to one subset U.

    sum over nonempty V subset U \\ {max U} of (-1)^(|U| - |V| - 1) Pi_r(V),
    V ranging over *all* nonempty subsets including U \\ {max U} itself.
    This vanishes whenever |U| - 1 > r, which is what collapses the double
    sum back to the left-hand side.
    """
    uset = sorted(set(u))
    if len(uset) < 2:
        raise ValueError("inner sum needs |U| >= 2")
    rest = uset[:-1]
    usize = len(uset)
    terms = []
    for mask in range(1, 1 << len(rest)):
        v = [rest[b] for b in range(len(rest)) if mask >> b & 1]
        sign = -1 if (usize - len(v) - 1) % 2 else 1
        terms.append(sign * sum_product(v, r))
    return poly_sum(terms)


def power_sum_rhs(m: int, r: int) -> Poly:
    """The double-sum side, over all U subset [m+1] with |U| >= 2.

    g[R] starts as Pi_r(R) for every R subset [m] (bit b of the mask is
    index b + 1, and g[empty] = 0); the in-place subset Moebius transform
    then turns it into sum_{V subset R} (-1)^(|R| - |V|) Pi_r(V), the inner
    sum of every U = R + {t} with max R < t <= m + 1.  That costs 2^m - 1
    products and m * 2^(m-1) subtractions (the fast subset transform of
    Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets Moebius",
    2007).  Nothing assumes the vanishing for |U| - 1 > r; rhs_inner_sum
    is the per-U reference.
    """
    _check_m_r(m, r)
    g = [Poly.zero()]
    for mask in range(1, 1 << m):
        g.append(sum_product([b + 1 for b in range(m) if mask >> b & 1], r))
    for b in range(m):
        bit = 1 << b
        for mask in range(1 << m):
            if mask & bit:
                g[mask] = g[mask] - g[mask ^ bit]
    return poly_sum(
        g[mask] * Poly.variable(yvar(t))
        for mask in range(1, 1 << m)
        for t in range(mask.bit_length() + 1, m + 2)
    )


def good_word_sum(m: int, r: int) -> Poly:
    """Independent oracle: the commutative image of the good words.

    Sums x_{i_1}^(1) * ... * x_{i_r}^(r) * y_t over all tuples with
    1 <= i_p <= m, 2 <= t <= m+1 and every i_p < t.
    """
    _check_m_r(m, r)
    terms = []

    def build(p: int, t: int, mono: Poly) -> None:
        if p > r:
            terms.append(mono * Poly.variable(yvar(t)))
            return
        for i in range(1, t):
            build(p + 1, t, mono * Poly.variable(xvar(i, p)))

    for t in range(2, m + 2):
        build(1, t, Poly.one())
    return poly_sum(terms)


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k), m >= 1, via the closed form.

    S(m, k) = (1/k!) sum_{j=1}^{k} (-1)^(k-j) C(k, j) j^m.  The division is
    checked to be exact; a remainder would mean an internal inconsistency.
    """
    if m < 1:
        raise ValueError("stirling2 requires m >= 1")
    if k < 0:
        raise ValueError("stirling2 requires k >= 0")
    if k == 0:
        return 0
    num = sum((-1) ** (k - j) * binomial(k, j) * j**m for j in range(1, k + 1))
    q, rem = divmod(num, factorial(k))
    if rem:
        raise ArithmeticError(f"inexact division in stirling2({m}, {k})")
    return q


@lru_cache(maxsize=1)
def _stirling2_row(m: int, top: int) -> tuple[int, ...]:
    """(S(m, 0), ..., S(m, top)) from the triangle S(m, k) = k S(m-1, k) +
    S(m-1, k-1); column k needs only columns <= k of the row above, so
    the columns past `top` are never built.  The last row is kept, so a
    lemma21 campaign builds its row once for all its trials; a tuple, so
    no caller can change it."""
    row = [1] + [0] * top  # S(0, 0) = 1
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, top + 1)]
    return tuple(row)


def stirling2_recurrence(m: int, k: int) -> int:
    """S(m, k) from the triangle S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    if m < 0 or k < 0:
        raise ValueError("stirling2_recurrence requires m, k >= 0")
    return _stirling2_row(m, k)[k]


def verify_binomial_transform(alpha: int, c: Sequence[int]) -> bool:
    """Check the binomial-transform power-sum identity on one sequence.

    With m = len(c) and c_1..c_m = c, tests

        sum_{k=1}^{m} k^alpha c_k
            = sum_{j=1}^{m} j! S(alpha, j) sum_{k=j}^{m} C(k, j) c_k.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    m = len(c)
    s = _stirling2_row(alpha, m)
    lhs = sum(k**alpha * c[k - 1] for k in range(1, m + 1))
    rhs = sum(
        factorial(j)
        * s[j]
        * sum(binomial(k, j) * c[k - 1] for k in range(j, m + 1))
        for j in range(1, m + 1)
    )
    return lhs == rhs


def power_sum_direct(m: int, n: int) -> int:
    """1^m + 2^m + ... + n^m, summed literally."""
    if m < 1 or n < 1:
        raise ValueError("power_sum_direct requires m, n >= 1")
    return sum(i**m for i in range(1, n + 1))


def power_sum_below(m: int, n: int) -> int:
    """1^m + ... + (n-1)^m (empty when n = 1)."""
    if m < 1 or n < 1:
        raise ValueError("power_sum_below requires m, n >= 1")
    return sum(k**m for k in range(1, n))


def power_sum_via_stirling(m: int, n: int) -> int:
    """sum_{k=0}^{min(m,n)} C(n+1, k+1) S(m, k) k!  ==  1^m + ... + n^m.

    Note there is no 1/(m+1) prefactor here; a commonly printed variant of
    this formula carries one and is wrong (see
    power_sum_via_stirling_prefactored).
    """
    if m < 1 or n < 1:
        raise ValueError("power_sum_via_stirling requires m, n >= 1")
    top = min(m, n)
    s = _stirling2_row(m, top)
    return sum(
        binomial(n + 1, k + 1) * s[k] * factorial(k) for k in range(0, top + 1)
    )


def power_sum_via_stirling_prefactored(m: int, n: int) -> Fraction:
    """The 1/(m+1)-scaled variant, kept only to document that it fails.

    Already at m = n = 1 it returns 1/2 where the power sum is 1.
    """
    return Fraction(power_sum_via_stirling(m, n), m + 1)


def power_sum_via_bernoulli(m: int, n: int) -> Fraction:
    """(1/(m+1)) sum_{k=0}^{m} C(m+1, k) B_k n^(m+1-k)  ==  1^m + ... + (n-1)^m.

    Always integer-valued; returned as a Fraction so the exactness is
    checkable by the caller.
    """
    if m < 1 or n < 1:
        raise ValueError("power_sum_via_bernoulli requires m, n >= 1")
    bernoulli_number(m)  # one table build for B_0..B_m, not one per miss
    acc = sum(
        binomial(m + 1, k) * bernoulli_number(k) * n ** (m + 1 - k)
        for k in range(m + 1)
    )
    return acc / (m + 1)
