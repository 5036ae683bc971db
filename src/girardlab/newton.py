"""The colored Newton-Girard identity, on digraphs and on alphabets.

Write ell(p, S) for the signed linear-subdigraph sum and c(q, T) for the
closed-walk sum of a colored digraph g with n vertices and k colors.  The
walk/cycle identity states, for every r >= 1,

    sum over disjoint color sets S, T with |S| + |T| = r, T nonempty, of
    c(|T|, T) * ell(|S|, S)  +  r * sum_{|S| = r} ell(r, S)  =  0.

It is one formula, as classical Newton-Girard is (e_t = 0 for t > n): a
linear subdigraph covers at most n vertices, so ell(p, .) vanishes for
p > n and the closing term is zero when r > n.  The closing term
aggregates over *all* size-r color sets; the single-set form
r * ell(r, C) with C = {1..k} is only equivalent when k = r (or r > n,
where both are zero), so reports carry both residuals.

The c values come from `enumeration.closed_walk_buckets`, a transfer-matrix
DP that builds no walk; the ell values come from
`enumeration.linear_subdigraph_buckets`, a signed sum over clow sequences
on the same DP step that builds no subdigraph.  On an integer graph both
maps hold ints, and the assembly multiplies ints too.  The residual sums
the (S, T) products into one accumulator (`poly.poly_dot`), so no entry
becomes a `Poly` of its own; the report's breakdown keeps each entry's
two factors and multiplies an entry only when it is read.  Each closing
term becomes a `Poly` once, so a report holds `Poly` values whatever the
weights.

Specializing to the all-loops graph (digraph.self_loop_digraph) turns the
identity into a statement about n alphabets of r symbols a[j]^(1..r), the
multi-alphabet Newton-Girard identity; collapsing a[j]^(i) := a_j for
every i recovers the classical Newton-Girard relations between power sums
and elementary symmetric polynomials, scaled by r!.  One private function
assembles the identity from c and ell maps for both the graph check and
the alphabet check.  The alphabet check takes c in closed form and ell
from the clow DP of the all-loops graph, where every clow is one loop, so
the signed sum is the elementary-symmetric generating function
prod_j (1 - sum_i a[j]^(i) t_i).  The independent halves are c, which the
all-loops cross-check compares key by key with the walk DP, and ell,
which the tests compare with the per-S enumeration `elementary_color_sum`.

A report holds values only.  The notes a run prints (the aggregation
convention, a vacuous r, theorem3's closing sign) are the CLI's, which
writes each of them in one place.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from types import MappingProxyType

from .digraph import ColoredDigraph, self_loop_digraph
from .enumeration import as_poly, closed_walk_buckets, linear_subdigraph_buckets
from .exactnum import factorial
from .poly import Poly, VarId, avar, poly_dot, poly_prod, poly_sum

__all__ = [
    "NewtonReport",
    "total_subdigraph_sum",
    "verify_walk_cycle_identity",
    "elementary_color_sum",
    "verify_colored_newton_girard",
    "cross_check_against_loops",
    "elementary_coefficients",
    "verify_classical_newton_girard",
    "uniform_alpha_assignment",
]

ColorPair = tuple[frozenset[int], frozenset[int]]
# (length, color set) -> sum, as the c and ell maps are keyed
Buckets = Mapping[tuple[int, frozenset[int]], int | Poly]
# (c(|T|, T), ell(|S|, S)): the two factors of one (S, T) entry
Factors = tuple[int | Poly, int | Poly]

@dataclass(frozen=True, eq=False)
class NewtonReport:
    """Outcome of one identity check.

    `breakdown` maps each (S, T) color pair with T nonempty to its
    contribution, multiplied when the entry is read; `residual` is the
    breakdown total plus the aggregated closing term and must be the zero
    polynomial, `literal_residual` uses the single-set closing term
    instead (equal to the aggregated one when k = r, and when r > n, where
    both closing terms are zero).
    """

    case: str  # "r>n" or "r<=n", named in failure records
    breakdown: Mapping[ColorPair, Poly]
    aggregated_correction: Poly
    literal_correction: Poly
    residual: Poly
    literal_residual: Poly

    @property
    def passed(self) -> bool:
        return self.residual.is_zero


def _closing_sum(ell: Buckets, r: int) -> int | Poly:
    """sum over all size-r color sets S of ell(r, S), read off the buckets."""
    return sum(val for (length, _), val in ell.items() if length == r)


class _Products(Mapping):
    """A read-only map from each (S, T) pair to the product of its two
    factors, multiplied each time the entry is read; its length, keys
    and membership cost no product."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[ColorPair, Factors]):
        self._factors = factors

    def __getitem__(self, key: ColorPair) -> Poly:
        return poly_dot((self._factors[key],))

    def __contains__(self, key) -> bool:
        return key in self._factors

    def __iter__(self) -> Iterator[ColorPair]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)


def _split_terms(
    colors: frozenset[int], r: int, c: Buckets, ell: Buckets
) -> dict[ColorPair, Factors]:
    """The factors (c(|T|, T), ell(|S|, S)) of each contribution, for
    disjoint S, T in `colors` with |S| + |T| = r and T nonempty; a key
    missing from a map is a zero sum, and the empty S contributes 1.
    There is no such pair when r exceeds the color count, and a huge r
    then costs nothing."""
    cols = sorted(colors)
    if r > len(cols):
        return {}
    terms: dict[ColorPair, Factors] = {}
    for s_size in range(r):
        t_size = r - s_size
        for s_tuple in combinations(cols, s_size):
            s = frozenset(s_tuple)
            rest = [col for col in cols if col not in s]
            for t_tuple in combinations(rest, t_size):
                t = frozenset(t_tuple)
                ell_val = ell.get((s_size, s), 0) if s_size else 1
                terms[(s, t)] = (c.get((t_size, t), 0), ell_val)
    return terms


def _assemble(
    n: int, colors: frozenset[int], r: int, c: Buckets, ell: Buckets
) -> NewtonReport:
    """The walk/cycle identity at r, built from the c and ell maps of a
    graph with n vertices and color set `colors`: the (S, T) terms with T
    nonempty, closed by r * sum_{|S| = r} ell(r, S) (aggregated) or
    r * ell(r, colors) (literal).  Past n every ell(r, .) is zero, and so
    are both closing terms.
    """
    factors = _split_terms(colors, r, c, ell)
    # Poly.const(r) coerces an int sum, and a constant left factor
    # multiplies a symbolic one without re-sorting its monomials
    aggregated = Poly.const(r) * _closing_sum(ell, r)
    literal = Poly.const(r) * ell.get((r, colors), 0)
    base = poly_dot(factors.values())
    return NewtonReport(
        case="r>n" if r > n else "r<=n",
        breakdown=_Products(factors),
        aggregated_correction=aggregated,
        literal_correction=literal,
        residual=base + aggregated,
        literal_residual=base + literal,
    )


def total_subdigraph_sum(g: ColoredDigraph, r: int) -> Poly:
    """Aggregated closing sum: sum over all size-r color sets S of ell(r, S).

    `perfbench/tracer.py` wraps this function by name, so deleting it breaks
    `--trace 1` and `test_traced_counts_repeat`."""
    if r < 1:
        raise ValueError("total_subdigraph_sum requires r >= 1")
    return as_poly(_closing_sum(linear_subdigraph_buckets(g), r))


def verify_walk_cycle_identity(g: ColoredDigraph, r: int) -> NewtonReport:
    """Check the walk/cycle identity on one graph at one r, with c and ell
    from the two DPs; both closing terms are read off the same ell map as
    the breakdown."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return _assemble(
        g.n, g.color_set(), r, closed_walk_buckets(g), linear_subdigraph_buckets(g)
    )


def elementary_color_sum(n: int, colors: Iterable[int], length: int) -> Poly:
    """Sum over injective color tuples of increasing-vertex products.

    sum over injective (i_1..i_length) from `colors`, and over
    j_1 < ... < j_length in [n], of a[j_1]^(i_1) * ... * a[j_length]^(i_length).
    Length zero gives 1; an impossible pick (length > n or > |colors|)
    gives 0.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return Poly.one()
    cols = sorted(set(colors))
    return poly_sum(
        poly_prod(Poly.variable(avar(j, i)) for j, i in zip(subs, tup))
        for tup in permutations(cols, length)
        for subs in combinations(range(1, n + 1), length)
    )


@lru_cache(maxsize=1)
def _alphabet_walks(r: int, n: int) -> Buckets:
    """The c map of the all-loops graph (n vertices, r colors) in closed
    form, keyed (length, color set) as `closed_walk_buckets` keys its own.

    A closed walk with color set T stays at its root j, one loop per color
    in any order: c(|T|, T) = |T|! * sum_j prod_{i in T} a[j]^(i).  The
    last (r, n) is cached, so one theorem3 run builds the map once for
    `verify_colored_newton_girard` and `cross_check_against_loops`; the
    map is read-only and `Poly` is immutable, so every caller may share it.
    """
    colors = range(1, r + 1)
    return MappingProxyType({
        (size, frozenset(t)): Poly.const(factorial(size)) * poly_sum(
            poly_prod(Poly.variable(avar(j, i)) for i in t) for j in range(1, n + 1)
        )
        for size in colors
        for t in combinations(colors, size)
    })


def verify_colored_newton_girard(r: int, n: int) -> NewtonReport:
    """Check the multi-alphabet Newton-Girard identity symbolically.

    The walk/cycle identity of the all-loops graph, assembled as in
    `verify_walk_cycle_identity` from the closed-form c map of
    `_alphabet_walks` and the ell map of `linear_subdigraph_buckets` on
    `self_loop_digraph(n, r)`: the (S, T) entry with |S| = k is

        (-1)^k * [(r-k)! * sum_j prod_{i in T} a[j]^(i)] * E(n, S, k)

    over k = 0..r-1.  On that graph every clow is one loop, so after head
    j the clow DP holds prod_{j' <= j} (1 - sum_i a[j']^(i) t_i), and
    ell(k, S) = (-1)^k * E(n, S, k) is read off it.  The closing term is
    r * (-1)^r * E(n, [r], r), zero when r > n -- the (-1)^r carries the
    cycle-parity sign of the length-r subdigraph sum, and an unsigned
    closing term would fail for odd r.
    """
    if r < 1 or n < 1:
        raise ValueError("verify_colored_newton_girard requires r, n >= 1")
    ell = linear_subdigraph_buckets(self_loop_digraph(n, r))
    return _assemble(n, frozenset(range(1, r + 1)), r, _alphabet_walks(r, n), ell)


def cross_check_against_loops(r: int, n: int) -> bool:
    """The walk DP of the all-loops graph equals the closed-form c map that
    `verify_colored_newton_girard` assembles, key for key.

    This is the half of theorem3 that two independent routes compute: c
    from `closed_walk_buckets` against the brackets (r-k)! * p_T.  The ell
    map has one route in the program, the clow DP, and the tests hold it
    against the per-S enumeration `elementary_color_sum`.
    """
    return closed_walk_buckets(self_loop_digraph(n, r)) == _alphabet_walks(r, n)


def elementary_coefficients(roots: Sequence[int]) -> list[int]:
    """Signed coefficients e_0..e_n of prod (x - root): x^n + e_1 x^(n-1) + ...."""
    coeffs = [1]
    for root in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += -root * c
        coeffs = nxt
    return coeffs


def verify_classical_newton_girard(roots: Sequence[int], r: int) -> bool:
    """Classical Newton-Girard on integer roots.

    With p_t = sum root^t and e_t the signed coefficients above, padded
    with e_t = 0 for t > n:
    p_r + e_1 p_{r-1} + ... + e_{r-1} p_1 + r e_r = 0 for every r >= 1.
    No e_t past n enters the sum, so a huge r does no extra work on them.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = len(roots)
    if n < 1:
        raise ValueError("need at least one root")
    p = [n] + [0] * r
    for root in roots:
        power = 1
        for t in range(1, r + 1):
            power *= root
            p[t] += power
    e = elementary_coefficients(roots) + [0] * (r - n)
    value = p[r] + sum(e[t] * p[r - t] for t in range(1, min(r, n + 1))) + r * e[r]
    return value == 0


def uniform_alpha_assignment(r: int, n: int, roots: Sequence[int]) -> dict[VarId, int]:
    """The collapse a[j]^(i) := roots[j-1] for all i in [r], j in [n]."""
    if len(roots) != n:
        raise ValueError("need exactly n root values")
    return {
        avar(j, i): roots[j - 1] for j in range(1, n + 1) for i in range(1, r + 1)
    }
