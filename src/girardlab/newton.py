"""The colored Newton-Girard identity, on digraphs and on alphabets.

Write ell(p, S) for the signed linear-subdigraph sum and c(q, T) for the
closed-walk sum of a colored digraph g with n vertices and k colors.  The
walk/cycle identity states, for r >= 1:

* case r > n:   sum over disjoint color sets S, T with |S| + |T| = r of
                c(|T|, T) * ell(|S|, S)  =  0   (the T = empty convention
                term included), and
* case r <= n:  the same sum restricted to T nonempty, plus
                r * sum_{|S| = r} ell(r, S),  =  0.

The closing term aggregates over *all* size-r color sets; the single-set
form r * ell(r, C) with C = {1..k} is only equivalent when k = r, so
reports carry both residuals.

The c values come from `enumeration.closed_walk_buckets`, a transfer-matrix
DP that builds no walk; the ell values come from
`enumeration.linear_subdigraph_buckets`, a row expansion of
det(I - sum_c t_c A_c) that builds no subdigraph.

Specializing to the all-loops graph (digraph.self_loop_digraph) turns the
identity into a statement about n alphabets of r symbols a[j]^(1..r), the
multi-alphabet Newton-Girard identity; collapsing a[j]^(i) := a_j for
every i recovers the classical Newton-Girard relations between power sums
and elementary symmetric polynomials, scaled by r!.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

from .digraph import ColoredDigraph, self_loop_digraph
from .enumeration import closed_walk_buckets, linear_subdigraph_buckets
from .exactnum import factorial
from .poly import Poly, VarId, avar, poly_prod, poly_sum

__all__ = [
    "NewtonReport",
    "color_split_sum",
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


@dataclass(frozen=True, eq=False)
class NewtonReport:
    """Outcome of one identity check.

    `breakdown` maps each (S, T) color pair to its contribution;
    `residual` is the breakdown total plus the aggregated closing term and
    must be the zero polynomial, `literal_residual` uses the single-set
    closing term instead (equal to the aggregated one when k = r, and in
    the r > n case where no closing term exists at all).
    """

    case: str  # "r>n" or "r<=n"
    r: int
    breakdown: Mapping[ColorPair, Poly]
    aggregated_correction: Poly
    literal_correction: Poly
    residual: Poly
    literal_residual: Poly
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.residual.is_zero


def _closing_sum(ell: Mapping[tuple[int, frozenset[int]], Poly], r: int) -> Poly:
    """sum over all size-r color sets S of ell(r, S), read off the buckets."""
    return poly_sum(val for (length, _), val in ell.items() if length == r)


def _split_terms(
    g: ColoredDigraph,
    r: int,
    ell: Mapping[tuple[int, frozenset[int]], Poly],
    include_empty_walk: bool,
) -> dict[ColorPair, Poly]:
    """Contributions c(|T|, T) * ell(|S|, S) for disjoint S, T summing to r.

    c comes from `closed_walk_buckets` (a transfer-matrix DP, no walk is
    built); ell is read off the caller's `linear_subdigraph_buckets` (a
    determinant DP, no subdigraph is built).
    """
    cwk = closed_walk_buckets(g)
    colors = sorted(g.color_set())
    terms: dict[ColorPair, Poly] = {}
    for s_size in range(0, r + 1):
        t_size = r - s_size
        if s_size > len(colors):
            continue
        for s_tuple in combinations(colors, s_size):
            s = frozenset(s_tuple)
            rest = [c for c in colors if c not in s]
            if t_size > len(rest):
                continue
            if t_size == 0 and not include_empty_walk:
                continue
            for t_tuple in combinations(rest, t_size):
                t = frozenset(t_tuple)
                ell_val = Poly.one() if s_size == 0 else ell.get((s_size, s), Poly.zero())
                c_val = Poly.one() if t_size == 0 else cwk.get((t_size, t), Poly.zero())
                terms[(s, t)] = c_val * ell_val
    return terms


def color_split_sum(g: ColoredDigraph, r: int) -> Poly:
    """The full double sum over disjoint (S, T) with |S| + |T| = r,
    the empty-walk convention term included.  This is the quantity that
    vanishes outright when r > n."""
    if r < 1:
        raise ValueError("color_split_sum requires r >= 1")
    ell = linear_subdigraph_buckets(g)
    return poly_sum(_split_terms(g, r, ell, include_empty_walk=True).values())


def total_subdigraph_sum(g: ColoredDigraph, r: int) -> Poly:
    """Aggregated closing sum: sum over all size-r color sets S of ell(r, S)."""
    if r < 1:
        raise ValueError("total_subdigraph_sum requires r >= 1")
    return _closing_sum(linear_subdigraph_buckets(g), r)


def verify_walk_cycle_identity(g: ColoredDigraph, r: int) -> NewtonReport:
    """Check the walk/cycle identity on one graph at one r.

    Both closing terms are read off the same (length, color set) buckets
    as the breakdown.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    ell = linear_subdigraph_buckets(g)
    notes: list[str] = []
    if r > g.colors:
        notes.append(f"vacuous: r={r} exceeds color count k={g.colors}")
    if r > g.n:
        breakdown = _split_terms(g, r, ell, include_empty_walk=True)
        zero = Poly.zero()
        residual = poly_sum(breakdown.values())
        return NewtonReport(
            case="r>n",
            r=r,
            breakdown=breakdown,
            aggregated_correction=zero,
            literal_correction=zero,
            residual=residual,
            literal_residual=residual,
            notes=tuple(notes),
        )
    breakdown = _split_terms(g, r, ell, include_empty_walk=False)
    base = poly_sum(breakdown.values())
    aggregated = Poly.const(r) * _closing_sum(ell, r)
    literal = Poly.const(r) * ell.get((r, g.color_set()), Poly.zero())
    notes.append(
        "closing term aggregates ell(r, S) over all size-r color sets; "
        "the single-set ell(r, C) form matches only when k = r"
    )
    return NewtonReport(
        case="r<=n",
        r=r,
        breakdown=breakdown,
        aggregated_correction=aggregated,
        literal_correction=literal,
        residual=base + aggregated,
        literal_residual=base + literal,
        notes=tuple(notes),
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


def _elementary_buckets(n: int, r: int) -> dict[frozenset[int], Poly]:
    """S -> E(n, S, |S|) for every color set S in [r] with |S| <= n.

    E(n, S, |S|) is the coefficient of t^S in
    prod_{j <= n} (1 + sum_{i <= r} a[j]^(i) t_i) over t_i^2 = 0, the
    generating function of the elementary symmetric functions (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2).  The product is a DP
    over color masks: factor j keeps every bucket and moves it to
    mask | i with the weight a[j]^(i) for each unused color i.  A set with
    |S| > n has no key.  Factor j costs |S| products per bucket, so all
    2^r buckets come from one pass instead of one enumeration per S.
    """
    colors = range(1, r + 1)
    layer = {0: Poly.one()}
    for j in range(1, n + 1):
        step = [(1 << i, Poly.variable(avar(j, i))) for i in colors]
        parts = {mask: [val] for mask, val in layer.items()}
        for mask, val in layer.items():
            for bit, weight in step:
                if not mask & bit:
                    parts.setdefault(mask | bit, []).append(val * weight)
        layer = {mask: poly_sum(vals) for mask, vals in parts.items()}
    return {
        frozenset(i for i in colors if mask >> i & 1): val
        for mask, val in layer.items()
    }


def verify_colored_newton_girard(r: int, n: int) -> NewtonReport:
    """Check the multi-alphabet Newton-Girard identity symbolically.

    Assembles, over k = 0..r (or 0..r-1 when r <= n), the terms

        (-1)^k * [(r-k)! * sum_j prod_{i in T} a[j]^(i)] * E(n, S, k)

    where T runs over the (r-k)-subsets of [r], S is its complement and
    E(n, S, k) is the coefficient of t^S in the generating function
    prod_j (1 + sum_i a[j]^(i) t_i), read off `_elementary_buckets`; the
    k = r bracket (T empty) is 1, matching the empty-walk convention.  For
    r <= n the closing term is r * (-1)^r * E(n, [r], r) -- the (-1)^r
    carries the cycle-parity sign of the length-r subdigraph sum, and an
    unsigned closing term would fail for odd r.  The breakdown matches,
    entry for entry, the walk/cycle identity on the all-loops graph.

    Independence: on the all-loops graph `linear_subdigraph_buckets` only
    takes diagonal moves, so its ell DP and the E buckets run the same
    recursion up to sign.  The independent halves are c (the walk DP)
    against the closed-form brackets (r-k)! * p_T here, and the E buckets
    against the per-S enumeration `elementary_color_sum` in the tests.
    """
    if r < 1 or n < 1:
        raise ValueError("verify_colored_newton_girard requires r, n >= 1")
    colors = list(range(1, r + 1))
    case_one = r > n
    k_top = r if case_one else r - 1
    elementary = _elementary_buckets(n, r)
    zero = Poly.zero()
    breakdown: dict[ColorPair, Poly] = {}
    for k in range(0, k_top + 1):
        sign = -1 if k % 2 else 1
        for t_tuple in combinations(colors, r - k):
            t = frozenset(t_tuple)
            s = frozenset(colors) - t
            if t:
                bracket = Poly.const(factorial(r - k)) * poly_sum(
                    poly_prod(Poly.variable(avar(j, i)) for i in sorted(t))
                    for j in range(1, n + 1)
                )
            else:
                bracket = Poly.one()
            breakdown[(s, t)] = Poly.const(sign) * bracket * elementary.get(s, zero)
    base = poly_sum(breakdown.values())
    notes = (
        "closing term r*E(n, [r], r) enters with sign (-1)^r "
        "(cycle parity of the length-r subdigraph sum)",
    )
    if case_one:
        return NewtonReport(
            case="r>n",
            r=r,
            breakdown=breakdown,
            aggregated_correction=zero,
            literal_correction=zero,
            residual=base,
            literal_residual=base,
            notes=notes,
        )
    closing_sign = -1 if r % 2 else 1
    closing = Poly.const(r * closing_sign) * elementary[frozenset(colors)]
    return NewtonReport(
        case="r<=n",
        r=r,
        breakdown=breakdown,
        aggregated_correction=closing,
        literal_correction=closing,
        residual=base + closing,
        literal_residual=base + closing,
        notes=notes,
    )


def cross_check_against_loops(
    r: int, n: int, *, symbolic: NewtonReport | None = None
) -> bool:
    """The two verification paths agree term for term on the all-loops graph.

    `symbolic` is `verify_colored_newton_girard(r, n)` when the caller
    already holds it; otherwise it is computed here.
    """
    if symbolic is None:
        symbolic = verify_colored_newton_girard(r, n)
    graphical = verify_walk_cycle_identity(self_loop_digraph(n, r), r)
    return (
        symbolic.breakdown == dict(graphical.breakdown)
        and symbolic.residual == graphical.residual
    )


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

    With p_t = sum root^t (p_0 = n) and e_t the signed coefficients above:
    p_r + e_1 p_{r-1} + ... + e_n p_{r-n} = 0 when r > n, and
    p_r + e_1 p_{r-1} + ... + e_{r-1} p_1 + r e_r = 0 when r <= n.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = len(roots)
    if n < 1:
        raise ValueError("need at least one root")
    p = [sum(root**t for root in roots) for t in range(r + 1)]
    p[0] = n
    e = elementary_coefficients(roots)
    if r > n:
        value = p[r] + sum(e[t] * p[r - t] for t in range(1, n + 1))
    else:
        value = p[r] + sum(e[t] * p[r - t] for t in range(1, r)) + r * e[r]
    return value == 0


def uniform_alpha_assignment(r: int, n: int, roots: Sequence[int]) -> dict[VarId, int]:
    """The collapse a[j]^(i) := roots[j-1] for all i in [r], j in [n]."""
    if len(roots) != n:
        raise ValueError("need exactly n root values")
    return {
        avar(j, i): roots[j - 1] for j in range(1, n + 1) for i in range(1, r + 1)
    }
