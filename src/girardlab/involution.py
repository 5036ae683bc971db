"""The sign-reversing involution behind the walk/cycle identity.

A *pair* couples a closed colored walk w (length >= 1) with a linear
subdigraph gamma (possibly empty) such that L(w) + L(gamma) = r and the
two color sets are disjoint.  Its weight is

    (-1)^(cycle count of gamma) * W(w) * W(gamma).

A pair is GOOD when w is vertex-disjoint from gamma *and* simple (no
vertex twice except the root closing the walk); otherwise it is BAD.

`involute` matches the BAD pairs in weight-cancelling couples.  Scan the
walk's vertices v_0, v_1, ... in order; at each vertex test first whether
it lies on gamma (case 1), then whether it closes a cycle against an
earlier walk vertex (case 2).  The root v_0 is tested against gamma at
time 0.

* case 1 at vertex y: splice gamma's cycle through y into the walk
  (prefix to y, then the cycle traversed from y, then the suffix) and
  delete that cycle from gamma.
* case 2: excise the first completed cycle from the walk and add it to
  gamma.

Both moves flip the cycle count's parity, hence the sign; applying the
map twice returns the original pair.  The GOOD pairs do not cancel: for
r <= n each linear subdigraph with exactly r edges owns exactly r of them
(root its cycles at each of its r vertices), which is what produces the
r * ell closing term of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .digraph import ColoredDigraph
from .enumeration import (
    EMPTY_SUBDIGRAPH,
    Edge,
    LinearSubdigraph,
    Walk,
    closed_walks,
    linear_subdigraphs,
    make_subdigraph,
)
from .newton import verify_walk_cycle_identity
from .poly import Poly, poly_sum

__all__ = [
    "GOOD",
    "BAD",
    "WalkGammaPair",
    "walk_concat",
    "classify",
    "involute",
    "underlying_subdigraph",
    "enumerate_pairs",
    "InvolutionAudit",
    "audit_involution",
]

GOOD = "GOOD"
BAD = "BAD"


@dataclass(frozen=True)
class WalkGammaPair:
    """A closed walk and a color-disjoint linear subdigraph."""

    walk: Walk
    gamma: LinearSubdigraph

    @property
    def total_length(self) -> int:
        return self.walk.length + self.gamma.length

    def weight(self, g: ColoredDigraph) -> Poly:
        sign = -1 if self.gamma.cycle_count % 2 else 1
        return Poly.const(sign) * self.walk.weight(g) * self.gamma.weight(g)


def walk_concat(w1: Walk, w2: Walk) -> Walk:
    """Concatenate two walks; w1 must end where w2 starts."""
    if w1.end != w2.start:
        raise ValueError(
            f"cannot concatenate: first walk ends at {w1.end}, "
            f"second starts at {w2.start}"
        )
    return Walk(w1.start, w1.steps + w2.steps)


def classify(pair: WalkGammaPair) -> str:
    """GOOD iff the walk avoids gamma's vertices and is simple."""
    w = pair.walk
    if w.colors & pair.gamma.colors:
        raise ValueError("pair invariant broken: overlapping color sets")
    disjoint = not (set(w.vertex_seq()) & pair.gamma.vertices)
    return GOOD if disjoint and w.is_simple else BAD


def _cycle_rooted_steps(cycle: tuple[Edge, ...], root: int) -> tuple[tuple[int, int], ...]:
    """The cycle as walk steps, traversed once starting from `root`."""
    tails = [e[0] for e in cycle]
    pivot = tails.index(root)
    rotated = cycle[pivot:] + cycle[:pivot]
    return tuple((head, color) for _, head, color in rotated)


def involute(pair: WalkGammaPair) -> WalkGammaPair:
    """The weight-negating partner of a BAD pair.

    Raises ValueError on a GOOD pair (the map is only defined on BAD
    ones).
    """
    if classify(pair) == GOOD:
        raise ValueError("involution is undefined on GOOD pairs")
    w = pair.walk
    gamma = pair.gamma
    gamma_vertices = gamma.vertices
    seq = w.vertex_seq()
    first_seen: dict[int, int] = {}
    for i, v in enumerate(seq):
        if v in gamma_vertices:
            # case 1: splice the cycle through v into the walk
            cycle = gamma.cycle_containing(v)
            new_steps = w.steps[:i] + _cycle_rooted_steps(cycle, v) + w.steps[i:]
            remaining = tuple(c for c in gamma.cycles if c != cycle)
            return WalkGammaPair(Walk(w.start, new_steps), LinearSubdigraph(remaining))
        if v in first_seen:
            # case 2: excise the first completed cycle
            j = first_seen[v]
            cycle_edges = tuple(
                (seq[t], seq[t + 1], w.steps[t][1]) for t in range(j, i)
            )
            new_steps = w.steps[:j] + w.steps[i:]
            new_gamma = make_subdigraph(list(gamma.cycles) + [cycle_edges])
            return WalkGammaPair(Walk(w.start, new_steps), new_gamma)
        first_seen[v] = i
    raise AssertionError("BAD pair produced no case; classification is broken")


def underlying_subdigraph(pair: WalkGammaPair) -> LinearSubdigraph:
    """For a GOOD pair: gamma together with the walk's own cycle."""
    if classify(pair) != GOOD:
        raise ValueError("only GOOD pairs have an underlying subdigraph")
    walk_cycle = tuple(pair.walk.edges())
    return make_subdigraph(list(pair.gamma.cycles) + [walk_cycle])


def enumerate_pairs(
    g: ColoredDigraph,
    r: int,
    *,
    subdigraphs: Sequence[LinearSubdigraph] | None = None,
) -> list[WalkGammaPair]:
    """All pairs with total length r, walk length >= 1, disjoint colors.

    The length-zero walk has no object form; its would-be contribution is
    exactly the ell(r, S) convention terms, which the audit and the
    identity checker add analytically.  `subdigraphs` is the full
    `linear_subdigraphs(g)` list when the caller already holds it.
    """
    if r < 1:
        raise ValueError("enumerate_pairs requires r >= 1")
    if subdigraphs is None:
        subdigraphs = linear_subdigraphs(g)
    gammas_by_length: dict[int, list[LinearSubdigraph]] = {}
    for gamma in subdigraphs:
        if gamma.length < r:
            gammas_by_length.setdefault(gamma.length, []).append(gamma)
    walks_by_length: dict[int, list[Walk]] = {}
    for w in closed_walks(g, max_length=r):  # one pass for every length
        walks_by_length.setdefault(w.length, []).append(w)
    pairs: list[WalkGammaPair] = []
    for q in range(1, r + 1):
        for w in walks_by_length.get(q, []):
            if q == r:
                pairs.append(WalkGammaPair(w, EMPTY_SUBDIGRAPH))
                continue
            for gamma in gammas_by_length.get(r - q, []):
                if not (w.colors & gamma.colors):
                    pairs.append(WalkGammaPair(w, gamma))
    return pairs


@dataclass(frozen=True)
class InvolutionAudit:
    """Exhaustive audit of the involution on one graph at one r."""

    r: int
    n: int
    pair_count: int
    bad_count: int
    good_count: int
    total: Poly  # pair weights plus r * aggregated ell; must be zero
    correction: Poly
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems and self.total.is_zero


def audit_involution(g: ColoredDigraph, r: int) -> InvolutionAudit:
    """Check every promise the involution makes, exhaustively.

    * every BAD pair maps to a distinct BAD pair, back to itself on the
      second application, with negated weight (a perfect matching, so the
      BAD weights cancel);
    * when r <= n, the GOOD pairs group by their underlying r-edge
      subdigraph, exactly r per group, the group weights summing to
      r * (-1)^(c-1) * W; when r > n there are no GOOD pairs at all;
    * the grand total (pair weights + r * aggregated ell) is zero and
      matches the walk/cycle identity residual.
    """
    if r < 1:
        raise ValueError("audit_involution requires r >= 1")
    problems: list[str] = []
    subdigraphs = linear_subdigraphs(g)
    pairs = enumerate_pairs(g, r, subdigraphs=subdigraphs)
    pair_set = set(pairs)
    if len(pair_set) != len(pairs):
        problems.append("enumerate_pairs returned duplicates")

    bad: list[WalkGammaPair] = []
    good: list[WalkGammaPair] = []
    for pair in pairs:
        if pair.total_length != r:
            problems.append(f"pair has total length {pair.total_length}, wanted {r}")
        (bad if classify(pair) == BAD else good).append(pair)

    # weights are summed where the checks below compute them; a pair ->
    # weight table would cost memory on large audits
    bad_sum = Poly.zero()
    for pair in bad:
        weight = pair.weight(g)
        bad_sum += weight
        image = involute(pair)
        if image not in pair_set:
            problems.append("involution image escapes the enumerated pairs")
            continue
        if classify(image) != BAD:
            problems.append("involution image is GOOD")
        if image == pair:
            problems.append("involution has a fixed point")
        if involute(image) != pair:
            problems.append("involution fails to return after two applications")
        if image.weight(g) != -weight:
            problems.append("involution image weight is not the negation")

    if not bad_sum.is_zero:
        problems.append("BAD pair weights do not cancel")

    if r > g.n:
        if good:
            problems.append(f"expected no GOOD pairs when r > n, found {len(good)}")
        good_sum = poly_sum(p.weight(g) for p in good)
    else:
        good_sum = Poly.zero()
        groups: dict[LinearSubdigraph, list[WalkGammaPair]] = {}
        for pair in good:
            groups.setdefault(underlying_subdigraph(pair), []).append(pair)
        expected = {gamma for gamma in subdigraphs if gamma.length == r}
        if set(groups) != expected:
            problems.append(
                "GOOD pairs do not cover exactly the r-edge subdigraphs"
            )
        for gamma, members in groups.items():
            if len(members) != r:
                problems.append(
                    f"subdigraph owns {len(members)} GOOD pairs, expected {r}"
                )
            sign = -1 if (gamma.cycle_count - 1) % 2 else 1
            want = Poly.const(r * sign) * gamma.weight(g)
            got = poly_sum(p.weight(g) for p in members)
            good_sum += got
            if got != want:
                problems.append("GOOD group weight sum is off")

    # the recheck takes c and ell from the DPs, not from the pairs above
    report = verify_walk_cycle_identity(g, r)
    # no subdigraph has r > n edges, so the r > n report's zero correction
    # is r * (aggregated ell) there too
    correction = report.aggregated_correction
    total = bad_sum + good_sum + correction
    if total != report.residual:
        problems.append("audit total disagrees with the identity residual")

    return InvolutionAudit(
        r=r,
        n=g.n,
        pair_count=len(pairs),
        bad_count=len(bad),
        good_count=len(good),
        total=total,
        correction=correction,
        problems=tuple(problems),
    )
