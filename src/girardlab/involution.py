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
map twice returns the original pair.  The GOOD pairs do not cancel: each
linear subdigraph with exactly r edges owns exactly r of them (root its
cycles at each of its r vertices), which is what produces the r * ell
closing term of the identity.  No subdigraph has more than n edges, so
past n there are neither GOOD pairs nor a closing term.
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
)
from .newton import verify_walk_cycle_identity
from .poly import Poly

__all__ = [
    "GOOD",
    "BAD",
    "WalkGammaPair",
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

    def weight(self, g: ColoredDigraph) -> int | Poly:
        weight = self.walk.weight(g) * self.gamma.weight(g)
        return -weight if self.gamma.cycle_count % 2 else weight


def _checked_walk(pair: WalkGammaPair) -> Walk:
    """The pair's walk, once the pair invariant holds: the walk is closed,
    has at least one step and repeats no color, and its colors are disjoint
    from gamma's.  Raises ValueError otherwise."""
    w = pair.walk
    if w.color_mask & pair.gamma.color_mask:
        raise ValueError("pair invariant broken: overlapping color sets")
    steps = w.steps  # the last step's vertex is the walk's end
    if not steps or steps[-1][0] != w.start or w.color_mask.bit_count() != len(steps):
        raise ValueError("pair invariant broken: the walk is not closed and color-distinct")
    return w


def classify(pair: WalkGammaPair) -> str:
    """GOOD iff the walk avoids gamma's vertices and is simple."""
    w = _checked_walk(pair)
    return GOOD if w.is_simple and not w.vertex_mask & pair.gamma.vertex_mask else BAD


def _cycle_rooted_steps(cycle: tuple[Edge, ...], root: int) -> tuple[tuple[int, int], ...]:
    """The cycle as walk steps, traversed once starting from `root`."""
    tails = [e[0] for e in cycle]
    pivot = tails.index(root)
    rotated = cycle[pivot:] + cycle[:pivot]
    return tuple((head, color) for _, head, color in rotated)


def involute(pair: WalkGammaPair) -> WalkGammaPair:
    """The weight-negating partner of a BAD pair.

    Raises ValueError on a GOOD pair (the map is only defined on BAD
    ones): the scan below meets such a pair's first repeat at the walk's
    closing root, with no gamma vertex before it.
    """
    w = _checked_walk(pair)
    gamma = pair.gamma
    gamma_mask = gamma.vertex_mask
    seq = w.vertex_seq()
    first_seen: dict[int, int] = {}
    for i, v in enumerate(seq):
        if gamma_mask >> v & 1:
            # case 1: splice the cycle through v into the walk
            cycle = gamma.cycle_containing(v)
            new_steps = w.steps[:i] + _cycle_rooted_steps(cycle, v) + w.steps[i:]
            return WalkGammaPair(Walk(w.start, new_steps), gamma.without_cycle(cycle))
        if v in first_seen:
            j = first_seen[v]
            if j == 0 and i == len(seq) - 1:
                raise ValueError("involution is undefined on GOOD pairs")
            # case 2: excise the first completed cycle
            cycle = tuple((seq[t], seq[t + 1], w.steps[t][1]) for t in range(j, i))
            new_steps = w.steps[:j] + w.steps[i:]
            return WalkGammaPair(Walk(w.start, new_steps), gamma.with_cycle(cycle))
        first_seen[v] = i
    raise AssertionError("BAD pair produced no case; classification is broken")


def underlying_subdigraph(pair: WalkGammaPair) -> LinearSubdigraph:
    """For a GOOD pair: gamma together with the walk's own cycle."""
    if classify(pair) != GOOD:
        raise ValueError("only GOOD pairs have an underlying subdigraph")
    return pair.gamma.with_cycle(pair.walk.edges())


def enumerate_pairs(
    g: ColoredDigraph,
    r: int,
    *,
    subdigraphs: Sequence[LinearSubdigraph] | None = None,
) -> list[WalkGammaPair]:
    """All pairs with total length r, walk length >= 1, disjoint colors.

    The length-zero walk has no object form, and the identity has no term
    for it (T is nonempty in every (S, T) entry).  `subdigraphs` is the
    full `linear_subdigraphs(g)` list when the caller already holds it.
    """
    if r < 1:
        raise ValueError("enumerate_pairs requires r >= 1")
    if subdigraphs is None:
        subdigraphs = linear_subdigraphs(g)
    # each walk and subdigraph carries its color mask, so the disjointness
    # test of each (walk, gamma) combination is an int AND
    gammas_by_length: dict[int, list[LinearSubdigraph]] = {0: [EMPTY_SUBDIGRAPH]}
    for gamma in subdigraphs:
        if gamma.length < r:
            gammas_by_length.setdefault(gamma.length, []).append(gamma)
    walks_by_length: dict[int, list[Walk]] = {}
    for w in closed_walks(g, max_length=r):  # one pass for every length
        walks_by_length.setdefault(w.length, []).append(w)
    pairs: list[WalkGammaPair] = []
    for q in range(1, min(r, g.colors) + 1):  # no walk is longer than k
        for w in walks_by_length.get(q, []):
            walk_mask = w.color_mask
            for gamma in gammas_by_length.get(r - q, []):
                if not walk_mask & gamma.color_mask:
                    pairs.append(WalkGammaPair(w, gamma))
    return pairs


@dataclass(frozen=True)
class InvolutionAudit:
    """Exhaustive audit of the involution on one graph at one r."""

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
      BAD weights cancel).  Every pair is weighed once, up front, and
      classified there.  The BAD pairs are walked as couples: a BAD pair
      not yet met is sent through `involute`, looked up by position, and
      checked against its image, which is marked met there and skipped on
      its own turn.  So a perfect matching costs one `involute` call per
      BAD pair;
    * the GOOD pairs group by their `underlying_subdigraph` (which
      classifies each of them a second time), an r-edge subdigraph,
      exactly r per group, the group weights summing to
      r * (-1)^(c-1) * W; when r > n there is no r-edge subdigraph, so any
      GOOD pair is reported;
    * the grand total (pair weights + r * aggregated ell) is zero and
      matches the walk/cycle identity residual.
    """
    if r < 1:
        raise ValueError("audit_involution requires r >= 1")
    problems: list[str] = []
    subdigraphs = linear_subdigraphs(g)
    pairs = enumerate_pairs(g, r, subdigraphs=subdigraphs)
    # pair -> its position in `pairs` (the last one, for a duplicate)
    position = {pair: i for i, pair in enumerate(pairs)}
    if len(position) != len(pairs):
        problems.append("enumerate_pairs returned duplicates")

    weights = [pair.weight(g) for pair in pairs]
    is_bad = bytearray(len(pairs))
    good: list[int] = []
    for i, pair in enumerate(pairs):
        if pair.total_length != r:
            problems.append(f"pair has total length {pair.total_length}, wanted {r}")
        if classify(pair) == BAD:
            is_bad[i] = 1
        else:
            good.append(i)
    bad_count = len(pairs) - len(good)

    # The BAD pairs are walked as couples; the pairs met are marked by
    # position.
    met = bytearray(len(pairs))
    for i, pair in enumerate(pairs):
        if not is_bad[i] or met[i]:
            continue
        met[i] = 1
        image = involute(pair)
        j = position.get(image)
        if j is None:
            problems.append("involution image escapes the enumerated pairs")
            continue
        if not is_bad[j]:
            # involute is defined on BAD pairs only
            problems.append("involution image is GOOD")
            continue
        if image == pair:
            problems.append("involution has a fixed point")
        if involute(image) != pair:
            problems.append("involution fails to return after two applications")
        met[j] = 1
        if weights[j] != -weights[i]:
            problems.append("involution image weight is not the negation")

    bad_sum = sum(w for w, bad in zip(weights, is_bad) if bad)
    if bad_sum:
        problems.append("BAD pair weights do not cancel")

    good_sum = 0
    groups: dict[LinearSubdigraph, list] = {}  # subdigraph -> its GOOD pairs' weights
    for i in good:
        groups.setdefault(underlying_subdigraph(pairs[i]), []).append(weights[i])
    expected = {gamma for gamma in subdigraphs if gamma.length == r}
    if set(groups) != expected:
        problems.append("GOOD pairs do not cover exactly the r-edge subdigraphs")
    for gamma, members in groups.items():
        if len(members) != r:
            problems.append(f"subdigraph owns {len(members)} GOOD pairs, expected {r}")
        sign = -1 if (gamma.cycle_count - 1) % 2 else 1
        want = r * sign * gamma.weight(g)
        got = sum(members)
        good_sum += got
        if got != want:
            problems.append("GOOD group weight sum is off")

    # the recheck takes c and ell from the DPs, not from the pairs above
    report = verify_walk_cycle_identity(g, r)
    correction = report.aggregated_correction
    total = bad_sum + good_sum + correction  # a Poly, as the correction is
    if total != report.residual:
        problems.append("audit total disagrees with the identity residual")

    return InvolutionAudit(
        pair_count=len(pairs),
        bad_count=bad_count,
        good_count=len(good),
        total=total,
        correction=correction,
        problems=tuple(problems),
    )
