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

from typing import NamedTuple, Sequence

from .digraph import ColoredDigraph
from .enumeration import (
    EMPTY_SUBDIGRAPH,
    LinearSubdigraph,
    Walk,
    _add_cycle,
    closed_walks,
    linear_subdigraphs,
)
from .newton import verify_walk_cycle_identity
from .poly import Poly, value_text

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


class WalkGammaPair(NamedTuple):
    """A closed walk and a color-disjoint linear subdigraph."""

    walk: Walk
    gamma: LinearSubdigraph

    @property
    def total_length(self) -> int:
        return self.walk.length + self.gamma.length

    def weight(self, g: ColoredDigraph) -> int | Poly:
        return self.walk.weight(g) * _signed_weight(self.gamma, g)


def _signed_weight(gamma: LinearSubdigraph, g: ColoredDigraph) -> int | Poly:
    """(-1)^(cycle count) * W(gamma), gamma's factor in a pair's weight."""
    weight = gamma.weight(g)
    return -weight if len(gamma.cycles) % 2 else weight


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
    """GOOD iff the walk avoids gamma's vertices and is simple.

    `_checked_walk` has proved the walk closed and nonempty, so it is
    simple when its vertices, the root counted once, number its steps."""
    w = _checked_walk(pair)
    simple = w.vertex_mask.bit_count() == len(w.steps)
    return GOOD if simple and not w.vertex_mask & pair.gamma.vertex_mask else BAD


def involute(pair: WalkGammaPair) -> WalkGammaPair:
    """The weight-negating partner of a BAD pair.

    Raises ValueError on a GOOD pair (the map is only defined on BAD
    ones): the scan below meets such a pair's first repeat at the walk's
    closing root, with no gamma vertex before it.  The scan keeps the
    list of the walk's vertices so far, and each image is built from what
    it holds, with masks derived from the pair's own.  A splice finds
    gamma's cycle through v by its tails, rotates it to v by slicing, ORs
    its masks into the walk's and XORs them out of gamma's, whose other
    cycles it keeps by slicing.  An excise takes the cycle's edges from
    v's first visit on, and their masks in the same loop, XORs the colors
    out of the walk's, takes the vertices of the steps that remain, and
    adds the cycle to gamma with `_add_cycle`.
    """
    start, steps, walk_vmask, walk_cmask = _checked_walk(pair)
    gamma = pair.gamma
    cycles, gamma_vmask, gamma_cmask = gamma
    v, visited = start, []
    for i, (after, _) in enumerate(steps):
        if gamma_vmask >> v & 1:
            # case 1: splice the cycle through v into the walk
            for p, cycle in enumerate(cycles):
                tails = [e[0] for e in cycle]
                if v in tails:
                    break
            else:
                raise ValueError(f"no cycle contains vertex {v}")
            pivot = tails.index(v)
            spliced, vmask, cmask = [], 0, 0
            for _, head, c in cycle[pivot:] + cycle[:pivot]:
                spliced.append((head, c))
                vmask |= 1 << head
                cmask |= 1 << c
            image = tuple.__new__(Walk, (start, steps[:i] + tuple(spliced) + steps[i:],
                                         walk_vmask | vmask, walk_cmask | cmask))
            rest = tuple.__new__(LinearSubdigraph, (cycles[:p] + cycles[p + 1:],
                                                    gamma_vmask ^ vmask, gamma_cmask ^ cmask))
            return tuple.__new__(WalkGammaPair, (image, rest))
        if v in visited:
            # case 2: excise the first completed cycle, from v's first visit
            j = visited.index(v)
            edges, vmask, cmask = [], 0, 0
            for u, (head, c) in zip(visited[j:], steps[j:i]):
                edges.append((u, head, c))
                vmask |= 1 << u
                cmask |= 1 << c
            new_steps = steps[:j] + steps[i:]
            new_vmask = 1 << start
            for u, _ in new_steps:
                new_vmask |= 1 << u
            image = tuple.__new__(Walk, (start, new_steps, new_vmask, walk_cmask ^ cmask))
            return tuple.__new__(WalkGammaPair,
                                 (image, _add_cycle(gamma, tuple(edges), vmask, cmask)))
        visited.append(v)
        v = after
    # the walk is closed, so its last step returns to the root, seen first
    raise ValueError("involution is undefined on GOOD pairs")


def underlying_subdigraph(pair: WalkGammaPair) -> LinearSubdigraph:
    """For a GOOD pair: gamma together with the walk's own cycle, whose
    masks are the walk's."""
    if classify(pair) != GOOD:
        raise ValueError("only GOOD pairs have an underlying subdigraph")
    w = pair.walk
    return _add_cycle(pair.gamma, tuple(w.edges()), w.vertex_mask, w.color_mask)


def enumerate_pairs(
    g: ColoredDigraph,
    r: int,
    subdigraphs: Sequence[LinearSubdigraph],
) -> list[WalkGammaPair]:
    """All pairs with total length r, walk length >= 1, disjoint colors.

    `subdigraphs` is required: a `linear_subdigraphs(g, cap)` list with a
    cap of at least r - 1, as the gammas of the pairs have fewer than r
    edges and longer ones are skipped.  The audit passes its list capped
    at r, which it also reads, so the graph is enumerated once.  The
    walks are those of `closed_walks(g, r)`, grouped by length into
    min(r, k) + 1 lists (no walk is longer, and a list per r would not fit
    in memory at a huge r), which keeps the walks of each length in their
    order, as a stable sort by length would.  Each walk of length q meets
    the gammas of length r - q in `subdigraphs` order, the empty one
    first.  The length-zero walk has no object form, and the identity has
    no term for it (T is nonempty in every (S, T) entry).
    """
    if r < 1:
        raise ValueError("enumerate_pairs requires r >= 1")
    # each walk and subdigraph carries its color mask, so the disjointness
    # test of each (walk, gamma) combination is an int AND
    gammas_by_length: dict[int, list[LinearSubdigraph]] = {0: [EMPTY_SUBDIGRAPH]}
    for gamma in subdigraphs:
        gammas_by_length.setdefault(gamma.length, []).append(gamma)
    walks_by_length: list[list[Walk]] = [[] for _ in range(min(r, g.colors) + 1)]
    for w in closed_walks(g, r):
        walks_by_length[len(w.steps)].append(w)
    pairs: list[WalkGammaPair] = []
    for q, walks in enumerate(walks_by_length):
        gammas = gammas_by_length.get(r - q)
        if not gammas:
            continue
        for w in walks:
            walk_mask = w.color_mask
            pairs += [tuple.__new__(WalkGammaPair, (w, gamma))
                      for gamma in gammas if not walk_mask & gamma.color_mask]
    return pairs


def _pair_weights(g: ColoredDigraph, pairs: Sequence[WalkGammaPair]) -> list[int | Poly]:
    """The weight of each pair, its walk's weight times gamma's signed
    weight: a few thousand walks and subdigraphs make up the pairs, and
    each is weighed once.  `enumerate_pairs` lists the pairs of one walk
    together, so a walk is weighed where it differs from the walk of the
    pair before, and no map of the walks is built, which would raise the
    audit's peak memory.  The gammas, far fewer, are weighed through a
    map that is dropped on return."""
    gamma_weight = {gamma: _signed_weight(gamma, g) for gamma in {pair.gamma for pair in pairs}}
    weights = []
    last = None
    for w, gamma in pairs:
        if w != last:
            last, walk_weight = w, w.weight(g)
        weights.append(walk_weight * gamma_weight[gamma])
    return weights


class InvolutionAudit(NamedTuple):
    """Exhaustive audit of the involution on one graph at one r."""

    pair_count: int
    bad_count: int
    good_count: int
    total: Poly  # pair weights plus r * aggregated ell; must be zero
    correction: Poly
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems and not self.total


def audit_involution(g: ColoredDigraph, r: int) -> InvolutionAudit:
    """Check every promise the involution makes, exhaustively, in one pass
    over the pairs, all weighed and classified up front.  A pair's weight
    is its walk's weight times its subdigraph's signed weight, and each
    walk and each subdigraph of the pairs is weighed once
    (`_pair_weights`).  Each pair is classified once, into a list by
    position.  The subdigraphs are enumerated up to r edges: the pairs
    read the shorter ones, and the GOOD check those of exactly r edges.

    * every BAD pair maps to a distinct BAD pair, back to itself on the
      second application, with negated weight (a perfect matching, so the
      BAD weights cancel).  Each BAD pair adds its weight to the BAD sum.
      A BAD pair not yet met is sent through `involute`, its image looked
      up by position j (the image is `pairs[j]`, so its class is the one
      listed at j), and checked against it, and the image is marked met,
      so it is skipped on its own turn.  So a perfect matching costs one
      `involute` call per BAD pair, and the audit one `classify` call per
      pair.  An `involute` that refuses a pair classified BAD, or its
      image, is one problem for that pair, and the audit goes on;
    * each GOOD pair joins the group of its underlying subdigraph, gamma
      with the walk's cycle added by `_add_cycle` with the walk's own
      masks (the pass has classified it, so the grouping does not call
      `underlying_subdigraph`, which classifies again).  Each group is an r-edge subdigraph with exactly r GOOD
      pairs, whose weights sum to r * (-1)^(c-1) * W; when r > n there is
      no r-edge subdigraph, so any GOOD pair is reported.  The GOOD count
      is the groups' total size, and the rest of the pairs are BAD;
    * the grand total (pair weights + r * aggregated ell) is zero and
      matches the walk/cycle identity residual, the sum over the size-r
      color sets U; then each U's own residual is zero, and the first U,
      in lexicographic order, whose residual is not is one problem that
      names U and that residual.  So weight that the c or ell map moves
      from one U to another, which leaves the sum alone, still fails.

    A pair's wrong total length is a problem met on its turn in the pass.
    """
    if r < 1:
        raise ValueError("audit_involution requires r >= 1")
    problems: list[str] = []
    subdigraphs = linear_subdigraphs(g, r)
    pairs = enumerate_pairs(g, r, subdigraphs)
    # pair -> its position in `pairs` (the last one, for a duplicate)
    position = {pair: i for i, pair in enumerate(pairs)}
    if len(position) != len(pairs):
        problems.append("enumerate_pairs returned duplicates")
    weights = _pair_weights(g, pairs)
    kinds = [classify(pair) for pair in pairs]
    groups: dict[LinearSubdigraph, list] = {}  # subdigraph -> its GOOD pairs' weights
    bad_sum = 0
    met = bytearray(len(pairs))  # the BAD pairs met, by position
    refused = "involute refuses a pair classified BAD"
    for i, pair in enumerate(pairs):
        if pair.total_length != r:
            problems.append(f"pair has total length {pair.total_length}, wanted {r}")
        w, gamma = pair
        if kinds[i] == GOOD:
            groups.setdefault(_add_cycle(gamma, tuple(w.edges()), w.vertex_mask, w.color_mask),
                              []).append(weights[i])
            continue
        bad_sum += weights[i]
        if met[i]:
            continue
        met[i] = 1
        try:
            image = involute(pair)
        except ValueError:
            problems.append(refused)
            continue
        j = position.get(image)
        if j is None:
            problems.append("involution image escapes the enumerated pairs")
            continue
        if kinds[j] == GOOD:  # the image is pairs[j]
            # involute is defined on BAD pairs only
            problems.append("involution image is GOOD")
            continue
        if image == pair:
            problems.append("involution has a fixed point")
        try:
            if involute(image) != pair:
                problems.append("involution fails to return after two applications")
        except ValueError:
            problems.append(refused)
        met[j] = 1
        if weights[j] != -weights[i]:
            problems.append("involution image weight is not the negation")
    if bad_sum:
        problems.append("BAD pair weights do not cancel")

    expected = {gamma for gamma in subdigraphs if gamma.length == r}
    if set(groups) != expected:
        problems.append("GOOD pairs do not cover exactly the r-edge subdigraphs")
    for gamma, members in groups.items():
        if len(members) != r:
            problems.append(f"subdigraph owns {len(members)} GOOD pairs, expected {r}")
        # r * (-1)^(c-1) * W: gamma's signed weight, negated, r times
        if sum(members) != -r * _signed_weight(gamma, g):
            problems.append("GOOD group weight sum is off")
    good_count = sum(map(len, groups.values()))

    # the recheck takes c and ell from the DPs, not from the pairs above
    report = verify_walk_cycle_identity(g, r)
    correction = report.aggregated_correction
    total = sum(weights) + correction  # a Poly, as the correction is
    if total != report.residual:
        problems.append("audit total disagrees with the identity residual")
    failure = report.first_failure()
    if failure is not None:
        problems.append(f"identity residual at color set {failure[0]} "
                        f"is {value_text(failure[1])}")

    return InvolutionAudit(
        pair_count=len(pairs),
        bad_count=len(pairs) - good_count,
        good_count=good_count,
        total=total,
        correction=correction,
        problems=tuple(problems),
    )
