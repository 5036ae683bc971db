"""Enumeration of linear subdigraphs and closed colored walks.

A *linear subdigraph* is a nonempty set of vertex-disjoint directed cycles
(self-loops count) whose edges carry pairwise distinct colors across the
whole set.  A *closed colored walk* is rooted: it starts and ends at its
root, may revisit vertices freely, but never reuses a color, so its length
is at most the color count.  Walks with different roots or different step
sequences are distinct objects even when they traverse the same edges.

The empty walk and the empty subdigraph exist only as conventions inside
`closed_walk_sum` and `linear_subdigraph_sum` (both equal to 1 at size
zero); the enumerators never yield them.

The two generating sums do not enumerate anything; both run on `_step`,
which pushes a (vertex, used-color mask) -> `Poly` layer one edge and one
unused color further (Stanley, Enumerative Combinatorics I, 4.7).
`closed_walk_buckets` sums every closed walk from each root in turn.
`linear_subdigraph_buckets` sums signed clow sequences (Mahajan and Vinay
1997), whose non-simple terms cancel, head by head.  Each costs at most
n^2 * 2^k states times n * k `Poly` products.

Both cycle enumerators share one search, `_cycles_at`, that grows the
cycles of one head (least vertex); heads increase, as in the clow DP, so it
costs about its output.  The enumerators are exhaustive, for desk-scale
graphs (n, k up to about 5): the involution audit needs the objects, and
the tests compare the DPs with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .digraph import ColoredDigraph
from .poly import Poly, poly_prod

__all__ = [
    "Edge",
    "Walk",
    "LinearSubdigraph",
    "EMPTY_SUBDIGRAPH",
    "make_subdigraph",
    "colored_cycles",
    "linear_subdigraphs",
    "closed_walks",
    "closed_walk_buckets",
    "linear_subdigraph_buckets",
    "linear_subdigraph_sum",
    "closed_walk_sum",
]

# One colored edge: (tail, head, color).
Edge = tuple[int, int, int]


@dataclass(frozen=True)
class Walk:
    """A walk: a start vertex and a tuple of (next_vertex, color) steps.

    Closed walks end where they start.  The class itself does not force
    distinct colors; the enumerator below only produces color-distinct
    closed walks.
    """

    start: int
    steps: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        return self.steps[-1][0] if self.steps else self.start

    @property
    def is_closed(self) -> bool:
        return self.end == self.start

    @property
    def colors(self) -> frozenset[int]:
        return frozenset(c for _, c in self.steps)

    def vertex_seq(self) -> tuple[int, ...]:
        """All visited vertices in order, the start included at both ends
        when the walk is closed."""
        return (self.start,) + tuple(v for v, _ in self.steps)

    @property
    def is_simple(self) -> bool:
        """Closed and no vertex repeats except the root at the end."""
        if not self.is_closed or not self.steps:
            return False
        interior = self.vertex_seq()[:-1]
        return len(set(interior)) == len(interior)

    def edges(self) -> Iterator[Edge]:
        u = self.start
        for v, c in self.steps:
            yield (u, v, c)
            u = v

    def weight(self, g: ColoredDigraph) -> Poly:
        return poly_prod(g.weight(u, v, c) for u, v, c in self.edges())


def _canonical_cycle(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Rotate a cycle's edge list so it starts at its smallest vertex."""
    seq = tuple(edges)
    tails = [e[0] for e in seq]
    pivot = tails.index(min(tails))
    return seq[pivot:] + seq[:pivot]


@dataclass(frozen=True)
class LinearSubdigraph:
    """Vertex-disjoint colored cycles, color-distinct across the whole set.

    Canonical form: each cycle starts at its smallest vertex and the
    cycles are sorted by that vertex, so equal subdigraphs are equal as
    objects.  The empty instance (no cycles) is a valid value used by the
    walk/subdigraph pairing, but is never enumerated.
    """

    cycles: tuple[tuple[Edge, ...], ...]

    @property
    def length(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(e[0] for cycle in self.cycles for e in cycle)

    @property
    def colors(self) -> frozenset[int]:
        return frozenset(e[2] for cycle in self.cycles for e in cycle)

    def cycle_containing(self, v: int) -> tuple[Edge, ...]:
        for cycle in self.cycles:
            if any(e[0] == v for e in cycle):
                return cycle
        raise ValueError(f"no cycle contains vertex {v}")

    def weight(self, g: ColoredDigraph) -> Poly:
        return poly_prod(
            g.weight(u, v, c) for cycle in self.cycles for u, v, c in cycle
        )


EMPTY_SUBDIGRAPH = LinearSubdigraph(())


def make_subdigraph(cycles: Iterable[Iterable[Edge]]) -> LinearSubdigraph:
    """Canonicalize and wrap a collection of cycles."""
    canon = sorted((_canonical_cycle(c) for c in cycles), key=lambda c: c[0][0])
    return LinearSubdigraph(tuple(canon))


def _cycles_at(g: ColoredDigraph, succ: dict, head: int, used_v: int, used_c: int) -> list:
    """(cycle, vertex mask, color mask) for each colored cycle with least
    vertex `head` that avoids the masks `used_v` and `used_c`, in tuple
    order: depth first through free vertices above `head`, one free color
    per step, successors and colors increasing.  The masks are grown by the
    cycle's own vertices and colors."""
    colors = range(1, g.colors + 1)
    path: list[Edge] = []
    out: list = []

    def grow(u: int, vmask: int, cmask: int) -> None:
        for v in succ[u]:
            if v < head or (v != head and vmask >> v & 1):
                continue
            for c in colors:
                if cmask >> c & 1:
                    continue
                path.append((u, v, c))
                if v == head:
                    out.append((tuple(path), vmask, cmask | 1 << c))
                else:
                    grow(v, vmask | 1 << v, cmask | 1 << c)
                path.pop()

    grow(head, used_v | 1 << head, used_c)
    return out


def colored_cycles(g: ColoredDigraph) -> list[tuple[Edge, ...]]:
    """All simple directed cycles with injectively colored edges, each
    starting at its head (least vertex), sorted by (head, cycle); every
    injective assignment of colors to its edges appears once."""
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    return [
        cycle
        for head in range(1, g.n + 1)
        for cycle, _, _ in _cycles_at(g, succ, head, 0, 0)
    ]


def linear_subdigraphs(g: ColoredDigraph) -> list[LinearSubdigraph]:
    """All (nonempty) linear subdigraphs, depth first, each node's
    children in (head, cycle) order.

    Heads strictly increase along a subdigraph, as in the clow sequences
    of `linear_subdigraph_buckets`: each free head above the last offers
    the cycles `_cycles_at` finds on the vertices and colors still free.
    """
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    out: list[LinearSubdigraph] = []

    def extend(low: int, chosen: list[tuple[Edge, ...]], used_v: int, used_c: int) -> None:
        for head in range(low, g.n + 1):
            if used_v >> head & 1:
                continue
            for cycle, vmask, cmask in _cycles_at(g, succ, head, used_v, used_c):
                chosen.append(cycle)
                out.append(LinearSubdigraph(tuple(chosen)))
                extend(head + 1, chosen, vmask, cmask)
                chosen.pop()

    extend(1, [], 0, 0)
    return out


def closed_walks(g: ColoredDigraph, *, max_length: int | None = None) -> list[Walk]:
    """All closed colored walks (length >= 1), in depth-first order from
    each root in turn.

    The distinct-color rule caps every walk at k steps.  `max_length`
    caps the step count lower, so a caller that needs every length up to
    r makes one pass; the walks of each length keep their order.
    """
    cap = g.colors if max_length is None else min(max_length, g.colors)
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    out: list[Walk] = []

    def extend(
        root: int, current: int, steps: list[tuple[int, int]], used_c: set[int]
    ) -> None:
        if steps and current == root:
            out.append(Walk(root, tuple(steps)))
        if len(steps) >= cap:
            return
        for v in succ[current]:
            for c in range(1, g.colors + 1):
                if c in used_c:
                    continue
                steps.append((v, c))
                used_c.add(c)
                extend(root, v, steps, used_c)
                used_c.remove(c)
                steps.pop()

    for root in range(1, g.n + 1):
        extend(root, root, [], set())
    return out


def _step(layer: dict, succ: dict, g: ColoredDigraph, low: int) -> dict:
    """One step of every walk in `layer`, a map (vertex, used-color mask)
    -> weight sum: along every edge into a vertex >= `low`, in every
    unused color.  The result is keyed the same way; each state costs at
    most n * k `Poly` products."""
    colors = range(1, g.colors + 1)
    nxt: dict = {}
    for (u, mask), val in layer.items():
        for v in succ[u]:
            if v < low:
                continue
            for c in colors:
                if mask >> c & 1:
                    continue
                key = (v, mask | 1 << c)
                term = val * g.weight(u, v, c)
                nxt[key] = nxt[key] + term if key in nxt else term
    return nxt


def _color_set(mask: int, k: int) -> frozenset[int]:
    return frozenset(c for c in range(1, k + 1) if mask >> c & 1)


def closed_walk_buckets(g: ColoredDigraph) -> dict[tuple[int, frozenset[int]], Poly]:
    """(length, color set) -> weight sum of the closed walks with that
    length and color set.

    The map equals `closed_walks(g)` grouped by (length, colors), with a
    key for every pair some walk has, even when its sum is zero; but no
    walk is built.  For each root, a layer maps (vertex, used-color mask)
    to the weight sum of the walks from the root that end there, and
    `_step` pushes it along every edge in every unused color.  The states
    back at the root are the closed walks of that length; walks go on
    past the root, as in `closed_walks`.  Every mask has one length, so a
    root costs at most n * 2^k states times n * k `Poly` products.
    """
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    buckets: dict = {}
    for root in range(1, g.n + 1):
        layer = {(root, 0): Poly.one()}
        for length in range(1, g.colors + 1):
            layer = _step(layer, succ, g, 1)
            for (v, mask), val in layer.items():
                if v == root:
                    key = (length, _color_set(mask, g.colors))
                    buckets[key] = buckets[key] + val if key in buckets else val
    return buckets


def linear_subdigraph_buckets(g: ColoredDigraph) -> dict[tuple[int, frozenset[int]], Poly]:
    """(length, color set) -> sum of (-1)^(cycle count) * weight over the
    linear subdigraphs with that length and color set.

    The sum runs over clow sequences instead (Mahajan and Vinay 1997).  A
    clow is a closed walk whose head, its least vertex, appears only at
    its ends.  A sequence has strictly increasing heads and distinct
    colors, and counts (-1)^(clow count) * weight.  Splicing a later clow
    into an earlier one it meets, or excising a cycle a clow closes, pairs
    off the sequences that are not linear subdigraphs with opposite signs
    (the splice/excise move of Theorem 2), so only the subdigraphs remain.
    `done` maps a color mask to the signed sum of the finished sequences
    with heads below h.  For head h they wait at (h, mask); the clow steps
    through vertices > h, and each return to h is subtracted from `done`.
    A step adds one color, so a waiting state joins the layer at the step
    where its color count comes up: each (vertex, mask) is pushed once per
    head, at most n^2 * 2^k states times n * k `Poly` products in all.
    Every mask some sequence reaches has a key, even when its sum is zero.
    """
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    done = {0: Poly.one()}
    for h in range(1, g.n + 1):
        start = list(done.items())
        layer: dict = {}
        for count in range(g.colors):
            layer.update(((h, mask), val) for mask, val in start if mask.bit_count() == count)
            layer = _step(layer, succ, g, h)
            for key in [key for key in layer if key[0] == h]:
                mask, val = key[1], layer.pop(key)
                done[mask] = done[mask] - val if mask in done else -val
    return {(m.bit_count(), _color_set(m, g.colors)): val for m, val in done.items() if m}


def linear_subdigraph_sum(g: ColoredDigraph, p: int, colors: Iterable[int]) -> Poly:
    """ell(g, p, S): sum of (-1)^(cycle count) * weight over subdigraphs
    with p edges and color set exactly S, looked up in
    `linear_subdigraph_buckets`.

    Conventions: 1 when p = 0 and S is empty (the empty subdigraph), 0
    whenever p != |S| (a subdigraph's edge and color counts agree).
    """
    s = frozenset(colors)
    if p == 0 and not s:
        return Poly.one()
    return linear_subdigraph_buckets(g).get((p, s), Poly.zero())


def closed_walk_sum(g: ColoredDigraph, q: int, colors: Iterable[int]) -> Poly:
    """c(g, q, T): sum of weights over closed walks of length q with color
    set exactly T, looked up in `closed_walk_buckets`.

    Conventions: 1 when q = 0 and T is empty (the empty walk), 0 whenever
    q != |T| (a walk's length and color count agree).
    """
    t = frozenset(colors)
    if q == 0 and not t:
        return Poly.one()
    return closed_walk_buckets(g).get((q, t), Poly.zero())
