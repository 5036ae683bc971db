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

The two generating sums do not enumerate anything.  `closed_walk_buckets`
sums every closed walk by a transfer-matrix DP over (vertex, used-color
mask) states (Stanley, Enumerative Combinatorics I, 4.7): at most
n * 2^k states times n * k moves per root.  `linear_subdigraph_buckets`
sums every linear subdigraph as a coefficient of det(I - sum_c t_c A_c),
by a row expansion over (used columns, used colors) states: at most
C(n, i) * 2^k states times n * (k + 1) moves at row i.  Both keep `Poly`
values, so symbolic weights work.  The enumerators are exhaustive and
meant for desk-scale graphs (n, k up to about 5); they serve the
involution audit, which needs the objects, and the tests, which compare
the DPs against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
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
    closed walks, and concatenation (see the involution module) also works
    on open segments.
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


def colored_cycles(g: ColoredDigraph) -> list[tuple[Edge, ...]]:
    """All simple directed cycles with injectively colored edges.

    Each cycle is canonical (starts at its smallest vertex); every
    injective assignment of colors to its edges appears once.
    """
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    shapes: list[tuple[int, ...]] = []

    def grow(base: int, path: list[int], visited: set[int]) -> None:
        u = path[-1]
        for v in succ[u]:
            if v == base:
                shapes.append(tuple(path))
            elif v > base and v not in visited:
                visited.add(v)
                path.append(v)
                grow(base, path, visited)
                path.pop()
                visited.remove(v)

    for base in range(1, g.n + 1):
        grow(base, [base], {base})

    out: list[tuple[Edge, ...]] = []
    all_colors = range(1, g.colors + 1)
    for shape in shapes:
        t = len(shape)
        pairs = [(shape[i], shape[(i + 1) % t]) for i in range(t)]
        for assignment in permutations(all_colors, t):
            out.append(tuple((u, v, c) for (u, v), c in zip(pairs, assignment)))
    return out


def linear_subdigraphs(g: ColoredDigraph) -> list[LinearSubdigraph]:
    """All (nonempty) linear subdigraphs, in depth-first order over the
    cycles sorted by their smallest vertex."""
    # Each pooled cycle carries (cycle, vertex mask, color mask), so the
    # search tests ints instead of building sets.
    pool = [
        (cycle, _bitmask(e[0] for e in cycle), _bitmask(e[2] for e in cycle))
        for cycle in sorted(colored_cycles(g), key=lambda c: (c[0][0], c))
    ]
    out: list[LinearSubdigraph] = []

    def extend(start: int, chosen: list[tuple[Edge, ...]], used_v: int, used_c: int) -> None:
        if chosen:
            out.append(LinearSubdigraph(tuple(chosen)))
        for idx in range(start, len(pool)):
            cycle, vmask, cmask = pool[idx]
            if vmask & used_v or cmask & used_c:
                continue
            chosen.append(cycle)
            extend(idx + 1, chosen, used_v | vmask, used_c | cmask)
            chosen.pop()

    extend(0, [], 0, 0)
    return out


def _bitmask(items: Iterable[int]) -> int:
    """The int with bit i set for each i in `items`."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


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


def closed_walk_buckets(g: ColoredDigraph) -> dict[tuple[int, frozenset[int]], Poly]:
    """(length, color set) -> weight sum of the closed walks with that
    length and color set.

    The map equals `closed_walks(g)` grouped by (length, colors), with a
    key for every pair some walk has, even when its sum is zero; but no
    walk is built.  For each root, a layer maps (vertex, used-color mask)
    to the weight sum of the walks from the root that end there, and each
    step pushes it along every edge in every unused color.  The states
    back at the root are the closed walks of that length; walks go on
    past the root, as in `closed_walks`.  Every mask has one length, so a
    root costs at most n * 2^k states times n * k moves: that many `Poly`
    products.
    """
    succ = {u: g.successors(u) for u in range(1, g.n + 1)}
    colors = range(1, g.colors + 1)
    buckets: dict = {}
    for root in range(1, g.n + 1):
        layer = {(root, 0): Poly.one()}
        for length in range(1, g.colors + 1):
            nxt: dict = {}
            for (u, mask), val in layer.items():
                for v in succ[u]:
                    for c in colors:
                        if mask >> c & 1:
                            continue
                        key = (v, mask | 1 << c)
                        term = val * g.weight(u, v, c)
                        nxt[key] = nxt[key] + term if key in nxt else term
            for (v, mask), val in nxt.items():
                if v == root:
                    key = (length, frozenset(c for c in colors if mask >> c & 1))
                    buckets[key] = buckets[key] + val if key in buckets else val
            layer = nxt
    return buckets


def linear_subdigraph_buckets(
    g: ColoredDigraph,
) -> dict[tuple[int, frozenset[int]], Poly]:
    """(length, color set) -> sum of (-1)^(cycle count) * weight over the
    linear subdigraphs with that length and color set.

    That sum is the coefficient of t^S in det(I - sum_c t_c A_c) over
    Z[w][t]/(t_c^2), where A_c holds the color-c weights: a permutation's
    non-fixed points are cycles of colored edges, its fixed points are
    the diagonal 1 or a colored loop, and its sign times the (-1) of
    each colored entry is (-1)^(cycle count) (Harary 1962).  The row
    expansion sums every permutation without building one: row i maps
    (used columns, used colors) to the signed sum of its partial
    products, and goes to each unused column j with the diagonal 1
    (j = i) or -w(i, j, c) for each unused color c, flipping the sign for
    each used column above j (the inversions the move adds).  There is no
    division, so `Poly` weights work; row i has at most C(n, i) * 2^k
    states and n * (k + 1) moves each.  Every final state with a color is
    the bucket of its color set, even when its sum is zero.
    """
    layer = {(0, 0): Poly.one()}
    for i in range(1, g.n + 1):
        # (column, color bit, entry); the diagonal 1 uses no color
        moves = [(i, 0, None)] + [
            (j, 1 << c, -g.weight(i, j, c))
            for j in g.successors(i)
            for c in range(1, g.colors + 1)
        ]
        nxt: dict = {}
        for (cols, mask), val in layer.items():
            neg = -val
            for j, bit, entry in moves:
                if cols >> j & 1 or mask & bit:
                    continue
                term = neg if (cols >> j).bit_count() % 2 else val
                if entry is not None:
                    term = term * entry
                key = (cols | 1 << j, mask | bit)
                nxt[key] = nxt[key] + term if key in nxt else term
        layer = nxt
    colors = range(1, g.colors + 1)
    return {
        (mask.bit_count(), frozenset(c for c in colors if mask >> c & 1)): val
        for (_, mask), val in layer.items()
        if mask
    }


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
