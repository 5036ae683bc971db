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

`Walk` and `LinearSubdigraph` are NamedTuples that carry their vertex
and color bitmasks beside the fields the masks are computed from.  Tuple
equality and hashing read every field; every builder below gives the
masks those fields give, so two walks are equal when their starts and
steps are, and two subdigraphs when their cycles are.  `Walk(start,
steps)`, the entry for hand-built walks, derives the two masks; the
builders that already hold them skip `__new__` through
`tuple.__new__`, as `_walk` does: `closed_walks` (through `_walk`) the
masks its search grew, and `involution.involute` the walk's masks OR
the cycle's for a splice, and for an excise the walk's colors XOR the
cycle's and the vertices of the steps that remain.  A
`LinearSubdigraph` takes its canonical cycles and those masks; this
module defines the canonical form, which a cycle dropped from it keeps.
`linear_subdigraphs` passes the masks its search grew, and
`involute`'s splice XORs one cycle's bits out.  One builder adds a
cycle, `_add_cycle(gamma, edges, vertex_mask, color_mask)`: it rotates
the cycle to its least vertex, sorts it into gamma's cycles and ORs in
the masks its caller passes.  The excise passes the masks it took with
the cycle's edges; the audit's GOOD grouping and
`involution.underlying_subdigraph` pass the walk's own, as a GOOD
pair's walk is one cycle; `with_cycle` computes the cycle's masks, and
`make_subdigraph`, the entry for hand-built input, checks the cycles it
adds through `with_cycle`.  The test
`test_every_mask_matches_the_fields_it_is_computed_from` (in
`tests/test_involution.py`) checks every builder's masks against
`Walk(start, steps)` and the cycles, and the involution's images
against a literal copy of an earlier scan.  Each value keeps only what the
package reads: a walk's vertex and color sets are its masks (bit i for
vertex or color i), and the involution reads simplicity off the vertex
mask; a subdigraph keeps `colors`, a set, for the demos to print.

Every search reads each vertex's out-neighbours from the table the graph
builds once (`ColoredDigraph._out`), and takes the colors 1..k of each
edge in order.  The two generating sums do not enumerate anything; both
run on `_step`, which pushes a layer one edge and one unused color further
(Stanley, Enumerative Combinatorics I, 4.7).  A layer maps each used-color
mask to a vector {vertex: weight sum}; `_step` takes a mask's unused
colors one at a time and reads that color's weighted out-edges
(`ColoredDigraph._out_by_color`, built once from `_out`), so it builds no
key per edge and never meets a used color.  `closed_walk_buckets` sums
every closed walk from each root in turn.  `linear_subdigraph_buckets`
sums signed clow sequences (Mahajan and Vinay 1997), whose non-simple
terms cancel, head by head.  Both return their sums keyed by color mask
(bit c for color c), a mask's color count being its objects' length.  Each
costs at most n^2 * 2^k states times n * k weight products.  The DPs start
from the int 1 and multiply whatever the weights are: on an integer graph
every product and every bucket is a plain int, and a `Poly` weight makes
the sums it reaches `Poly` (through `Poly.__rmul__` and `__radd__`).  Only
the two lookups, `linear_subdigraph_sum` and `closed_walk_sum`, return
`Poly` always.

Both cycle enumerators share one search, `_cycles_at`, that grows the
cycles of one head (least vertex); heads increase, as in the clow DP, so it
costs about its output.  It and the walk search skip a step into a vertex
whose shortest way back to the head or root (`ColoredDigraph._back`) is
longer than the colors or steps left after it, so a colored path that
cannot close is not followed, and no output moves.  The enumerators are
exhaustive, for desk-scale graphs (n, k up to about 5): the involution
audit needs the objects, and the tests compare the DPs with them.
`closed_walks` and `linear_subdigraphs` take their length cap from the
caller, always: `g.colors` for every object, r for the involution audit,
whose pairs read the lengths below r and whose GOOD check reads length r.
A cap below k also caps the color budget of the subdigraph search.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, NamedTuple

from .digraph import ColoredDigraph
from .poly import Poly

__all__ = [
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


# typing.NamedTuple refuses a `__new__` in the class body, so `Walk`
# derives its two masks in a subclass of this one
class _WalkFields(NamedTuple):
    start: int
    steps: tuple[tuple[int, int], ...]
    vertex_mask: int
    color_mask: int


class Walk(_WalkFields):
    """A walk: a start vertex and a tuple of (next_vertex, color) steps.

    Closed walks end where they start.  The class itself does not force
    distinct colors; the enumerator below only produces color-distinct
    closed walks.

    A NamedTuple, built from `start` and `steps` alone: `__new__` derives
    the vertex and color bitmasks (bit i set for each vertex or color i)
    once, and a negative vertex or color has no bit, and raises
    ValueError there.  `closed_walks` and `involute` hold the masks
    already, and build through `tuple.__new__` (`closed_walks` by way of
    `_walk`), which skips `__new__`; the
    mask test of `tests/test_involution.py` compares their walks with
    `Walk(start, steps)`.  Equality and hashing read every field, and the
    masks follow from the first two, so two walks are equal when their
    starts and steps are.  Whether a walk is closed, simple or
    color-distinct is the involution's to test (`classify`), from
    `steps` and the masks.  As a tuple, a walk equals the plain
    tuple of its fields and sorts as one; `len(walk)` counts those
    fields (`length` counts the steps), and `_replace` and `_make` skip
    `__new__`, so they derive nothing.  The repr shows `start` and
    `steps`.
    """

    __slots__ = ()

    def __new__(cls, start: int, steps: tuple[tuple[int, int], ...]):
        vmask = 1 << start
        cmask = 0
        for v, c in steps:
            vmask |= 1 << v
            cmask |= 1 << c
        return super().__new__(cls, start, steps, vmask, cmask)

    def __getnewargs__(self):
        return self.start, self.steps

    def __repr__(self) -> str:
        return f"Walk(start={self.start!r}, steps={self.steps!r})"

    @property
    def length(self) -> int:
        return len(self.steps)

    def edges(self) -> Iterator[Edge]:
        u = self.start
        for v, c in self.steps:
            yield (u, v, c)
            u = v

    def weight(self, g: ColoredDigraph) -> int | Poly:
        """The product of the edge weights, each read through
        `ColoredDigraph.weight`, which raises ValueError on an edge or a
        color the graph lacks."""
        out, u = 1, self.start
        for v, c in self.steps:
            out *= g.weight(u, v, c)
            u = v
        return out


def _walk(start: int, steps: tuple[tuple[int, int], ...], vertex_mask: int,
          color_mask: int) -> Walk:
    """The walk on `start` and `steps` with the masks its builder already
    holds, unchecked, as `Walk._make` would make it."""
    return tuple.__new__(Walk, (start, steps, vertex_mask, color_mask))


def _cycle_masks(cycle: tuple[Edge, ...]) -> tuple[int, int]:
    """The vertex and color bitmasks of one cycle's edges."""
    vmask = cmask = 0
    for u, _, c in cycle:
        vmask |= 1 << u
        cmask |= 1 << c
    return vmask, cmask


class LinearSubdigraph(NamedTuple):
    """Vertex-disjoint colored cycles, color-distinct across the whole set.

    Canonical form: each cycle starts at its smallest vertex and the
    cycles are sorted by that vertex, so equal subdigraphs are equal as
    objects.  The empty instance, `EMPTY_SUBDIGRAPH`, is a valid value
    used by the walk/subdigraph pairing, but is never enumerated.

    A NamedTuple of the canonical cycles and their vertex and color
    bitmasks (bit i set for each vertex or color i).  Each builder passes
    the masks it already holds: `linear_subdigraphs` those `_cycles_at`
    grew, `_add_cycle` (under `with_cycle`, the excise and the GOOD
    grouping) this instance's with one cycle's bits added, and
    `involute`'s splice this instance's with one cycle's bits taken out.
    `make_subdigraph` is the entry for hand-built cycles: it checks and
    canonicalizes them and computes their masks.  Equality and hashing
    read every field, and the masks follow from the cycles for every
    value those builders make.  As a tuple, a subdigraph equals the plain
    tuple of its fields and sorts as one; `len` counts those fields
    (`length` counts the edges), and `_replace` and `_make` take masks
    unchecked.  The repr shows `cycles`.  Disjoint cycles have one edge
    per vertex, so `length` is read off the vertex mask, which also
    stands for the vertex set; `colors` gives the color set as a
    frozenset.
    """

    cycles: tuple[tuple[Edge, ...], ...]
    vertex_mask: int
    color_mask: int

    def __repr__(self) -> str:
        return f"LinearSubdigraph(cycles={self.cycles!r})"

    @property
    def length(self) -> int:
        return self.vertex_mask.bit_count()

    @property
    def colors(self) -> frozenset[int]:
        return frozenset(e[2] for cycle in self.cycles for e in cycle)

    def with_cycle(self, cycle: Iterable[Edge]) -> LinearSubdigraph:
        """This subdigraph plus `cycle`, whose vertices and colors are not
        checked against its own: `_add_cycle` with the cycle's masks."""
        edges = tuple(cycle)
        return _add_cycle(self, edges, *_cycle_masks(edges))

    def weight(self, g: ColoredDigraph) -> int | Poly:
        """As `Walk.weight`: the product of `ColoredDigraph.weight` over
        the edges of every cycle."""
        return prod(g.weight(u, v, c) for cycle in self.cycles for u, v, c in cycle)


EMPTY_SUBDIGRAPH = LinearSubdigraph((), 0, 0)


def _add_cycle(gamma: LinearSubdigraph, edges: tuple[Edge, ...], vertex_mask: int,
               color_mask: int) -> LinearSubdigraph:
    """`gamma` plus the cycle `edges`, whose vertex and color masks the
    caller holds, unchecked.  Only the new cycle is rotated to its least
    vertex, and a plain tuple sort orders the cycles by that vertex, which
    differs from cycle to cycle."""
    pivot = edges.index(min(edges))  # the edge out of the least vertex
    cycle = edges[pivot:] + edges[:pivot]
    return tuple.__new__(LinearSubdigraph, (tuple(sorted((*gamma.cycles, cycle))),
                                            gamma.vertex_mask | vertex_mask,
                                            gamma.color_mask | color_mask))


def make_subdigraph(cycles: Iterable[Iterable[Edge]]) -> LinearSubdigraph:
    """The canonical subdigraph on hand-built cycles, added one at a time
    through `with_cycle`, so their masks are computed once.  Raises
    ValueError when a cycle's edges do not chain head to tail and close,
    when the cycles share a vertex or a color, or one of them repeats a
    vertex or a color."""
    out = EMPTY_SUBDIGRAPH
    for cycle in map(tuple, cycles):
        # at i = 0 the last edge's head meets the first edge's tail; an
        # empty edge list does not close
        if not cycle or any(cycle[i - 1][1] != cycle[i][0] for i in range(len(cycle))):
            raise ValueError("a cycle's edges must chain head to tail and close")
        grown = out.with_cycle(cycle)
        if grown.length != out.length + len(cycle) or grown.color_mask.bit_count() != grown.length:
            raise ValueError("cycles must be vertex-disjoint and color-distinct")
        out = grown
    return out


def _cycles_at(g: ColoredDigraph, head: int, used_v: int, used_c: int, budget: int) -> list:
    """(cycle, vertex mask, color mask) for each colored cycle with least
    vertex `head` that avoids the masks `used_v` and `used_c`, in tuple
    order: depth first through free vertices above `head`, one free color
    per step, successors and colors increasing.  The masks are grown by the
    cycle's own vertices and colors.  Each edge takes one color, so
    `budget`, at most `g.colors` and above `used_c`'s color count, caps
    the colors of the grown mask: a step into a vertex further from `head`
    than the colors left after it is not taken; with no color left only
    `head` is within reach, so the search never passes the last color."""
    path: list[Edge] = []
    out: list = []
    reach = g._back[head, head]
    colors = range(1, g.colors + 1)

    def grow(u: int, vmask: int, cmask: int) -> None:
        left = budget - cmask.bit_count() - 1  # colors left after this step
        # the free vertices above head that can close within `left` edges
        ahead = reach[min(left, len(reach) - 1)] & ~vmask
        for v in g._out[u]:
            if v != head and not ahead >> v & 1:
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
    injective assignment of colors to its edges appears once.

    `perfbench/tracer.py` wraps this function by name, so deleting it breaks
    `--trace 1` and `test_traced_counts_repeat`."""
    return [
        cycle
        for head in range(1, g.n + 1)
        for cycle, _, _ in _cycles_at(g, head, 0, 0, g.colors)
    ]


def linear_subdigraphs(g: ColoredDigraph, max_length: int) -> list[LinearSubdigraph]:
    """All (nonempty) linear subdigraphs of 1 to `max_length` edges, depth
    first, each node's children in (head, cycle) order.

    Heads strictly increase along a subdigraph, as in the clow sequences
    of `linear_subdigraph_buckets`: each free head above the last offers
    the cycles `_cycles_at` finds on the vertices and colors still free.
    The cap is required, as for `closed_walks`.  Each edge takes one
    color, so the search stops at min(max_length, k) colors;
    `linear_subdigraphs(g, g.colors)` gives every subdigraph, and a
    smaller cap gives that list without the longer ones, in the same
    order, as a subdigraph's descendants are longer than it.
    """
    budget = min(max_length, g.colors)
    out: list[LinearSubdigraph] = []

    def extend(low: int, chosen: list[tuple[Edge, ...]], used_v: int, used_c: int) -> None:
        if used_c.bit_count() >= budget:  # no color left for another cycle
            return
        for head in range(low, g.n + 1):
            if used_v >> head & 1:
                continue
            for cycle, vmask, cmask in _cycles_at(g, head, used_v, used_c, budget):
                chosen.append(cycle)
                out.append(LinearSubdigraph(tuple(chosen), vmask, cmask))
                extend(head + 1, chosen, vmask, cmask)
                chosen.pop()

    extend(1, [], 0, 0)
    return out


def closed_walks(g: ColoredDigraph, max_length: int) -> list[Walk]:
    """All closed colored walks of 1 to `max_length` steps, in depth-first
    order from each root in turn.

    The cap is required.  The distinct-color rule caps every walk at k
    steps, so `closed_walks(g, g.colors)` gives every closed walk, and a
    caller that needs every length up to r passes r and makes one pass;
    the walks of each length keep their order.  A step into a vertex
    further from the root than the steps left after it is not taken:
    each root's reach list (`ColoredDigraph._back`) is read once, into a
    table of the vertices within each count of steps left.
    """
    cap = min(max_length, g.colors)
    colors = range(1, g.colors + 1)
    successors = g._out
    out: list[Walk] = []

    def extend(root: int, current: int, steps: list[tuple[int, int]], used_v: int,
               used_c: int) -> None:
        if steps and current == root:
            out.append(_walk(root, tuple(steps), used_v, used_c))
        left = cap - len(steps) - 1  # steps left after this one
        if left < 0:
            return
        within = ahead[left]  # the vertices within `left` edges of root
        for v in successors[current]:
            if not within >> v & 1:
                continue
            for c in colors:
                if used_c >> c & 1:
                    continue
                steps.append((v, c))
                extend(root, v, steps, used_v | 1 << v, used_c | 1 << c)
                steps.pop()

    for root in range(1, g.n + 1):
        # `extend` reads this root's table: steps left -> the vertices within
        # that many edges of root, reach[-1] past the end of the reach list
        reach = g._back[root, 1]
        ahead = [reach[min(left, len(reach) - 1)] for left in range(cap)]
        extend(root, root, [], 1 << root, 0)
    return out


def _step(layer: dict, g: ColoredDigraph, low: int) -> dict:
    """One step of every walk in `layer`, a map used-color mask -> {vertex
    -> weight sum}: in every unused color, along every edge of that color
    (`ColoredDigraph._out_by_color`) into a vertex >= `low`.  The result is
    keyed the same way, and holds no empty vector; an empty vector in
    `layer` is skipped.  Each mask's vector is pushed one color at a time
    into the vector of the mask with that color added, so no key is built
    per edge; each (vertex, mask) state costs at most n * k weight
    products."""
    nxt: dict = {}
    tables = g._out_by_color
    for mask, vec in layer.items():
        if not vec:
            continue
        for c, table in tables.items():
            if mask >> c & 1:
                continue
            key = mask | 1 << c
            out = nxt.get(key) or {}
            for u, val in vec.items():
                for v, w in table[u]:
                    if v >= low:
                        term = val * w
                        out[v] = out[v] + term if v in out else term
            if out:
                nxt[key] = out
    return nxt


def closed_walk_buckets(g: ColoredDigraph) -> dict[int, int | Poly]:
    """Color mask -> weight sum of the closed walks with that color set,
    whose length is the mask's color count.

    The map equals `closed_walks(g, g.colors)`, every closed walk,
    grouped by `color_mask`, with a key for every mask some walk has,
    even when its sum is zero; but no walk is built.  For each root, a
    layer maps each used-color mask to {vertex: weight sum of the walks
    from the root that end there}, and `_step` pushes it along every edge
    in every unused color.  The root's entry in a mask's vector sums the
    closed walks with that color set, and `sums` adds it up by mask over
    the roots; walks go on past the root, as in `closed_walks`.  Every
    mask has one length, so a root costs at most n * 2^k states times
    n * k weight products.
    """
    sums: dict = {}
    for root in range(1, g.n + 1):
        layer = {0: {root: 1}}
        for _ in range(g.colors):
            layer = _step(layer, g, 1)
            for mask, vec in layer.items():
                if root in vec:
                    val = vec[root]
                    sums[mask] = sums[mask] + val if mask in sums else val
    return sums


def linear_subdigraph_buckets(g: ColoredDigraph) -> dict[int, int | Poly]:
    """Color mask -> sum of (-1)^(cycle count) * weight over the linear
    subdigraphs with that color set, whose length is the mask's color
    count.

    The sum runs over clow sequences instead (Mahajan and Vinay 1997).  A
    clow is a closed walk whose head, its least vertex, appears only at
    its ends.  A sequence has strictly increasing heads and distinct
    colors, and counts (-1)^(clow count) * weight.  Splicing a later clow
    into an earlier one it meets, or excising a cycle a clow closes, pairs
    off the sequences that are not linear subdigraphs with opposite signs
    (the splice/excise move of Theorem 2), so only the subdigraphs remain.
    `done` maps a color mask to the signed sum of the finished sequences
    with heads below h.  For head h they wait at vertex h in their mask's
    vector; the clow steps through vertices > h, and each return to h is
    popped from its vector and subtracted from `done`.  A step adds one
    color, so a waiting sequence joins the layer at the step where its
    color count comes up: each (vertex, mask) is pushed once per head, at
    most n^2 * 2^k states times n * k weight products in all.  Every mask
    some sequence reaches has a key, even when its sum is zero.
    """
    done = {0: 1}
    for h in range(1, g.n + 1):
        start = list(done.items())
        layer: dict = {}
        for count in range(g.colors):
            for mask, val in start:
                if mask.bit_count() == count:
                    layer.setdefault(mask, {})[h] = val
            layer = _step(layer, g, h)
            for mask, vec in layer.items():
                if h in vec:
                    val = vec.pop(h)
                    done[mask] = done[mask] - val if mask in done else -val
    del done[0]
    return done


def _lookup(buckets, g: ColoredDigraph, size: int, colors: Iterable[int]) -> Poly:
    """The sum of `buckets(g)` at the mask of `colors`, as a `Poly`: 1 at
    size 0 with no colors (the empty object), 0 when `size` is not the
    color count or a color is outside 1..k, and 0 for a mask the map
    lacks.  A color named twice counts once."""
    colors = set(colors)
    if size != len(colors) or not all(1 <= c <= g.colors for c in colors):
        return Poly.zero()
    if not colors:
        return Poly.one()
    value = buckets(g).get(sum(1 << c for c in colors), 0)
    return value if isinstance(value, Poly) else Poly.const(value)


def linear_subdigraph_sum(g: ColoredDigraph, p: int, colors: Iterable[int]) -> Poly:
    """ell(g, p, S): sum of (-1)^(cycle count) * weight over subdigraphs
    with p edges and color set exactly S, looked up in
    `linear_subdigraph_buckets` and returned as a `Poly`.

    Conventions: 1 when p = 0 and S is empty (the empty subdigraph), 0
    whenever p != |S| (a subdigraph's edge and color counts agree).
    """
    return _lookup(linear_subdigraph_buckets, g, p, colors)


def closed_walk_sum(g: ColoredDigraph, q: int, colors: Iterable[int]) -> Poly:
    """c(g, q, T): sum of weights over closed walks of length q with color
    set exactly T, looked up in `closed_walk_buckets` and returned as a
    `Poly`.

    Conventions: 1 when q = 0 and T is empty (the empty walk), 0 whenever
    q != |T| (a walk's length and color count agree).
    """
    return _lookup(closed_walk_buckets, g, q, colors)
