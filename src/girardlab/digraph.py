"""Colored digraphs with integer or polynomial edge weights.

A graph has vertices 1..n and colors 1..k.  Between any ordered pair
(u, v) either no edge exists or all k parallel colored edges exist, each
carrying a nonzero weight; self-loops are allowed.  A weight is a plain
`int` or a `Poly`: file and random graphs carry ints, so the DPs multiply
ints on them, and the all-loops graph carries symbolic `Poly` weights.
The JSON file format carries integer weights only:

    {"n": 2, "colors": 1, "edges": [{"from": 1, "to": 2, "weights": [3]}]}

with edges sorted by (from, to).  A duplicate (from, to) pair or a
non-integer weight is a parse error; semantic problems (zero weight,
wrong weights length, out-of-range endpoint) are reported by `validate`
after parsing.  Other keys, at the top level or in an edge object, are
read past and ignored: a file with `"extra": 1` is the graph of the same
file without it.

The `ColoredDigraph` constructor is the one way to build a graph: it
checks every weight and freezes a copy of the edge map, so no graph holds
a float or a bool, and no caller can change a graph's edges after it is
built.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .poly import Poly, avar

__all__ = [
    "ColoredDigraph",
    "validate",
    "self_loop_digraph",
    "random_digraph",
    "serialize_digraph",
    "parse_digraph",
    "GraphFormatError",
]


class GraphFormatError(ValueError):
    """Raised when graph JSON text cannot be parsed into a digraph."""


class ColoredDigraph:
    """n vertices (1-based), k colors (1-based), all-or-none colored edges.

    The constructor keeps each weight as the `int` or `Poly` it is, one
    tuple per edge, and raises TypeError on any other weight (bool and
    float included): exact arithmetic takes integer and polynomial
    weights only.  The edge map is a read-only view of a fresh dict, so
    the caller's mapping stays the caller's; `edges=None` gives no edges.
    `colors` is the color count k; the color set is 1..k, and a caller
    that needs it as a set builds `range(1, k + 1)`.

    Immutable: assigning or deleting an attribute raises AttributeError.
    Equal to another graph when n, colors and edges are; unhashable, as
    its edge map is.  Unlike the NamedTuple value classes it keeps a
    `__dict__`, where `_out`, `_out_by_color` and `_back` are cached on
    first use, and which `copy.copy` fills in past the guard.
    """

    # a plain class, not a frozen dataclass: `dataclasses` and the
    # `inspect`, `ast` and `dis` it imports took longer to load than the
    # rest of `import girardlab.cli`, which every CLI invocation pays first

    def __init__(self, n: int, colors: int,
                 edges: Mapping[tuple[int, int], Iterable[int | Poly]] | None = None):
        frozen: dict[tuple[int, int], tuple[int | Poly, ...]] = {}
        for pair, weights in (edges or {}).items():
            frozen[pair] = weights = tuple(weights)
            for w in weights:
                if isinstance(w, bool) or not isinstance(w, (int, Poly)):
                    raise TypeError(f"edge {pair} weight must be an int or a Poly, got {w!r}")
        put = object.__setattr__
        put(self, "n", n)
        put(self, "colors", colors)
        put(self, "edges", MappingProxyType(frozen))

    def __repr__(self) -> str:
        return f"ColoredDigraph(n={self.n!r}, colors={self.colors!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.colors, self.edges) == (other.n, other.colors, other.edges)

    def weight(self, u: int, v: int, color: int) -> int | Poly:
        """Weight of the color-th parallel edge from u to v."""
        try:
            weights = self.edges[(u, v)]
        except KeyError:
            raise ValueError(f"no edge from {u} to {v}") from None
        if not 1 <= color <= len(weights):
            raise ValueError(f"no color {color} on edge ({u}, {v})")
        return weights[color - 1]

    def successors(self, u: int) -> list[int]:
        return list(self._out.get(u, ()))

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        """u -> the heads of its out-edges, in increasing order, for every
        vertex u in 1..n: the table the searches and `_back` read, and
        `_out_by_color` is built from.  An edge carries every color, so
        the searches take the colors 1..k in order.  Built on first use."""
        return {
            u: tuple(sorted(v for uu, v in self.edges if uu == u))
            for u in range(1, self.n + 1)
        }

    @cached_property
    def _out_by_color(self) -> dict[int, dict[int, tuple]]:
        """color c -> u -> the out-edges of u in color c as (v, weight), in
        the order of `_out`, for every color c in 1..k and vertex u in
        1..n: the table the DPs' `_step` reads, one color at a time.  Built
        on first use from `_out`, through `weight`, so an edge with fewer
        than k weights raises ValueError here."""
        return {
            c: {u: tuple((v, self.weight(u, v, c)) for v in heads)
                for u, heads in self._out.items()}
            for c in range(1, self.colors + 1)
        }

    @cached_property
    def _back(self) -> dict[tuple[int, int], list[int]]:
        """(target, low) -> reach, where bit v of reach[d] is set when some
        path of at most d edges leads from v to target through vertices >=
        low, for every target in 1..n with low = target (the cycles with
        head target) and low = 1 (the closed walks with root target).  The
        list stops where it stops growing, at most at d = k, so past its end
        reach[-1] holds.  Built on first use, by a search back along
        `_out`."""
        into: dict[int, list[int]] = {}
        for u, heads in self._out.items():
            for v in heads:
                into.setdefault(v, []).append(u)
        table = {}
        for target in range(1, self.n + 1):
            for low in {target, 1}:
                seen, frontier = 1 << target, [target]
                reach = table[target, low] = [seen]
                while frontier and len(reach) <= self.colors:
                    step = []
                    for v in frontier:
                        for u in into.get(v, ()):
                            if u >= low and not seen >> u & 1:
                                seen |= 1 << u
                                step.append(u)
                    if step:
                        reach.append(seen)
                    frontier = step
        return table


def validate(g: ColoredDigraph) -> list[str]:
    """Return all structural violations as strings (empty when well formed)."""
    problems = []
    if g.n < 1:
        problems.append(f"vertex count must be >= 1, got {g.n}")
    if g.colors < 1:
        problems.append(f"color count must be >= 1, got {g.colors}")
    for (u, v), weights in sorted(g.edges.items()):
        if not (1 <= u <= g.n and 1 <= v <= g.n):
            problems.append(f"edge ({u}, {v}) endpoint out of range 1..{g.n}")
        if len(weights) != g.colors:
            problems.append(
                f"edge ({u}, {v}) carries {len(weights)} weights, expected {g.colors}"
            )
        for idx, w in enumerate(weights, start=1):
            if not w:
                problems.append(f"edge ({u}, {v}) color {idx} has zero weight")
    return problems


def self_loop_digraph(n: int, r: int) -> ColoredDigraph:
    """The all-loops graph: r colored self-loops at each of n vertices.

    The loop at vertex j with color i weighs the symbolic variable
    a[j]^(i).  There are no edges between distinct vertices.  This is the
    graph on which the colored Newton-Girard identity specializes to its
    multi-alphabet form.
    """
    if n < 1 or r < 1:
        raise ValueError("self_loop_digraph requires n, r >= 1")
    edges = {
        (j, j): tuple(Poly.variable(avar(j, i)) for i in range(1, r + 1))
        for j in range(1, n + 1)
    }
    return ColoredDigraph(n, r, edges)


def random_digraph(
    n: int,
    k: int,
    edge_density: float,
    weight_bound: int,
    seed: int,
) -> ColoredDigraph:
    """A seeded random graph with integer weights.

    Each ordered pair (u, v), self-pairs included, is present independently
    with probability edge_density; a present pair carries k weights drawn
    uniformly from the nonzero integers in [-weight_bound, weight_bound].
    The same seed always produces the same graph.
    """
    if n < 1 or k < 1:
        raise ValueError("random_digraph requires n, k >= 1")
    if not 0.0 < edge_density <= 1.0:
        raise ValueError("edge_density must be in (0, 1]")
    if weight_bound < 1:
        raise ValueError("weight_bound must be >= 1")
    rng = random.Random(seed)
    edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if rng.random() < edge_density:
                # entry i of the nonzero integers in [-W, W], in increasing
                # order, as rng.choice would draw it from that list of 2W
                # entries, without building the list
                indices = (rng.randrange(2 * weight_bound) for _ in range(k))
                edges[(u, v)] = tuple(i - weight_bound + (i >= weight_bound) for i in indices)
    return ColoredDigraph(n, k, edges)


def serialize_digraph(g: ColoredDigraph) -> str:
    """Canonical JSON text.  Only integer-weighted graphs serialize: a
    `Poly` weight, a constant one included, raises ValueError."""
    edge_list = []
    for (u, v), weights in sorted(g.edges.items()):
        if any(isinstance(w, Poly) for w in weights):
            raise ValueError(
                f"edge ({u}, {v}) has a symbolic weight; only integer "
                "weights serialize"
            )
        edge_list.append({"from": u, "to": v, "weights": list(weights)})
    obj = {"n": g.n, "colors": g.colors, "edges": edge_list}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require_int(value, what: str) -> int:
    # bool is an int subclass; the file format means actual integers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{what} must be an integer, got {value!r}")
    return value


def parse_digraph(text: str) -> ColoredDigraph:
    """Parse the JSON format.  Inverse of serialize_digraph on its output.

    Raises GraphFormatError with position information on malformed JSON,
    without it on JSON too deep or with a number too long to parse, and on
    schema violations (missing fields, non-integer weights, duplicate
    edges).  Unknown keys are ignored, as the format says.  Semantic
    violations are left to `validate`.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise GraphFormatError("a number has too many digits") from None
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise GraphFormatError("top level must be a JSON object")
    for fieldname in ("n", "colors", "edges"):
        if fieldname not in obj:
            raise GraphFormatError(f"missing field {fieldname!r}")
    n = _require_int(obj["n"], "field 'n'")
    colors = _require_int(obj["colors"], "field 'colors'")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError("field 'edges' must be a list")
    edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for idx, entry in enumerate(raw_edges):
        where = f"edges[{idx}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where} must be an object")
        for fieldname in ("from", "to", "weights"):
            if fieldname not in entry:
                raise GraphFormatError(f"{where}: missing field {fieldname!r}")
        u = _require_int(entry["from"], f"{where}.from")
        v = _require_int(entry["to"], f"{where}.to")
        raw_weights = entry["weights"]
        if not isinstance(raw_weights, list):
            raise GraphFormatError(f"{where}.weights must be a list")
        weights = tuple(
            _require_int(w, f"{where}.weights[{wi}]") for wi, w in enumerate(raw_weights)
        )
        if (u, v) in edges:
            raise GraphFormatError(f"{where}: duplicate edge ({u}, {v})")
        edges[(u, v)] = weights
    return ColoredDigraph(n, colors, edges)
