"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random

from girardlab import ColoredDigraph, parse_digraph, random_digraph

# Enough distinct primes for 9 vertex pairs x 3 colors.
PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103,
]


def pattern_graph(n: int, k: int, mask: int) -> ColoredDigraph:
    """The graph whose edge set is the mask-th subset of all ordered pairs,
    with a distinct prime weight on every colored edge.

    Distinct primes make every walk/subdigraph weight identify its edge
    multiset, so miscounted enumerations cannot cancel silently.
    """
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edges = {}
    for idx, pair in enumerate(pairs):
        if mask >> idx & 1:
            edges[pair] = [PRIMES[idx * k + c] for c in range(k)]
    return ColoredDigraph(n, k, edges)


def all_pattern_graphs(n: int, k: int):
    """Every edge-presence pattern on n vertices with k colors."""
    for mask in range(1 << (n * n)):
        yield pattern_graph(n, k, mask)


def permute_vertices(g: ColoredDigraph, perm: dict[int, int]) -> ColoredDigraph:
    """Relabel vertices through a permutation of 1..n."""
    edges = {
        (perm[u], perm[v]): list(weights) for (u, v), weights in g.edges.items()
    }
    return ColoredDigraph(g.n, g.colors, edges)


def parsed_dense_graph(n: int, k: int, seed: int) -> ColoredDigraph:
    """A dense graph read from JSON text, as the CLI reads a graph file."""
    rng = random.Random(seed)
    pool = [w for w in range(-3, 4) if w]
    edges = [{"from": u, "to": v, "weights": [rng.choice(pool) for _ in range(k)]}
             for u in range(1, n + 1) for v in range(1, n + 1)]
    return parse_digraph(json.dumps({"n": n, "colors": k, "edges": edges}))


# Integer-weight graphs, one read from a file's text and one random.
INT_GRAPHS = [parsed_dense_graph(4, 4, seed=5), random_digraph(4, 3, 0.7, 3, seed=21)]
