import random
from itertools import combinations
from math import prod

import pytest

from girardlab import (
    BAD,
    EMPTY_SUBDIGRAPH,
    ColoredDigraph,
    LinearSubdigraph,
    Poly,
    Walk,
    classify,
    closed_walk_buckets,
    closed_walk_sum,
    closed_walks,
    colored_cycles,
    enumerate_pairs,
    involute,
    linear_subdigraph_buckets,
    linear_subdigraph_sum,
    linear_subdigraphs,
    make_digraph,
    make_subdigraph,
    random_digraph,
    self_loop_digraph,
    verify_walk_cycle_identity,
    xvar,
)

from _support import INT_GRAPHS, all_pattern_graphs, parsed_dense_graph, permute_vertices


def two_cycle_graph(k: int = 2) -> ColoredDigraph:
    return make_digraph(2, k, {(1, 2): [2] * k, (2, 1): [3] * k})


def walks_of_length(g: ColoredDigraph, q: int) -> list[Walk]:
    """The closed walks with q steps, in enumeration order."""
    return [w for w in closed_walks(g) if w.length == q]


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def test_walk_basic_queries():
    w = Walk(1, ((2, 1), (1, 2)))
    assert w.length == 2
    assert w.end == 1
    assert w.is_closed
    assert w.colors == frozenset({1, 2})
    assert w.vertex_seq() == (1, 2, 1)
    assert w.is_simple
    assert list(w.edges()) == [(1, 2, 1), (2, 1, 2)]


def test_walk_open_and_nonsimple():
    open_w = Walk(1, ((2, 1),))
    assert open_w.end == 2
    assert not open_w.is_closed
    assert not open_w.is_simple
    trivial = Walk(3, ())
    assert trivial.end == 3
    assert trivial.is_closed
    assert not trivial.is_simple  # zero steps never count as a cycle
    revisit = Walk(1, ((2, 1), (2, 2), (1, 3)))
    assert revisit.is_closed
    assert not revisit.is_simple


def test_walk_weight_multiplies_edge_weights():
    g = two_cycle_graph(k=2)
    w = Walk(1, ((2, 1), (1, 2)))
    assert w.weight(g) == Poly.const(6)


def _bits(items) -> int:
    return sum(1 << i for i in set(items))


def _facts_graphs():
    rng = random.Random(808)
    graphs = [random_digraph(rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.5, 1.0]),
                             5, seed=rng.randrange(10**6)) for _ in range(6)]
    return graphs + [self_loop_digraph(2, 3)]


def test_walk_and_subdigraph_facts_agree_with_their_definitions():
    # a walk's masks, vertex sequence and is_simple are derived once, at
    # construction, from its steps; an enumerated subdigraph's masks and
    # length must be what its cycles give
    seen = 0
    for g in _facts_graphs():
        # and a walk of no steps, an open one, a closed non-simple one, and an
        # open one with as many distinct vertices as steps
        extra = [Walk(1, ()), Walk(1, ((2, 1),)), Walk(1, ((1, 1), (1, 2))),
                 Walk(1, ((2, 1), (2, 2)))]
        for w in closed_walks(g) + extra:
            seq = w.vertex_seq()
            assert seq == (w.start,) + tuple(v for v, _ in w.steps)
            assert w.vertex_mask == _bits(seq)
            assert w.color_mask == _bits(w.colors)
            interior = seq[:-1]
            simple = bool(w.steps) and w.is_closed and len(set(interior)) == len(interior)
            assert w.is_simple == simple
            seen += 1
        for gamma in linear_subdigraphs(g) + [EMPTY_SUBDIGRAPH]:
            assert gamma.vertex_mask == _bits(gamma.vertices)
            assert gamma.color_mask == _bits(gamma.colors)
            assert gamma.length == sum(len(c) for c in gamma.cycles)
            seen += 1
    assert seen > 500


def test_weights_are_the_products_of_the_graph_weights():
    for g in _facts_graphs():
        for w in closed_walks(g):
            assert w.weight(g) == prod(g.weight(u, v, c) for u, v, c in w.edges())
        for gamma in linear_subdigraphs(g) + [EMPTY_SUBDIGRAPH]:
            edges = [e for cycle in gamma.cycles for e in cycle]
            assert gamma.weight(g) == prod(g.weight(u, v, c) for u, v, c in edges)


def test_a_missing_edge_or_color_raises_the_graph_error():
    g = make_digraph(2, 2, {(1, 1): [2, 3], (1, 2): [5, 7], (2, 1): [11]})
    for walk, message in [
        (Walk(2, ((2, 1),)), "no edge from 2 to 2"),
        (Walk(1, ((2, 1), (2, 2))), "no edge from 2 to 2"),
        (Walk(1, ((1, 3),)), r"no color 3 on edge \(1, 1\)"),
        (Walk(1, ((1, 0),)), r"no color 0 on edge \(1, 1\)"),
        (Walk(1, ((2, 1), (1, 2))), r"no color 2 on edge \(2, 1\)"),  # a short weight tuple
    ]:
        with pytest.raises(ValueError, match=message):
            walk.weight(g)
    for cycles, message in [
        ([[(2, 2, 1)]], "no edge from 2 to 2"),
        ([[(1, 1, 3)]], r"no color 3 on edge \(1, 1\)"),
        ([[(1, 2, 1), (2, 1, 2)]], r"no color 2 on edge \(2, 1\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            make_subdigraph(cycles).weight(g)
    assert Walk(1, ((2, 2), (1, 1))).weight(g) == 7 * 11


# ---------------------------------------------------------------------------
# subdigraphs
# ---------------------------------------------------------------------------


def test_make_subdigraph_canonicalizes():
    rotated = make_subdigraph([[(3, 2, 2), (2, 3, 1)]])
    straight = make_subdigraph([[(2, 3, 1), (3, 2, 2)]])
    assert rotated == straight
    assert rotated.cycles[0][0][0] == 2  # starts at the smallest vertex
    pair = make_subdigraph([[(4, 4, 1)], [(2, 2, 3)]])
    assert [c[0][0] for c in pair.cycles] == [2, 4]  # sorted by start


def test_make_subdigraph_refuses_cycles_that_meet():
    for cycles in [
        [[(1, 1, 1)], [(1, 1, 2)]],  # a shared vertex
        [[(1, 1, 1)], [(2, 2, 1)]],  # a shared color
        [[(1, 2, 1), (2, 1, 1)]],  # a color twice in one cycle
        [[(1, 2, 1), (2, 1, 2), (1, 1, 3)]],  # a vertex twice in one cycle
    ]:
        with pytest.raises(ValueError, match="vertex-disjoint and color-distinct"):
            make_subdigraph(cycles)


def test_make_subdigraph_refuses_edges_that_do_not_form_a_cycle():
    for cycles in [
        [[(1, 2, 1), (3, 1, 2)], [(2, 2, 3)]],  # 1 -> 2, then 3 -> 1
        [[(1, 2, 1), (3, 1, 2)]],
        [[(1, 2, 1)]],  # never closes
    ]:
        with pytest.raises(ValueError, match="chain head to tail and close"):
            make_subdigraph(cycles)


def test_subdigraph_queries():
    gamma = make_subdigraph([[(1, 2, 1), (2, 1, 2)], [(3, 3, 3)]])
    assert gamma.length == 3
    assert gamma.cycle_count == 2
    assert gamma.vertices == frozenset({1, 2, 3})
    assert gamma.colors == frozenset({1, 2, 3})
    assert gamma.cycle_containing(2) == ((1, 2, 1), (2, 1, 2))
    with pytest.raises(ValueError):
        gamma.cycle_containing(4)
    assert EMPTY_SUBDIGRAPH.length == 0
    assert EMPTY_SUBDIGRAPH.vertices == frozenset()


def test_colored_cycles_loop_graph():
    cycles = colored_cycles(self_loop_digraph(2, 2))
    # two loops x two colors
    assert sorted(cycles) == [
        ((1, 1, 1),),
        ((1, 1, 2),),
        ((2, 2, 1),),
        ((2, 2, 2),),
    ]


def test_colored_cycles_two_cycle_graph():
    cycles = colored_cycles(two_cycle_graph(k=2))
    assert sorted(cycles) == [
        ((1, 2, 1), (2, 1, 2)),
        ((1, 2, 2), (2, 1, 1)),
    ]


def test_colored_cycles_triangle_counts_color_orders():
    g = make_digraph(3, 3, {(1, 2): [1] * 3, (2, 3): [1] * 3, (3, 1): [1] * 3})
    cycles = colored_cycles(g)
    assert len(cycles) == 6  # one shape, 3! injective colorings
    assert all(c[0][0] == 1 for c in cycles)
    assert len(set(cycles)) == 6


def test_linear_subdigraph_census_on_the_loop_graph():
    g = self_loop_digraph(2, 2)
    everything = linear_subdigraphs(g)
    assert len(everything) == 6  # 4 single loops + 2 disjoint loop pairs
    assert len([s for s in everything if s.cycle_count == 2]) == 2


def test_linear_subdigraphs_are_disjoint_and_unique():
    rng = random.Random(52)
    for _ in range(12):
        g = random_digraph(4, 3, 0.6, 3, seed=rng.randrange(10**6))
        subs = linear_subdigraphs(g)
        assert len(subs) == len(set(subs))
        for s in subs:
            assert s.cycle_count >= 1
            assert sum(len(c) for c in s.cycles) == s.length
            seen_v: set[int] = set()
            seen_c: set[int] = set()
            for cycle in s.cycles:
                verts = {e[0] for e in cycle}
                cols = {e[2] for e in cycle}
                assert len(cols) == len(cycle)
                assert not verts & seen_v
                assert not cols & seen_c
                seen_v |= verts
                seen_c |= cols


def test_closed_walk_census_on_the_loop_graph():
    g = self_loop_digraph(2, 2)
    walks = closed_walks(g)
    assert len(walks) == 8  # per vertex: 2 one-step + 2 two-step color orders
    assert len(walks_of_length(g, 1)) == 4
    assert len(walks_of_length(g, 2)) == 4
    assert len(walks_of_length(g, 5)) == 0  # capped by the color count
    assert all(w.is_closed for w in walks)
    assert all(len(w.colors) == w.length for w in walks)


def test_closed_walks_distinguish_roots():
    walks = walks_of_length(two_cycle_graph(k=2), 2)
    assert len(walks) == 4
    assert {w.start for w in walks} == {1, 2}


# ---------------------------------------------------------------------------
# the two generating sums
# ---------------------------------------------------------------------------


def test_subdigraph_sum_conventions():
    g = self_loop_digraph(2, 2)
    assert linear_subdigraph_sum(g, 0, []) == Poly.one()
    assert linear_subdigraph_sum(g, 1, {1, 2}) == Poly.zero()
    assert linear_subdigraph_sum(g, 2, {1}) == Poly.zero()


def test_subdigraph_sum_loop_graph_values():
    g = self_loop_digraph(2, 2)
    assert str(linear_subdigraph_sum(g, 1, {1})) == "-a[1]^(1) - a[2]^(1)"
    assert (
        str(linear_subdigraph_sum(g, 2, {1, 2}))
        == "a[1]^(1)*a[2]^(2) + a[1]^(2)*a[2]^(1)"
    )


def test_walk_sum_conventions_and_values():
    g = self_loop_digraph(2, 2)
    assert closed_walk_sum(g, 0, []) == Poly.one()
    assert closed_walk_sum(g, 2, {1}) == Poly.zero()
    assert str(closed_walk_sum(g, 1, {2})) == "a[1]^(2) + a[2]^(2)"
    assert (
        str(closed_walk_sum(g, 2, {1, 2}))
        == "2*a[1]^(1)*a[1]^(2) + 2*a[2]^(1)*a[2]^(2)"
    )


def test_sums_are_invariant_under_vertex_relabeling():
    rng = random.Random(23)
    for _ in range(8):
        g = random_digraph(4, 2, 0.7, 3, seed=rng.randrange(10**6))
        perm_values = list(range(1, 5))
        rng.shuffle(perm_values)
        perm = dict(zip(range(1, 5), perm_values))
        h = permute_vertices(g, perm)
        for p in range(0, 3):
            for colors in ({}, {1}, {2}, {1, 2}):
                assert linear_subdigraph_sum(g, p, colors) == linear_subdigraph_sum(
                    h, p, colors
                )
                assert closed_walk_sum(g, p, colors) == closed_walk_sum(
                    h, p, colors
                )


# ---------------------------------------------------------------------------
# linear_subdigraphs against a brute-force reference
# ---------------------------------------------------------------------------


def reference_subdigraphs(g: ColoredDigraph) -> list[LinearSubdigraph]:
    """Every nonempty family of pairwise vertex- and color-disjoint cycles
    from colored_cycles(g), built level by level with plain sets.

    Families are index tuples into the cycles sorted by smallest vertex;
    sorting the tuples lists them depth first, the enumerator's order.
    """
    pool = sorted(colored_cycles(g), key=lambda c: (c[0][0], c))
    verts = [{e[0] for e in c} for c in pool]
    cols = [{e[2] for e in c} for c in pool]

    def apart(i: int, j: int) -> bool:
        return not (verts[i] & verts[j] or cols[i] & cols[j])

    level = [(i,) for i in range(len(pool))]
    families = list(level)
    while level:
        level = [
            f + (j,)
            for f in level
            for j in range(f[-1] + 1, len(pool))
            if all(apart(i, j) for i in f)
        ]
        families += level
    return [make_subdigraph(pool[i] for i in f) for f in sorted(families)]


def check_against_reference(g: ColoredDigraph) -> None:
    cycles = colored_cycles(g)
    assert cycles == sorted(cycles, key=lambda c: (c[0][0], c))
    assert linear_subdigraphs(g) == reference_subdigraphs(g)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_linear_subdigraphs_match_reference_on_all_patterns(n, k):
    for g in all_pattern_graphs(n, k):
        check_against_reference(g)


@pytest.mark.parametrize("seed", [3, 17])
def test_linear_subdigraphs_match_reference_on_dense_graphs(seed):
    # with n > k a later head often lies on an earlier cycle already
    for n, k in [(4, 4), (5, 3), (6, 3)]:
        check_against_reference(random_digraph(n, k, 1.0, 3, seed=seed))


def near_acyclic_digraph(n: int, k: int, rng: random.Random) -> ColoredDigraph:
    """Forward edges u < v, with one back edge and one loop, so only a few
    cycles close."""
    edges = {(u, v): [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
             for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.7}
    u, v = sorted(rng.sample(range(1, n + 1), 2)) if n > 1 else (1, 1)
    edges[v, u] = [1] * k
    edges[rng.randint(1, n), rng.randint(1, n)] = [-1] * k
    return make_digraph(n, k, edges)


def _facts_from_cycles(gamma) -> tuple[int, int, int]:
    edges = [e for cycle in gamma.cycles for e in cycle]
    return len(edges), _bits(e[0] for e in edges), _bits(e[2] for e in edges)


def test_enumerated_subdigraphs_keep_the_constructor_facts():
    # every builder passes the masks it holds: the enumerator those it
    # grew, involute's with_cycle and without_cycle one cycle's bits more
    # or less, make_subdigraph those of hand-built cycles; each subdigraph's
    # length and masks must be what its cycles give
    rng = random.Random(4242)
    graphs = []
    for _ in range(20):
        n, k = rng.randint(1, 6), rng.randint(1, 5)
        graphs.append(random_digraph(n, k, rng.choice([0.3, 0.6]), 3, seed=rng.randrange(10**6)))
        graphs.append(near_acyclic_digraph(n, k, rng))
    built, images = [EMPTY_SUBDIGRAPH], []
    for g in graphs:
        subs = linear_subdigraphs(g)
        assert subs == reference_subdigraphs(g)  # each one through make_subdigraph
        for sub in subs:
            # each cycle rotated off its least vertex, the cycles reversed
            again = make_subdigraph(c[1:] + c[:1] for c in reversed(sub.cycles))
            assert again == sub
            built += [sub, again]
        for r in range(1, min(g.colors, 3) + 1):
            images += [(pair.gamma, involute(pair).gamma)
                       for pair in enumerate_pairs(g, r, subdigraphs=subs) if classify(pair) == BAD]
    for gamma in built + [image for _, image in images]:
        assert (gamma.length, gamma.vertex_mask, gamma.color_mask) == _facts_from_cycles(gamma)
    assert len(built) > 2000
    # both moves are met many times: a cycle spliced out of gamma, and one added
    spliced = sum(image.cycle_count < gamma.cycle_count for gamma, image in images)
    assert spliced > 1000 and len(images) - spliced > 1000


# ---------------------------------------------------------------------------
# closed_walk_buckets against the walk enumeration
# ---------------------------------------------------------------------------


def reference_walk_buckets(g: ColoredDigraph) -> dict:
    """closed_walks(g) grouped by (length, color set), weights summed."""
    buckets: dict = {}
    for w in closed_walks(g):
        key = (w.length, w.colors)
        buckets[key] = buckets.get(key, Poly.zero()) + w.weight(g)
    return buckets


def check_walk_buckets(g: ColoredDigraph) -> None:
    got = closed_walk_buckets(g)
    want = reference_walk_buckets(g)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == value, key


def prime_weighted_dense_graph(n: int, k: int) -> ColoredDigraph:
    """Every ordered pair present, a distinct prime on every colored edge."""
    primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return make_digraph(
        n, k, {pair: primes[i * k:(i + 1) * k] for i, pair in enumerate(pairs)}
    )


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_walk_buckets_match_enumeration_on_all_patterns(n, k):
    for g in all_pattern_graphs(n, k):
        check_walk_buckets(g)


@pytest.mark.parametrize("n,k", [(4, 4), (5, 4)])
def test_walk_buckets_match_enumeration_on_dense_prime_graphs(n, k):
    check_walk_buckets(prime_weighted_dense_graph(n, k))


def test_walk_buckets_match_enumeration_on_random_graphs():
    rng = random.Random(88)
    for _ in range(12):
        n, k = rng.randint(2, 4), rng.randint(2, 4)
        check_walk_buckets(random_digraph(n, k, 0.5, 3, seed=rng.randrange(10**6)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_buckets_match_enumeration_on_the_loop_graphs(n):
    for r in range(1, 6):
        check_walk_buckets(self_loop_digraph(n, r))


def test_walk_buckets_keep_a_key_whose_sum_is_zero():
    # 1 -> 2 -> 1 in colors (1, 2) weighs -1, in colors (2, 1) weighs +1,
    # and likewise from root 2: c(2, {1, 2}) cancels but its walks exist.
    g = make_digraph(2, 2, {(1, 2): [1, 1], (2, 1): [1, -1]})
    buckets = closed_walk_buckets(g)
    assert buckets[(2, frozenset({1, 2}))] == Poly.zero()
    assert set(buckets) == set(reference_walk_buckets(g))
    assert closed_walk_sum(g, 2, {1, 2}) == Poly.zero()


def test_walk_sum_is_a_bucket_lookup():
    g = prime_weighted_dense_graph(3, 3)
    buckets = closed_walk_buckets(g)
    for size in range(0, 5):
        for t in combinations(range(0, 5), size):
            want = buckets.get((size, frozenset(t)), Poly.zero())
            if size == 0:
                want = Poly.one()
            assert closed_walk_sum(g, size, t) == want
            assert closed_walk_sum(g, size + 1, t) == Poly.zero()


def test_max_length_caps_without_filtering():
    g = prime_weighted_dense_graph(3, 3)
    for cap in range(0, 5):
        capped = closed_walks(g, max_length=cap)
        assert all(w.length <= cap for w in capped)
        for q in range(1, 5):
            # same walks, in the same order, as the exact-length pass
            assert [w for w in capped if w.length == q] == (
                walks_of_length(g, q) if q <= cap else []
            )


# ---------------------------------------------------------------------------
# linear_subdigraph_buckets against the subdigraph enumeration
# ---------------------------------------------------------------------------


def reference_subdigraph_buckets(g: ColoredDigraph) -> dict:
    """linear_subdigraphs(g) grouped by (length, color set), signed
    weights summed."""
    buckets: dict = {}
    for gamma in linear_subdigraphs(g):
        key = (gamma.length, gamma.colors)
        sign = -1 if gamma.cycle_count % 2 else 1
        buckets[key] = buckets.get(key, Poly.zero()) + sign * gamma.weight(g)
    return buckets


def check_subdigraph_buckets(g: ColoredDigraph) -> None:
    got = linear_subdigraph_buckets(g)
    want = reference_subdigraph_buckets(g)
    for key, value in want.items():
        if value:
            assert got.get(key) == value, key
    for key in got.keys() - want.keys():
        assert not got[key], key


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_subdigraph_buckets_match_enumeration_on_all_patterns(n, k):
    for g in all_pattern_graphs(n, k):
        check_subdigraph_buckets(g)


# with n > k the clow sequences revisit vertices, and most of them cancel
@pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (7, 3), (8, 2)])
def test_subdigraph_buckets_match_enumeration_on_dense_prime_graphs(n, k):
    check_subdigraph_buckets(prime_weighted_dense_graph(n, k))


def test_subdigraph_buckets_match_enumeration_on_random_graphs():
    rng = random.Random(89)
    for _ in range(12):
        n, k = rng.randint(2, 4), rng.randint(2, 4)
        check_subdigraph_buckets(
            random_digraph(n, k, 0.5, 3, seed=rng.randrange(10**6))
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subdigraph_buckets_match_enumeration_on_the_loop_graphs(n):
    for r in range(1, 6):
        check_subdigraph_buckets(self_loop_digraph(n, r))


def test_subdigraph_sum_is_a_bucket_lookup():
    g = prime_weighted_dense_graph(3, 3)
    buckets = linear_subdigraph_buckets(g)
    for size in range(0, 4):
        for s in combinations(range(1, 4), size):
            want = Poly.one() if size == 0 else buckets[(size, frozenset(s))]
            assert linear_subdigraph_sum(g, size, s) == want
            assert linear_subdigraph_sum(g, size + 1, s) == Poly.zero()
    # a color the graph lacks gives no subdigraph
    for s in ({g.colors + 1}, {0, 1}, {-1}):
        assert linear_subdigraph_sum(g, len(s), s) == Poly.zero()


# ---------------------------------------------------------------------------
# the integer path: int weights stay ints, and the kernel stays ring-generic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", INT_GRAPHS, ids=["parsed_dense", "random"])
def test_integer_graph_dps_build_no_poly(g, monkeypatch):
    products = []
    poly_mul = Poly.__mul__

    def counted(a, b):
        products.append((a, b))
        return poly_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    walks, subdigraphs = closed_walk_buckets(g), linear_subdigraph_buckets(g)
    assert products == []
    for buckets in (walks, subdigraphs):
        assert buckets and all(type(value) is int for value in buckets.values())
    monkeypatch.undo()

    # the same graph with constant Poly weights gives the same maps and
    # the same residual text
    constant = make_digraph(g.n, g.colors, {
        pair: [Poly.const(w) for w in ws] for pair, ws in g.edges.items()
    })
    assert closed_walk_buckets(constant) == walks
    assert linear_subdigraph_buckets(constant) == subdigraphs
    for r in range(1, g.colors + 2):
        ints, polys = verify_walk_cycle_identity(g, r), verify_walk_cycle_identity(constant, r)
        assert str(ints.residual) == str(polys.residual), r
        assert str(ints.literal_residual) == str(polys.literal_residual), r


def test_one_symbolic_weight_among_ints_matches_the_enumerators():
    g = parsed_dense_graph(3, 3, seed=8)
    edges = {pair: list(ws) for pair, ws in g.edges.items()}
    edges[(1, 2)][1] = Poly.variable(xvar(1, 2))
    mixed = make_digraph(g.n, g.colors, edges)
    values = list(linear_subdigraph_buckets(mixed).values())
    # a sum no term of which crosses the symbolic edge stays an int
    assert any(isinstance(v, Poly) for v in values) and any(type(v) is int for v in values)
    check_subdigraph_buckets(mixed)
    check_walk_buckets(mixed)


@pytest.mark.parametrize("g", INT_GRAPHS, ids=["parsed_dense", "random"])
def test_sum_lookups_return_poly_on_an_integer_graph(g):
    # the benchmark's reference check reads .constant_value() off both
    walks, subdigraphs = closed_walk_buckets(g), linear_subdigraph_buckets(g)
    for lookup, buckets in ((closed_walk_sum, walks), (linear_subdigraph_sum, subdigraphs)):
        empty = lookup(g, 0, [])
        assert isinstance(empty, Poly) and empty == Poly.one()
        for size in range(1, g.colors + 1):
            for colors in combinations(range(1, g.colors + 1), size):
                value = lookup(g, size, colors)
                assert isinstance(value, Poly)
                assert value.constant_value() == buckets.get((size, frozenset(colors)), 0)
                off = lookup(g, size + 1, colors)
                assert isinstance(off, Poly) and off.is_zero
