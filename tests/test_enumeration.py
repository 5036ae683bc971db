import random
from itertools import combinations
from math import comb, factorial, perm, prod

import pytest

from girardlab import (
    BAD,
    EMPTY_SUBDIGRAPH,
    GOOD,
    ColoredDigraph,
    LinearSubdigraph,
    Poly,
    Walk,
    WalkGammaPair,
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
    make_subdigraph,
    random_digraph,
    self_loop_digraph,
    verify_walk_cycle_identity,
    xvar,
)

from _support import (
    INT_GRAPHS, all_pattern_graphs, mask_of, parsed_dense_graph, permute_vertices,
)


def two_cycle_graph(k: int = 2) -> ColoredDigraph:
    return ColoredDigraph(2, k, {(1, 2): [2] * k, (2, 1): [3] * k})


def walks_of_length(g: ColoredDigraph, q: int) -> list[Walk]:
    """The closed walks with q steps, in enumeration order."""
    return [w for w in closed_walks(g, g.colors) if w.length == q]


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def test_walk_basic_queries():
    w = Walk(1, ((2, 1), (1, 2)))
    assert w.length == 2
    assert list(w.edges()) == [(1, 2, 1), (2, 1, 2)]


def test_walk_open_and_nonsimple():
    # simplicity is `classify`'s to judge: it refuses an open walk, and a
    # walk of zero steps, which never counts as a cycle, and calls a
    # closed walk that revisits a vertex BAD
    for walk in (Walk(1, ((2, 1),)), Walk(3, ())):
        with pytest.raises(ValueError, match="not closed"):
            classify(WalkGammaPair(walk, EMPTY_SUBDIGRAPH))
    revisit = Walk(1, ((2, 1), (2, 2), (1, 3)))
    assert classify(WalkGammaPair(revisit, EMPTY_SUBDIGRAPH)) == BAD


def test_walk_weight_multiplies_edge_weights():
    g = two_cycle_graph(k=2)
    w = Walk(1, ((2, 1), (1, 2)))
    assert w.weight(g) == Poly.const(6)


def _facts_graphs():
    rng = random.Random(808)
    graphs = [random_digraph(rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.5, 1.0]),
                             5, seed=rng.randrange(10**6)) for _ in range(6)]
    return graphs + [self_loop_digraph(2, 3)]


def test_walk_and_subdigraph_facts_agree_with_their_definitions():
    # a walk's masks are derived from its start and steps, and
    # `classify` reads its simplicity off the vertex mask; an enumerated
    # subdigraph's masks and length must be what its cycles give
    seen = 0
    for g in _facts_graphs():
        # and a walk of no steps, an open one, a closed non-simple one, and an
        # open one with as many distinct vertices as steps
        extra = [Walk(1, ()), Walk(1, ((2, 1),)), Walk(1, ((1, 1), (1, 2))),
                 Walk(1, ((2, 1), (2, 2)))]
        for w in closed_walks(g, g.colors) + extra:
            seq = (w.start,) + tuple(v for v, _ in w.steps)
            assert w.vertex_mask == mask_of(*seq)
            assert w.color_mask == mask_of(*(c for _, c in w.steps))
            interior = seq[:-1]
            if w.steps and seq[-1] == w.start:  # closed, as `classify` requires
                simple = len(set(interior)) == len(interior)
                assert (classify(WalkGammaPair(w, EMPTY_SUBDIGRAPH)) == GOOD) == simple
            seen += 1
        for gamma in linear_subdigraphs(g, g.colors) + [EMPTY_SUBDIGRAPH]:
            tails = [u for cycle in gamma.cycles for u, _, _ in cycle]
            assert gamma.vertex_mask == mask_of(*tails)
            assert gamma.color_mask == mask_of(*gamma.colors)
            assert gamma.length == sum(len(c) for c in gamma.cycles)
            seen += 1
    assert seen > 500


def test_weights_are_the_products_of_the_graph_weights():
    for g in _facts_graphs():
        for w in closed_walks(g, g.colors):
            assert w.weight(g) == prod(g.weight(u, v, c) for u, v, c in w.edges())
        for gamma in linear_subdigraphs(g, g.colors) + [EMPTY_SUBDIGRAPH]:
            edges = [e for cycle in gamma.cycles for e in cycle]
            assert gamma.weight(g) == prod(g.weight(u, v, c) for u, v, c in edges)


def test_a_missing_edge_or_color_raises_the_graph_error():
    g = ColoredDigraph(2, 2, {(1, 1): [2, 3], (1, 2): [5, 7], (2, 1): [11]})
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
        [[]],  # no edges, so nothing closes
        [[(1, 1, 1)], []],
    ]:
        with pytest.raises(ValueError, match="chain head to tail and close"):
            make_subdigraph(cycles)


def test_subdigraph_queries():
    gamma = make_subdigraph([[(1, 2, 1), (2, 1, 2)], [(3, 3, 3)]])
    assert gamma.length == 3
    assert len(gamma.cycles) == 2
    assert gamma.colors == frozenset({1, 2, 3})
    assert gamma.cycles == (((1, 2, 1), (2, 1, 2)), ((3, 3, 3),))
    assert EMPTY_SUBDIGRAPH.length == 0


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
    g = ColoredDigraph(3, 3, {(1, 2): [1] * 3, (2, 3): [1] * 3, (3, 1): [1] * 3})
    cycles = colored_cycles(g)
    assert len(cycles) == 6  # one shape, 3! injective colorings
    assert all(c[0][0] == 1 for c in cycles)
    assert len(set(cycles)) == 6


def test_linear_subdigraph_census_on_the_loop_graph():
    g = self_loop_digraph(2, 2)
    everything = linear_subdigraphs(g, g.colors)
    assert len(everything) == 6  # 4 single loops + 2 disjoint loop pairs
    assert len([s for s in everything if len(s.cycles) == 2]) == 2
    with pytest.raises(TypeError):  # the cap has no default
        linear_subdigraphs(g)


def test_linear_subdigraphs_are_disjoint_and_unique():
    rng = random.Random(52)
    for _ in range(12):
        g = random_digraph(4, 3, 0.6, 3, seed=rng.randrange(10**6))
        subs = linear_subdigraphs(g, g.colors)
        assert len(subs) == len(set(subs))
        for s in subs:
            assert len(s.cycles) >= 1
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
    walks = closed_walks(g, g.colors)
    assert len(walks) == 8  # per vertex: 2 one-step + 2 two-step color orders
    assert len(walks_of_length(g, 1)) == 4
    assert len(walks_of_length(g, 2)) == 4
    assert closed_walks(g, 5) == walks  # capped by the color count
    with pytest.raises(TypeError):  # the cap has no default
        closed_walks(g)
    assert all(w.steps[-1][0] == w.start for w in walks)
    assert all(len({c for _, c in w.steps}) == w.length for w in walks)


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
    assert linear_subdigraphs(g, g.colors) == reference_subdigraphs(g)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_linear_subdigraphs_match_reference_on_all_patterns(n, k):
    for g in all_pattern_graphs(n, k):
        check_against_reference(g)


@pytest.mark.parametrize("seed", [3, 17])
def test_linear_subdigraphs_match_reference_on_dense_graphs(seed):
    # with n > k a later head often lies on an earlier cycle already
    for n, k in [(4, 4), (5, 3), (6, 3)]:
        check_against_reference(random_digraph(n, k, 1.0, 3, seed=seed))


def test_a_capped_enumeration_is_the_full_list_without_the_longer_subdigraphs():
    # the cap is a color budget for the search: every cap from 0 to k + 1
    # gives the reference list less its longer subdigraphs, in its order
    rng = random.Random(3701)
    graphs = [random_digraph(rng.randint(1, 5), rng.randint(1, 4), density, 3,
                             seed=rng.randrange(10**6))
              for density in (0.3, 1.0) for _ in range(8)]
    graphs += [self_loop_digraph(3, 3), random_digraph(2, 4, 1.0, 3, seed=8)]  # symbolic; r > n
    cut = 0
    for g in graphs:
        everything = reference_subdigraphs(g)
        for cap in range(g.colors + 2):
            capped = linear_subdigraphs(g, cap)
            assert capped == [gamma for gamma in everything if gamma.length <= cap], cap
            cut += len(capped) < len(everything)
        # colored_cycles keeps no cap: on the complete graph with loops it
        # finds every C(n, L) * (L - 1)! cycle of each length L <= min(n, k),
        # in each of its k!/(k - L)! colorings
        if all((u, v) in g.edges for u in range(1, g.n + 1) for v in range(1, g.n + 1)):
            assert len(colored_cycles(g)) == sum(
                comb(g.n, length) * factorial(length - 1) * perm(g.colors, length)
                for length in range(1, min(g.n, g.colors) + 1))
    assert cut > 20


def near_acyclic_digraph(n: int, k: int, rng: random.Random) -> ColoredDigraph:
    """Forward edges u < v, with one back edge and one loop, so only a few
    cycles close."""
    edges = {(u, v): [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
             for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.7}
    u, v = sorted(rng.sample(range(1, n + 1), 2)) if n > 1 else (1, 1)
    edges[v, u] = [1] * k
    edges[rng.randint(1, n), rng.randint(1, n)] = [-1] * k
    return ColoredDigraph(n, k, edges)


def _facts_from_cycles(gamma) -> tuple[int, int, int]:
    edges = [e for cycle in gamma.cycles for e in cycle]
    return len(edges), mask_of(*(e[0] for e in edges)), mask_of(*(e[2] for e in edges))


def test_enumerated_subdigraphs_keep_the_constructor_facts():
    # every builder passes the masks it holds: the enumerator those it
    # grew, involute's excise (with_cycle) and splice one cycle's bits more
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
        subs = linear_subdigraphs(g, g.colors)
        assert subs == reference_subdigraphs(g)  # each one through make_subdigraph
        for sub in subs:
            # each cycle rotated off its least vertex, the cycles reversed
            again = make_subdigraph(c[1:] + c[:1] for c in reversed(sub.cycles))
            assert again == sub
            built += [sub, again]
        for r in range(1, min(g.colors, 3) + 1):
            images += [(pair.gamma, involute(pair).gamma)
                       for pair in enumerate_pairs(g, r, subs) if classify(pair) == BAD]
    for gamma in built + [image for _, image in images]:
        assert (gamma.length, gamma.vertex_mask, gamma.color_mask) == _facts_from_cycles(gamma)
    assert len(built) > 2000
    # both moves are met many times: a cycle spliced out of gamma, and one added
    spliced = sum(len(image.cycles) < len(gamma.cycles) for gamma, image in images)
    assert spliced > 1000 and len(images) - spliced > 1000


# ---------------------------------------------------------------------------
# closed_walk_buckets against the walk enumeration
# ---------------------------------------------------------------------------


def reference_walk_buckets(g: ColoredDigraph) -> dict:
    """closed_walks(g, g.colors) grouped by color mask, weights summed."""
    buckets: dict = {}
    for w in closed_walks(g, g.colors):
        assert w.length == w.color_mask.bit_count()
        buckets[w.color_mask] = buckets.get(w.color_mask, Poly.zero()) + w.weight(g)
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
    return ColoredDigraph(
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
    g = ColoredDigraph(2, 2, {(1, 2): [1, 1], (2, 1): [1, -1]})
    buckets = closed_walk_buckets(g)
    assert buckets[mask_of(1, 2)] == Poly.zero()
    assert set(buckets) == set(reference_walk_buckets(g))
    assert closed_walk_sum(g, 2, {1, 2}) == Poly.zero()


def test_walk_sum_is_a_bucket_lookup():
    g = prime_weighted_dense_graph(3, 3)
    buckets = closed_walk_buckets(g)
    for size in range(0, 5):
        for t in combinations(range(0, 5), size):
            want = buckets.get(mask_of(*t), Poly.zero())
            if size == 0:
                want = Poly.one()
            assert closed_walk_sum(g, size, t) == want
            assert closed_walk_sum(g, size + 1, t) == Poly.zero()


def test_max_length_caps_without_filtering():
    g = prime_weighted_dense_graph(3, 3)
    for cap in range(0, 5):
        capped = closed_walks(g, cap)
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
    """linear_subdigraphs(g, g.colors) grouped by color mask, signed weights
    summed."""
    buckets: dict = {}
    for gamma in linear_subdigraphs(g, g.colors):
        assert gamma.length == gamma.color_mask.bit_count()
        key = gamma.color_mask
        sign = -1 if len(gamma.cycles) % 2 else 1
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


def test_subdigraph_buckets_keep_a_key_whose_sum_is_zero():
    # the loops at 1 and 2 in colors (1, 2) weigh 1 * 1, in colors (2, 1)
    # 1 * -1: ell(2, {1, 2}) cancels but its subdigraphs exist.  With no
    # edge between 1 and 2 every clow is a loop, so the clow sequences are
    # the subdigraphs, key for key
    g = ColoredDigraph(2, 2, {(1, 1): [1, 1], (2, 2): [-1, 1]})
    buckets = linear_subdigraph_buckets(g)
    assert buckets[mask_of(1, 2)] == Poly.zero()
    assert set(buckets) == set(reference_subdigraph_buckets(g))
    assert linear_subdigraph_sum(g, 2, {1, 2}) == Poly.zero()


def clow_sequence_keys(g: ColoredDigraph) -> set:
    """The color mask of every nonempty clow sequence of g, found by
    search: heads increase, each clow runs from its head through vertices
    above it and back, and no color repeats along the sequence."""

    def clow_masks(head: int, u: int, used: int) -> set:
        masks = set()
        for v in g.successors(u):
            for c in range(1, g.colors + 1):
                if v < head or used >> c & 1:
                    continue
                if v == head:
                    masks.add(used | 1 << c)
                else:
                    masks |= clow_masks(head, v, used | 1 << c)
        return masks

    found: set = set()
    searched: set = set()

    def extend(low: int, used: int) -> None:
        if (low, used) in searched:
            return
        searched.add((low, used))
        for head in range(low, g.n + 1):
            for mask in clow_masks(head, head, used):
                found.add(mask)
                extend(head + 1, mask)

    extend(1, 0)
    return found


def test_a_mask_reached_only_by_cancelled_states_keeps_its_key():
    # every edge out of 1 weighs 1 and every edge out of 2 weighs -1, so
    # from either root the walks of two steps cancel over their middle
    # vertex: each mask of two or three colors is reached through zero
    # vectors alone.  The walks behind them exist, and their masks stay
    g = ColoredDigraph(2, 3, {(1, 1): [1, 1, 1], (1, 2): [1, 1, 1],
                              (2, 1): [-1, -1, -1], (2, 2): [-1, -1, -1]})
    buckets = closed_walk_buckets(g)
    for colors in ({1, 2}, {1, 3}, {2, 3}):
        assert buckets[mask_of(*colors)] == Poly.zero()
    assert buckets[mask_of(1, 2, 3)] == Poly.zero()
    assert set(buckets) == set(reference_walk_buckets(g))
    assert set(linear_subdigraph_buckets(g)) == clow_sequence_keys(g)
    check_subdigraph_buckets(g)


def test_both_maps_keep_every_reached_key_on_sparse_graphs_with_a_sink():
    # the kernel skips empty vectors, and must drop no mask a walk or a clow
    # sequence reaches: every graph here has a vertex with no out-edge, and
    # weights of +-1, so that many sums cancel, whole vectors among them
    rng = random.Random(41)
    graphs = []
    while len(graphs) < 16:
        n, k = rng.randint(3, 5), rng.randint(2, 4)
        g = random_digraph(n, k, rng.uniform(0.3, 0.5), 1, seed=rng.randrange(10**6))
        if any(not g.successors(u) for u in range(1, n + 1)):
            graphs.append(g)
    for g in graphs:
        assert set(closed_walk_buckets(g)) == set(reference_walk_buckets(g))
        # every subdigraph is a clow sequence; the sequences that are not
        # cancel, and leave their keys at zero
        ell = linear_subdigraph_buckets(g)
        assert set(ell) == clow_sequence_keys(g)
        check_subdigraph_buckets(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subdigraph_buckets_match_enumeration_on_the_loop_graphs(n):
    for r in range(1, 6):
        check_subdigraph_buckets(self_loop_digraph(n, r))


def test_subdigraph_sum_is_a_bucket_lookup():
    g = prime_weighted_dense_graph(3, 3)
    buckets = linear_subdigraph_buckets(g)
    for size in range(0, 4):
        for s in combinations(range(1, 4), size):
            want = Poly.one() if size == 0 else buckets[mask_of(*s)]
            assert linear_subdigraph_sum(g, size, s) == want
            assert linear_subdigraph_sum(g, size + 1, s) == Poly.zero()
    # a color the graph lacks gives no subdigraph
    for s in ({g.colors + 1}, {0, 1}, {-1}):
        assert linear_subdigraph_sum(g, len(s), s) == Poly.zero()


@pytest.mark.parametrize("lookup", [closed_walk_sum, linear_subdigraph_sum])
def test_sum_lookups_read_zero_off_the_map_and_count_a_repeated_color_once(lookup):
    g = prime_weighted_dense_graph(3, 3)
    for colors in ([0], [0, 1], [-1], [-1, 2], [4], [1, 4], [10**9], [-10**9]):
        assert lookup(g, len(colors), colors) == Poly.zero(), colors
    for size in range(0, 5):
        for colors in ([], [1], [1, 2], [1, 2, 3]):
            if size != len(colors):
                assert lookup(g, size, colors) == Poly.zero(), (size, colors)
    assert lookup(g, 0, [0]) == Poly.zero()
    assert lookup(g, -1, []) == Poly.zero()
    assert lookup(g, 0, []) == Poly.one()
    # a color named twice is one color: the size is the set's
    assert lookup(g, 1, [2, 2]) == lookup(g, 1, [2]) != Poly.zero()
    assert lookup(g, 2, [1, 3, 1]) == lookup(g, 2, [3, 1]) != Poly.zero()
    assert lookup(g, 2, [2, 2]) == Poly.zero()


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
    constant = ColoredDigraph(g.n, g.colors, {
        pair: [Poly.const(w) for w in ws] for pair, ws in g.edges.items()
    })
    assert closed_walk_buckets(constant) == walks
    assert linear_subdigraph_buckets(constant) == subdigraphs
    for r in range(1, g.colors + 2):
        ints, polys = verify_walk_cycle_identity(g, r), verify_walk_cycle_identity(constant, r)
        assert str(ints.residual) == str(polys.residual), r
        assert {u: str(p) for u, p in ints.residuals.items()} == {
            u: str(p) for u, p in polys.residuals.items()}, r


def test_one_symbolic_weight_among_ints_matches_the_enumerators():
    g = parsed_dense_graph(3, 3, seed=8)
    edges = {pair: list(ws) for pair, ws in g.edges.items()}
    edges[(1, 2)][1] = Poly.variable(xvar(1, 2))
    mixed = ColoredDigraph(g.n, g.colors, edges)
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
                assert value.constant_value() == buckets.get(mask_of(*colors), 0)
                off = lookup(g, size + 1, colors)
                assert isinstance(off, Poly) and not off
