import json
import random
import time
from fractions import Fraction
from types import MappingProxyType

import pytest

from girardlab import (
    ColoredDigraph,
    GraphFormatError,
    Poly,
    Walk,
    audit_involution,
    avar,
    closed_walk_buckets,
    parse_digraph,
    random_digraph,
    self_loop_digraph,
    serialize_digraph,
    validate,
    verify_walk_cycle_identity,
    xvar,
)


def test_make_digraph_coerces_ints_and_answers_queries():
    g = ColoredDigraph(2, 2, {(1, 2): [3, -1], (2, 2): [Poly.const(5), 7]})
    assert (1, 2) in g.edges
    assert (2, 1) not in g.edges
    assert g.weight(1, 2, 1) == Poly.const(3)
    assert g.weight(2, 2, 2) == Poly.const(7)
    assert g.successors(2) == [2]
    assert g.successors(1) == [2]


@pytest.mark.parametrize("weight", [0.5, 2.0, Fraction(1, 2), "3", True, False])
def test_make_digraph_refuses_a_weight_that_is_not_an_int_or_a_poly(weight):
    with pytest.raises(TypeError, match=r"edge \(1, 1\) weight must be an int or a Poly"):
        ColoredDigraph(1, 1, {(1, 1): [weight]})
    with pytest.raises(TypeError, match=r"edge \(1, 1\) weight must be an int or a Poly"):
        ColoredDigraph(1, 1, {(1, 1): (weight,)})
    with pytest.raises(TypeError):
        ColoredDigraph(2, 2, {(1, 2): [1, 2], (2, 1): [3, weight]})


def test_weight_lookup_errors():
    g = ColoredDigraph(2, 1, {(1, 2): [4]})
    with pytest.raises(ValueError, match="no edge"):
        g.weight(2, 1, 1)
    with pytest.raises(ValueError, match="no color 2"):
        g.weight(1, 2, 2)


def test_edge_table_is_in_vertex_color_order_and_matches_weight():
    graphs = [
        ColoredDigraph(3, 2, {(2, 1): [3, -1], (1, 3): [2, 5], (1, 1): [7, 4], (2, 3): [1, 1]}),
        random_digraph(4, 3, 0.6, 5, seed=9),
        self_loop_digraph(3, 2),
    ]
    # `_out` lists each vertex's heads; `_out_by_color` holds, color by
    # color, the same edges with their weights
    for g in graphs:
        seen = set()
        assert list(g._out_by_color) == list(range(1, g.colors + 1))
        for u in range(1, g.n + 1):
            heads = list(g._out[u])
            assert heads == sorted(set(heads)) == g.successors(u)
            for c, table in g._out_by_color.items():
                assert [v for v, _ in table[u]] == heads
                for v, w in table[u]:
                    assert w == g.weight(u, v, c)
            seen.update((u, v) for v in heads)
        assert seen == set(g.edges)


def test_edge_table_is_built_once_per_graph(monkeypatch):
    # the DPs of the identity, the enumerators of the audit and the audit's
    # identity recheck all read one heads table, and the DPs one table of
    # weighted edges by color, built from it
    built = []
    for name in ("_out", "_out_by_color"):
        table = ColoredDigraph.__dict__[name]

        def counted(g, build=table.func, name=name):
            built.append((name, g))
            return build(g)

        monkeypatch.setattr(table, "func", counted)
    g = random_digraph(3, 3, 1.0, 4, seed=2)
    assert verify_walk_cycle_identity(g, 3).passed
    assert audit_involution(g, 2).ok
    assert sorted(name for name, _ in built) == ["_out", "_out_by_color"]
    assert all(graph is g for _, graph in built)


def test_back_table_holds_the_shortest_paths_within_k_edges():
    # checked against Bellman-Ford rounds over the edges whose ends are >= low
    rng = random.Random(3)
    graphs = [ColoredDigraph(4, 2, {(1, 2): [1, 1], (2, 3): [1, 1], (3, 4): [1, 1],
                                     (4, 1): [1, 1]})]
    graphs += [random_digraph(rng.randint(1, 6), rng.randint(1, 4), rng.choice([0.2, 0.5]),
                              2, seed=rng.randrange(10**6)) for _ in range(40)]
    for g in graphs:
        for target in range(1, g.n + 1):
            for low in {target, 1}:
                dist = {target: 0}
                for d in range(1, g.colors + 1):
                    for u, v in g.edges:
                        if u >= low and v in dist and u not in dist and dist[v] == d - 1:
                            dist[u] = d
                reach = g._back[target, low]
                for d in range(g.colors + 1):
                    within = sum(1 << v for v, dv in dist.items() if dv <= d)
                    assert reach[min(d, len(reach) - 1)] == within, (g, target, low, d)
    cycle = graphs[0]
    assert cycle._back[1, 1] == [0b10, 0b10010, 0b11010]  # 2 is 3 edges from 1
    assert cycle._back[2, 2] == [0b100]  # 1 -> 2 leaves the vertices >= 2


def test_short_weight_tuple_fails_at_first_use_and_in_validate():
    # construction and parsing accept it; validate reports it and the
    # first DP raises
    edges = [{"from": 1, "to": 2, "weights": [1]}, {"from": 2, "to": 1, "weights": [1, 2]}]
    text = json.dumps({"n": 2, "colors": 2, "edges": edges})
    for g in [ColoredDigraph(2, 2, {(1, 2): [1], (2, 1): [1, 2]}), parse_digraph(text)]:
        assert validate(g) == ["edge (1, 2) carries 1 weights, expected 2"]
        with pytest.raises(ValueError, match=r"no color 2 on edge \(1, 2\)"):
            closed_walk_buckets(g)


def test_unknown_keys_are_ignored():
    edges = [{"from": 1, "to": 2, "weights": [3, -1]}, {"from": 2, "to": 2, "weights": [1, 4]}]
    plain = {"n": 2, "colors": 2, "edges": edges}
    extra = dict(plain, extra=1, edges=[dict(edge, extra=1) for edge in edges])
    assert parse_digraph(json.dumps(extra)) == parse_digraph(json.dumps(plain))


def test_edges_mapping_is_read_only():
    g = ColoredDigraph(1, 1, {(1, 1): [1]})
    with pytest.raises(TypeError):
        g.edges[(1, 1)] = (Poly.const(2),)  # type: ignore[index]
    # the constructor freezes a copy: the caller's dict stays the caller's
    d = {(1, 1): (2,)}
    g = ColoredDigraph(1, 1, d)
    assert isinstance(g.edges, MappingProxyType)
    d[(1, 1)] = (3,)
    assert closed_walk_buckets(g) == {1 << 1: 2}  # color 1's mask
    assert Walk(1, ((1, 1),)).weight(g) == 2


def test_validate_clean_graph():
    g = ColoredDigraph(3, 2, {(1, 2): [1, 2], (3, 3): [-1, 4]})
    assert validate(g) == []


def test_validate_reports_every_problem():
    g = ColoredDigraph(1, 2, {(1, 3): [1, 0], (1, 1): [5]})
    problems = validate(g)
    assert any("out of range" in p for p in problems)
    assert any("zero weight" in p for p in problems)
    assert any("expected 2" in p for p in problems)
    assert validate(ColoredDigraph(0, 0, {})) == [
        "vertex count must be >= 1, got 0",
        "color count must be >= 1, got 0",
    ]


def test_self_loop_digraph_shape():
    g = self_loop_digraph(3, 2)
    assert g.n == 3 and g.colors == 2
    assert set(g.edges) == {(1, 1), (2, 2), (3, 3)}
    assert g.weight(2, 2, 1) == Poly.variable(avar(2, 1))
    assert g.weight(3, 3, 2) == Poly.variable(avar(3, 2))
    assert validate(g) == []
    with pytest.raises(ValueError):
        self_loop_digraph(0, 1)


def test_random_digraph_is_seed_reproducible():
    a = random_digraph(4, 2, 0.6, 3, seed=99)
    b = random_digraph(4, 2, 0.6, 3, seed=99)
    c = random_digraph(4, 2, 0.6, 3, seed=100)
    assert a.edges == b.edges
    assert a.edges != c.edges  # astronomically unlikely to collide
    assert validate(a) == []


def test_random_digraph_weights_stay_in_bounds():
    g = random_digraph(3, 3, 1.0, 2, seed=7)
    assert len(g.edges) == 9
    for weights in g.edges.values():
        for w in weights:
            assert type(w) is int and w != 0 and -2 <= w <= 2


def test_random_digraph_draws_weights_as_choice_from_the_nonzero_list():
    # the graphs are the ones rng.choice on the list of 2W nonzero weights
    # drew, so every seeded graph stays the same
    def listed(n, k, density, bound, seed):
        rng = random.Random(seed)
        pool = [w for w in range(-bound, bound + 1) if w != 0]
        return {
            (u, v): tuple(rng.choice(pool) for _ in range(k))
            for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < density
        }

    rng = random.Random(3)
    for bound in range(1, 51):
        for _ in range(20):
            args = (rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.3, 0.7, 1.0]),
                    bound, rng.randrange(2**31))
            g = random_digraph(*args)
            assert dict(g.edges) == listed(*args), args


def test_random_digraph_with_a_huge_weight_bound_builds_no_list():
    started = time.perf_counter()
    g = random_digraph(2, 2, 1.0, 10**30, seed=1)
    assert time.perf_counter() - started < 1
    assert all(0 < abs(w) <= 10**30 for ws in g.edges.values() for w in ws)


def test_random_digraph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_digraph(0, 1, 1.0, 3, seed=0)
    with pytest.raises(ValueError):
        random_digraph(1, 1, 0.0, 3, seed=0)
    with pytest.raises(ValueError):
        random_digraph(1, 1, 1.0, 0, seed=0)


def test_serialize_canonical_text():
    g = ColoredDigraph(2, 1, {(2, 1): [-3], (1, 2): [5]})
    text = serialize_digraph(g)
    assert text == (
        '{\n'
        '  "colors": 1,\n'
        '  "edges": [\n'
        '    {\n'
        '      "from": 1,\n'
        '      "to": 2,\n'
        '      "weights": [\n'
        '        5\n'
        '      ]\n'
        '    },\n'
        '    {\n'
        '      "from": 2,\n'
        '      "to": 1,\n'
        '      "weights": [\n'
        '        -3\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "n": 2\n'
        '}\n'
    )


def test_serialize_rejects_symbolic_weights():
    g = ColoredDigraph(1, 1, {(1, 1): [Poly.variable(xvar(1, 1))]})
    with pytest.raises(ValueError, match="symbolic"):
        serialize_digraph(g)


def test_round_trip_is_byte_exact():
    rng = random.Random(12)
    for trial in range(20):
        g = random_digraph(
            rng.randint(1, 5), rng.randint(1, 3), 0.7, 4, seed=rng.randrange(10**6)
        )
        text = serialize_digraph(g)
        h = parse_digraph(text)
        assert h.n == g.n and h.colors == g.colors and h.edges == g.edges
        assert serialize_digraph(h) == text, trial


def test_parse_reports_json_position():
    with pytest.raises(GraphFormatError, match=r"line 2, column"):
        parse_digraph('{"n": 1,\n  "colors": }')


def test_parse_rejects_schema_violations():
    with pytest.raises(GraphFormatError, match="top level"):
        parse_digraph("[1, 2]")
    with pytest.raises(GraphFormatError, match="missing field 'colors'"):
        parse_digraph('{"n": 1, "edges": []}')
    with pytest.raises(GraphFormatError, match="must be an integer"):
        parse_digraph('{"n": true, "colors": 1, "edges": []}')
    with pytest.raises(GraphFormatError, match="'edges' must be a list"):
        parse_digraph('{"n": 1, "colors": 1, "edges": {}}')
    with pytest.raises(GraphFormatError, match=r"edges\[0\]: missing field 'to'"):
        parse_digraph('{"n": 1, "colors": 1, "edges": [{"from": 1, "weights": [1]}]}')
    with pytest.raises(GraphFormatError, match=r"weights\[1\] must be an integer"):
        parse_digraph(
            '{"n": 1, "colors": 2, "edges":'
            ' [{"from": 1, "to": 1, "weights": [1, 2.5]}]}'
        )
    with pytest.raises(GraphFormatError, match=r"duplicate edge \(1, 1\)"):
        parse_digraph(
            '{"n": 1, "colors": 1, "edges": ['
            '{"from": 1, "to": 1, "weights": [1]},'
            '{"from": 1, "to": 1, "weights": [2]}]}'
        )


def test_parse_leaves_semantic_checks_to_validate():
    # zero weight and out-of-range endpoint parse fine but do not validate
    text = json.dumps(
        {
            "n": 1,
            "colors": 1,
            "edges": [{"from": 1, "to": 2, "weights": [0]}],
        }
    )
    g = parse_digraph(text)
    problems = validate(g)
    assert len(problems) == 2
