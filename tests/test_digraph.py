import json
import random
import time

import pytest

from girardlab import (
    GraphFormatError,
    Poly,
    avar,
    make_digraph,
    parse_digraph,
    random_digraph,
    self_loop_digraph,
    serialize_digraph,
    validate,
    xvar,
)


def test_make_digraph_coerces_ints_and_answers_queries():
    g = make_digraph(2, 2, {(1, 2): [3, -1], (2, 2): [Poly.const(5), 7]})
    assert g.has_edge(1, 2)
    assert not g.has_edge(2, 1)
    assert g.weight(1, 2, 1) == Poly.const(3)
    assert g.weight(2, 2, 2) == Poly.const(7)
    assert g.color_set() == frozenset({1, 2})
    assert g.successors(2) == [2]
    assert g.successors(1) == [2]


def test_weight_lookup_errors():
    g = make_digraph(2, 1, {(1, 2): [4]})
    with pytest.raises(ValueError, match="no edge"):
        g.weight(2, 1, 1)
    with pytest.raises(ValueError, match="no color 2"):
        g.weight(1, 2, 2)


def test_edges_mapping_is_read_only():
    g = make_digraph(1, 1, {(1, 1): [1]})
    with pytest.raises(TypeError):
        g.edges[(1, 1)] = (Poly.const(2),)  # type: ignore[index]


def test_validate_clean_graph():
    g = make_digraph(3, 2, {(1, 2): [1, 2], (3, 3): [-1, 4]})
    assert validate(g) == []


def test_validate_reports_every_problem():
    g = make_digraph(1, 2, {(1, 3): [1, 0], (1, 1): [5]})
    problems = validate(g)
    assert any("out of range" in p for p in problems)
    assert any("zero weight" in p for p in problems)
    assert any("expected 2" in p for p in problems)
    assert validate(make_digraph(0, 0, {})) == [
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
            value = w.constant_value()
            assert value != 0 and -2 <= value <= 2


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
            drawn = {pair: tuple(w.constant_value() for w in ws) for pair, ws in g.edges.items()}
            assert drawn == listed(*args), args


def test_random_digraph_with_a_huge_weight_bound_builds_no_list():
    started = time.perf_counter()
    g = random_digraph(2, 2, 1.0, 10**30, seed=1)
    assert time.perf_counter() - started < 1
    assert all(0 < abs(w.constant_value()) <= 10**30 for ws in g.edges.values() for w in ws)


def test_random_digraph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_digraph(0, 1, 1.0, 3, seed=0)
    with pytest.raises(ValueError):
        random_digraph(1, 1, 0.0, 3, seed=0)
    with pytest.raises(ValueError):
        random_digraph(1, 1, 1.0, 0, seed=0)


def test_serialize_canonical_text():
    g = make_digraph(2, 1, {(2, 1): [-3], (1, 2): [5]})
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
    g = make_digraph(1, 1, {(1, 1): [Poly.variable(xvar(1, 1))]})
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
