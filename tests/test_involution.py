import random
import sys

import pytest

from girardlab import enumeration
from girardlab import (
    BAD,
    EMPTY_SUBDIGRAPH,
    GOOD,
    Poly,
    Walk,
    WalkGammaPair,
    audit_involution,
    classify,
    color_split_sum,
    cross_check_against_loops,
    enumerate_pairs,
    involute,
    linear_subdigraph_sum,
    make_subdigraph,
    random_digraph,
    self_loop_digraph,
    total_subdigraph_sum,
    underlying_subdigraph,
    verify_walk_cycle_identity,
    walk_concat,
)


def test_walk_concat():
    w1 = Walk(1, ((2, 1),))
    w2 = Walk(2, ((1, 2),))
    assert walk_concat(w1, w2) == Walk(1, ((2, 1), (1, 2)))
    with pytest.raises(ValueError, match="ends at 2"):
        walk_concat(w1, w1)


def test_pair_weight_carries_the_cycle_parity_sign():
    g = self_loop_digraph(2, 2)
    loop_walk = Walk(1, ((1, 1),))
    one_cycle = make_subdigraph([[(2, 2, 2)]])
    pair = WalkGammaPair(loop_walk, one_cycle)
    assert pair.total_length == 2
    assert pair.weight(g) == -loop_walk.weight(g) * one_cycle.weight(g)
    empty_pair = WalkGammaPair(loop_walk, EMPTY_SUBDIGRAPH)
    assert empty_pair.weight(g) == loop_walk.weight(g)


def test_classify():
    simple_loop = Walk(1, ((1, 1),))
    far_cycle = make_subdigraph([[(2, 2, 2)]])
    near_cycle = make_subdigraph([[(1, 1, 2)]])
    assert classify(WalkGammaPair(simple_loop, far_cycle)) == GOOD
    assert classify(WalkGammaPair(simple_loop, near_cycle)) == BAD  # shares vertex 1
    double_loop = Walk(1, ((1, 1), (1, 2)))
    assert classify(WalkGammaPair(double_loop, EMPTY_SUBDIGRAPH)) == BAD  # not simple
    with pytest.raises(ValueError, match="color"):
        classify(WalkGammaPair(simple_loop, make_subdigraph([[(2, 2, 1)]])))


def test_involute_hand_trace():
    # walk = loop at 1 in color 1, gamma = loop at 1 in color 2: the root
    # lies on gamma, so case 1 splices the gamma loop in front.
    g = self_loop_digraph(1, 2)
    pair = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(1, 1, 2)]]))
    assert classify(pair) == BAD
    image = involute(pair)
    assert image.walk == Walk(1, ((1, 2), (1, 1)))
    assert image.gamma == EMPTY_SUBDIGRAPH
    assert image.weight(g) == -pair.weight(g)
    # the image is BAD through case 2 (first revisit of vertex 1), which
    # excises the first completed cycle -- the spliced loop -- again.
    assert classify(image) == BAD
    assert involute(image) == pair


def test_involute_checks_gamma_before_cycle_completion():
    # both moves are available: the walk revisits its root *and* touches
    # gamma.  The gamma test runs first at the earlier vertex.
    pair = WalkGammaPair(
        Walk(1, ((1, 1), (1, 2))), make_subdigraph([[(1, 1, 3)]])
    )
    image = involute(pair)
    assert image.walk.steps == ((1, 3), (1, 1), (1, 2))  # splice at time 0
    assert image.gamma == EMPTY_SUBDIGRAPH


def test_involute_rejects_good_pairs():
    pair = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(2, 2, 2)]]))
    with pytest.raises(ValueError, match="GOOD"):
        involute(pair)


def test_underlying_subdigraph():
    pair = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(2, 2, 2)]]))
    assert underlying_subdigraph(pair) == make_subdigraph(
        [[(1, 1, 1)], [(2, 2, 2)]]
    )
    bad = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(1, 1, 2)]]))
    with pytest.raises(ValueError, match="GOOD"):
        underlying_subdigraph(bad)


def test_enumerate_pairs_census_on_the_loop_graph():
    g = self_loop_digraph(2, 2)
    pairs = enumerate_pairs(g, 2)
    # 4 two-step walks with empty gamma + 4 one-step walks x 2 color-
    # disjoint single loops
    assert len(pairs) == 12
    assert len(set(pairs)) == 12
    assert all(p.total_length == 2 for p in pairs)
    assert all(not (p.walk.colors & p.gamma.colors) for p in pairs)
    good = [p for p in pairs if classify(p) == GOOD]
    assert len(good) == 4  # two 2-edge subdigraphs, each rooted two ways
    with pytest.raises(ValueError):
        enumerate_pairs(g, 0)


def test_audit_on_the_loop_graph():
    g = self_loop_digraph(2, 2)
    audit = audit_involution(g, 2)
    assert audit.ok
    assert audit.problems == ()
    assert (audit.pair_count, audit.bad_count, audit.good_count) == (12, 8, 4)
    assert audit.total == Poly.zero()
    assert str(audit.correction) == "2*a[1]^(1)*a[2]^(2) + 2*a[1]^(2)*a[2]^(1)"


def test_audit_when_r_exceeds_n():
    audit = audit_involution(self_loop_digraph(1, 2), 2)
    assert audit.ok
    assert audit.good_count == 0
    assert audit.pair_count == 4
    assert audit.correction == Poly.zero()  # no 2-edge subdigraph on 1 vertex


def test_audit_random_graphs():
    rng = random.Random(3511)
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        g = random_digraph(n, k, rng.choice([0.6, 1.0]), 3, seed=rng.randrange(10**6))
        for r in range(1, k + 1):
            audit = audit_involution(g, r)
            assert audit.ok, (n, k, r, audit.problems)
            assert audit.bad_count % 2 == 0  # perfectly matched
    with pytest.raises(ValueError):
        audit_involution(self_loop_digraph(1, 1), 0)


def test_one_subdigraph_enumeration_per_check_and_per_audit(monkeypatch):
    # the identity, its closing sums, ell and the theorem3 cross-check take
    # ell from linear_subdigraph_buckets; the audit enumerates once
    calls = []
    original = enumeration.linear_subdigraphs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("girardlab") and getattr(mod, "linear_subdigraphs", None) is original:
            monkeypatch.setattr(mod, "linear_subdigraphs", counted)
    g = random_digraph(3, 3, 1.0, 3, seed=41)
    for r in range(1, 5):  # both cases: r <= n and r > n
        calls.clear()
        assert verify_walk_cycle_identity(g, r).passed
        color_split_sum(g, r)
        total_subdigraph_sum(g, r)
        linear_subdigraph_sum(g, r, range(1, r + 1))
        assert cross_check_against_loops(r, 3)
        assert len(calls) == 0
        assert audit_involution(g, r).ok
        assert len(calls) == 1


def test_walks_are_enumerated_only_by_the_audit(monkeypatch):
    # the identity, color_split_sum and the theorem3 cross-check take c
    # from closed_walk_buckets; the audit makes one pass for all lengths
    calls = []
    original = enumeration.closed_walks

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("girardlab") and getattr(mod, "closed_walks", None) is original:
            monkeypatch.setattr(mod, "closed_walks", counted)
    g = random_digraph(3, 3, 1.0, 3, seed=41)
    for r in range(1, 5):  # both cases: r <= n and r > n
        calls.clear()
        assert verify_walk_cycle_identity(g, r).passed
        color_split_sum(g, r)
        assert cross_check_against_loops(r, 3)
        assert len(calls) == 0
        assert audit_involution(g, r).ok
        assert len(calls) == 1


def test_audit_weighs_each_bad_pair_twice_and_each_good_pair_once(monkeypatch):
    calls = []
    original = WalkGammaPair.weight

    def counted(self, g):
        calls.append(self)
        return original(self, g)

    monkeypatch.setattr(WalkGammaPair, "weight", counted)
    g = random_digraph(3, 4, 1.0, 3, seed=41)
    for r in range(2, 5):  # both cases: r <= n and r > n; r = 1 has no BAD
        calls.clear()
        audit = audit_involution(g, r)
        assert audit.ok
        assert audit.bad_count > 0
        assert len(calls) == 2 * audit.bad_count + audit.good_count
