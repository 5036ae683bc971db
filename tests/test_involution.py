import random
import sys

import pytest

from girardlab import enumeration, involution
from girardlab import (
    BAD,
    EMPTY_SUBDIGRAPH,
    GOOD,
    Poly,
    Walk,
    WalkGammaPair,
    audit_involution,
    classify,
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
)


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


def test_involute_rejects_overlapping_colors():
    pair = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(2, 2, 1)]]))
    with pytest.raises(ValueError, match="overlapping color sets"):
        involute(pair)


def test_classify_and_involute_refuse_pairs_that_break_the_invariant():
    for walk, gamma in [
        (Walk(1, ((2, 1),)), EMPTY_SUBDIGRAPH),  # open
        (Walk(1, ((1, 1), (1, 1))), make_subdigraph([[(2, 2, 2)]])),  # color 1 twice
        (Walk(1, ()), EMPTY_SUBDIGRAPH),  # no step
    ]:
        for check in (classify, involute):
            with pytest.raises(ValueError, match="pair invariant broken"):
                check(WalkGammaPair(walk, gamma))


def test_involute_raises_exactly_on_the_pairs_classify_calls_good():
    # involute decides GOOD from its own scan, without calling classify
    rng = random.Random(77)
    counts = {GOOD: 0, BAD: 0}
    for _ in range(6):
        n, k = rng.randint(1, 3), rng.randint(2, 4)
        g = random_digraph(n, k, rng.choice([0.6, 1.0]), 3, seed=rng.randrange(10**6))
        for r in range(1, k + 1):
            for pair in enumerate_pairs(g, r):
                kind = classify(pair)
                counts[kind] += 1
                if kind == GOOD:
                    with pytest.raises(ValueError, match="GOOD"):
                        involute(pair)
                else:
                    image = involute(pair)
                    assert classify(image) == BAD
    assert counts[GOOD] > 50 and counts[BAD] > 50


def test_involute_images_carry_the_facts_of_their_walks_and_subdigraphs():
    for seed in range(2):
        g = random_digraph(3, 4, 1.0, 3, seed=seed)
        for r in (2, 3, 4):
            for pair in enumerate_pairs(g, r):
                if classify(pair) == GOOD:
                    continue
                image = involute(pair)
                w, gamma = image.walk, image.gamma
                seq = w.vertex_seq()
                assert seq == (w.start,) + tuple(v for v, _ in w.steps)
                assert w.is_simple == (w.is_closed and len(set(seq[:-1])) == w.length)
                assert w.vertex_mask == sum(1 << v for v in set(seq))
                assert w.color_mask == sum(1 << c for c in w.colors)
                assert gamma.vertex_mask == sum(1 << v for v in gamma.vertices)
                assert gamma.color_mask == sum(1 << c for c in gamma.colors)
                assert gamma.length == sum(len(c) for c in gamma.cycles)
                assert image.weight(g) == -pair.weight(g)


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
        total_subdigraph_sum(g, r)
        linear_subdigraph_sum(g, r, range(1, r + 1))
        assert cross_check_against_loops(r, 3)
        assert len(calls) == 0
        assert audit_involution(g, r).ok
        assert len(calls) == 1


def test_walks_are_enumerated_only_by_the_audit(monkeypatch):
    # the identity and the theorem3 cross-check take c
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
        assert cross_check_against_loops(r, 3)
        assert len(calls) == 0
        assert audit_involution(g, r).ok
        assert len(calls) == 1


def test_audit_weighs_each_pair_once_and_involutes_each_bad_pair_once(monkeypatch):
    # the BAD pairs are walked as couples: one involute per pair of a couple
    # (its image, then the image's image) and one weight per pair
    weighed = []
    involuted = []
    original_weight = WalkGammaPair.weight
    original_involute = involution.involute

    def counted_weight(self, g):
        weighed.append(self)
        return original_weight(self, g)

    def counted_involute(pair):
        involuted.append(pair)
        return original_involute(pair)

    monkeypatch.setattr(WalkGammaPair, "weight", counted_weight)
    monkeypatch.setattr(involution, "involute", counted_involute)
    g = random_digraph(3, 4, 1.0, 3, seed=41)
    for r in range(2, 5):  # both cases: r <= n and r > n; r = 1 has no BAD
        weighed.clear()
        involuted.clear()
        audit = audit_involution(g, r)
        assert audit.ok
        assert audit.bad_count > 0
        assert len(weighed) == audit.bad_count + audit.good_count
        assert len(set(weighed)) == audit.pair_count
        assert len(involuted) == audit.bad_count
        assert len(set(involuted)) == audit.bad_count


def test_audit_reports_an_image_that_is_good(monkeypatch):
    # a broken involution that sends one BAD pair to a GOOD pair is a
    # reported problem, not a crash (involute raises on GOOD pairs)
    g = self_loop_digraph(2, 2)
    pairs = enumerate_pairs(g, 2)
    victim = next(p for p in pairs if classify(p) == BAD)
    good = next(p for p in pairs if classify(p) == GOOD)
    original = involution.involute
    monkeypatch.setattr(
        involution, "involute", lambda pair: good if pair == victim else original(pair)
    )
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "involution image is GOOD" in audit.problems


# A broken involution or enumeration is a reported problem, whichever pair
# of a couple the audit meets first.


def _loop_pairs():
    g = self_loop_digraph(2, 2)
    pairs = enumerate_pairs(g, 2)
    return g, pairs, [p for p in pairs if classify(p) == BAD]


def _patch_involute(monkeypatch, table):
    original = involution.involute
    monkeypatch.setattr(
        involution, "involute", lambda pair: table.get(pair) or original(pair)
    )


def test_audit_reports_a_fixed_point(monkeypatch):
    g, _, bad = _loop_pairs()
    _patch_involute(monkeypatch, {bad[0]: bad[0]})
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "involution has a fixed point" in audit.problems


def test_audit_reports_a_map_that_does_not_return(monkeypatch):
    # A -> B as before, but B -> C, a BAD pair other than A and B
    g, _, bad = _loop_pairs()
    a = bad[0]
    b = involute(a)
    c = next(p for p in bad if p not in (a, b))
    _patch_involute(monkeypatch, {b: c})
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "involution fails to return after two applications" in audit.problems


def test_audit_reports_an_image_outside_the_pairs(monkeypatch):
    g, pairs, bad = _loop_pairs()
    stray = WalkGammaPair(Walk(1, ((1, 1),)), EMPTY_SUBDIGRAPH)  # total length 1
    assert stray not in pairs
    _patch_involute(monkeypatch, {bad[0]: stray})
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "involution image escapes the enumerated pairs" in audit.problems


def test_audit_reports_an_image_weight_that_is_not_the_negation(monkeypatch):
    g, _, bad = _loop_pairs()
    victim = involute(bad[0])
    original = WalkGammaPair.weight
    monkeypatch.setattr(
        WalkGammaPair,
        "weight",
        lambda self, g: original(self, g) + (1 if self == victim else 0),
    )
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "involution image weight is not the negation" in audit.problems
    assert "BAD pair weights do not cancel" in audit.problems


def test_audit_reports_duplicate_pairs(monkeypatch):
    g, _, bad = _loop_pairs()
    original = involution.enumerate_pairs
    monkeypatch.setattr(
        involution,
        "enumerate_pairs",
        lambda *args, **kwargs: original(*args, **kwargs) + [bad[0]],
    )
    audit = audit_involution(g, 2)
    assert not audit.ok
    assert "enumerate_pairs returned duplicates" in audit.problems
