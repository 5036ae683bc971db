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
    closed_walks,
    cross_check_against_loops,
    enumerate_pairs,
    involute,
    linear_subdigraph_sum,
    linear_subdigraphs,
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


def test_involute_excises_a_cycle_whose_vertex_stays_on_the_walk():
    # 1 -> 2, a loop at 2, 2 -> 1: the first revisit is vertex 2, and 2
    # stays on the walk once its loop is excised
    pair = WalkGammaPair(Walk(1, ((2, 1), (2, 2), (1, 3))), EMPTY_SUBDIGRAPH)
    image = involute(pair)
    # Walk(start, steps) derives the masks the image must carry
    assert image.walk == Walk(1, ((2, 1), (1, 3)))
    assert image.gamma == make_subdigraph([[(2, 2, 2)]])
    assert involute(image) == pair


def test_involute_excises_a_cycle_whose_vertex_leaves_the_walk():
    # 1 -> 2 -> 3 -> 2 -> 1: the cycle 2 -> 3 -> 2 is excised, and vertex 3
    # leaves the walk, so its bit must leave the vertex mask
    pair = WalkGammaPair(Walk(1, ((2, 1), (3, 2), (2, 3), (1, 4))), EMPTY_SUBDIGRAPH)
    image = involute(pair)
    assert image.walk == Walk(1, ((2, 1), (1, 4)))
    assert image.walk.vertex_mask == 1 << 1 | 1 << 2
    assert image.gamma == make_subdigraph([[(2, 3, 2), (3, 2, 3)]])
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
        subdigraphs = linear_subdigraphs(g, g.colors)
        for r in range(1, k + 1):
            for pair in enumerate_pairs(g, r, subdigraphs):
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
        subdigraphs = linear_subdigraphs(g, g.colors)
        for r in (2, 3, 4):
            for pair in enumerate_pairs(g, r, subdigraphs):
                if classify(pair) == GOOD:
                    continue
                image = involute(pair)
                w, gamma = image.walk, image.gamma
                seq = (w.start,) + tuple(v for v, _ in w.steps)
                # classify reads simplicity off the vertex mask, and
                # refuses a walk that is not closed
                simple = len(set(seq[:-1])) == w.length
                assert (classify(WalkGammaPair(w, EMPTY_SUBDIGRAPH)) == GOOD) == simple
                assert w.vertex_mask == sum(1 << v for v in set(seq))
                assert w.color_mask == sum(1 << c for c in {c for _, c in w.steps})
                vertices = {u for cycle in gamma.cycles for u, _, _ in cycle}
                assert gamma.vertex_mask == sum(1 << v for v in vertices)
                assert gamma.color_mask == sum(1 << c for c in gamma.colors)
                assert gamma.length == sum(len(c) for c in gamma.cycles)
                assert image.weight(g) == -pair.weight(g)


def test_every_mask_matches_the_fields_it_is_computed_from():
    # equality and hashing read the masks, so equal starts and steps, or
    # equal cycles, make equal values only when every builder's masks are
    # the ones the fields give
    def check_walk(w):
        assert w == Walk(w.start, w.steps)

    def check_subdigraph(gamma):
        edges = [e for cycle in gamma.cycles for e in cycle]
        assert gamma.vertex_mask == sum({1 << u for u, _, _ in edges})
        assert gamma.color_mask == sum({1 << c for _, _, c in edges})

    rng = random.Random(3301)
    for _ in range(30):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        g = random_digraph(n, k, rng.uniform(0.3, 1.0), 3, seed=rng.randrange(10**6))
        for w in closed_walks(g, g.colors):
            check_walk(w)
        subdigraphs = linear_subdigraphs(g, g.colors)
        for gamma in subdigraphs:
            check_subdigraph(gamma)
            # hand-built: the cycles in reverse order, each from its last edge
            built = make_subdigraph([cycle[-1:] + cycle[:-1] for cycle in gamma.cycles[::-1]])
            check_subdigraph(built)
            assert built == gamma
        for r in range(1, k + 2):
            for pair in enumerate_pairs(g, r, subdigraphs):
                if classify(pair) == GOOD:
                    check_subdigraph(underlying_subdigraph(pair))
                else:
                    image = involute(pair)
                    check_walk(image.walk)
                    check_subdigraph(image.gamma)


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
    pairs = enumerate_pairs(g, 2, linear_subdigraphs(g, g.colors))
    # 4 two-step walks with empty gamma + 4 one-step walks x 2 color-
    # disjoint single loops
    assert len(pairs) == 12
    assert len(set(pairs)) == 12
    assert all(p.total_length == 2 for p in pairs)
    assert all(not ({c for _, c in p.walk.steps} & p.gamma.colors) for p in pairs)
    good = [p for p in pairs if classify(p) == GOOD]
    assert len(good) == 4  # two 2-edge subdigraphs, each rooted two ways
    with pytest.raises(ValueError):
        enumerate_pairs(g, 0, linear_subdigraphs(g, g.colors))
    with pytest.raises(TypeError):  # the subdigraph list has no default
        enumerate_pairs(g, 2)


def test_enumerate_pairs_order_is_walks_by_length_then_subdigraphs():
    # the order the audit reports its problems in, and so the audit
    # records of PLANTED_FAULTS, rest on this one
    rng = random.Random(3203)
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        g = random_digraph(n, k, rng.choice([0.3, 0.6, 1.0]), 3, seed=rng.randrange(10**6))
        gammas = [EMPTY_SUBDIGRAPH, *linear_subdigraphs(g, g.colors)]
        for r in range(1, k + 3):
            walks = sorted(closed_walks(g, r), key=lambda walk: walk.length)
            want = [
                WalkGammaPair(w, gamma) for w in walks for gamma in gammas
                if w.length + gamma.length == r and not w.color_mask & gamma.color_mask
            ]
            assert enumerate_pairs(g, r, gammas[1:]) == want, (n, k, r)


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


def test_the_audit_at_r_equals_the_audit_of_every_subdigraph(monkeypatch):
    # the audit enumerates subdigraphs up to r edges; with the cap ignored
    # (every subdigraph, the literal list) each audit value stays the same
    rng = random.Random(3727)
    graphs = [random_digraph(rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.3, 0.6, 1.0]),
                             3, seed=rng.randrange(10**6)) for _ in range(30)]
    graphs.append(self_loop_digraph(3, 3))
    audits = {(i, r): audit_involution(g, r)
              for i, g in enumerate(graphs) for r in range(1, g.colors + 2)}
    cut = sum(len(linear_subdigraphs(graphs[i], r))
              < len(linear_subdigraphs(graphs[i], graphs[i].colors)) for i, r in audits)
    assert cut > 10
    monkeypatch.setattr(involution, "linear_subdigraphs",
                        lambda g, max_length: linear_subdigraphs(g, g.colors))
    for (i, r), audit in audits.items():
        assert audit_involution(graphs[i], r) == audit, (i, r)
    assert sum(audit.good_count > 0 for audit in audits.values()) > 20


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
    # (its image, then the image's image), and one classify per pair, whose
    # class an image reads at its position.  The pairs are weighed from
    # their walks and subdigraphs, each weighed once: the subdigraphs of
    # the pairs, and the r-edge ones of the GOOD groups
    weighed = []
    involuted = []
    classified = []
    original_involute = involution.involute
    original_classify = involution.classify

    def counted(cls):
        original = cls.weight

        def weight(self, g):
            weighed.append(self)
            return original(self, g)
        monkeypatch.setattr(cls, "weight", weight)

    def counted_involute(pair):
        involuted.append(pair)
        return original_involute(pair)

    def counted_classify(pair):
        classified.append(pair)
        return original_classify(pair)

    counted(enumeration.Walk)
    counted(enumeration.LinearSubdigraph)
    monkeypatch.setattr(involution, "involute", counted_involute)
    monkeypatch.setattr(involution, "classify", counted_classify)
    g = random_digraph(3, 4, 1.0, 3, seed=41)
    subdigraphs = linear_subdigraphs(g, g.colors)
    for r in range(2, 5):  # both cases: r <= n and r > n; r = 1 has no BAD
        pairs = enumerate_pairs(g, r, subdigraphs)
        walks = {pair.walk for pair in pairs}
        gammas = {pair.gamma for pair in pairs} | {s for s in subdigraphs if s.length == r}
        weighed.clear()
        involuted.clear()
        classified.clear()
        audit = audit_involution(g, r)
        assert audit.ok
        assert audit.bad_count > 0
        assert audit.pair_count > len(walks) and audit.pair_count > len(gammas)
        assert len(weighed) == len(set(weighed)) == len(walks) + len(gammas)
        assert set(weighed) == walks | gammas
        assert len(involuted) == audit.bad_count
        assert len(set(involuted)) == audit.bad_count
        # each pair is classified once, an image at its own position
        assert len(classified) == audit.pair_count


def test_audit_reports_an_image_that_is_good(monkeypatch):
    # a broken involution that sends one BAD pair to a GOOD pair is a
    # reported problem, not a crash (involute raises on GOOD pairs)
    g = self_loop_digraph(2, 2)
    pairs = enumerate_pairs(g, 2, linear_subdigraphs(g, g.colors))
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
    pairs = enumerate_pairs(g, 2, linear_subdigraphs(g, g.colors))
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
    # the image of the first BAD pair is the one pair of its two-step walk,
    # so a walk weight one more than it should be moves that pair alone
    g, pairs, bad = _loop_pairs()
    victim = involute(bad[0])
    assert [pair for pair in pairs if pair.walk == victim.walk] == [victim]
    original = Walk.weight
    monkeypatch.setattr(
        Walk,
        "weight",
        lambda self, g: original(self, g) + (1 if self == victim.walk else 0),
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
