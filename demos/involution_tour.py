"""The sign-reversing involution that proves the walk/cycle identity.

Run as `python demos/involution_tour.py`.
"""

from girardlab import (
    GOOD,
    Walk,
    WalkGammaPair,
    audit_involution,
    classify,
    enumerate_pairs,
    involute,
    linear_subdigraphs,
    make_subdigraph,
    poly_sum,
    self_loop_digraph,
    underlying_subdigraph,
)

# -- pairs ---------------------------------------------------------------------
#
# A pair couples a closed colored walk with a color-disjoint linear
# subdigraph; total length r, weight (-1)^(cycles) * W(walk) * W(gamma).
# GOOD pairs have a simple walk that avoids gamma; all others are BAD.

g = self_loop_digraph(2, 2)
pairs = enumerate_pairs(g, 2, linear_subdigraphs(g, g.colors))
print(f"all pairs of total length 2 on the 2-vertex all-loops graph "
      f"({len(pairs)}):")
for p in sorted(pairs, key=lambda p: (p.walk.start, p.walk.steps, p.gamma.cycles)):
    print(f"  {classify(p):4} walk {p.walk.start}:{p.walk.steps}  "
          f"gamma {p.gamma.cycles}  weight {p.weight(g)}")

# -- one involution orbit --------------------------------------------------------
#
# Take the BAD pair whose walk loops at vertex 1 in color 1 while gamma
# holds the same vertex's color-2 loop.  Scanning the walk's vertices, the
# root already lies on gamma, so case 1 splices that loop into the walk.
# The image is BAD again (the walk now revisits vertex 1), and case 2
# excises the spliced loop right back: the map is an involution, and the
# two weights cancel.

pair = WalkGammaPair(Walk(1, ((1, 1),)), make_subdigraph([[(1, 1, 2)]]))
image = involute(pair)
print("\npair  :", pair.walk.steps, pair.gamma.cycles, "weight", pair.weight(g))
print("image :", image.walk.steps, image.gamma.cycles, "weight", image.weight(g))
print("back  :", involute(image) == pair)

# -- what survives ----------------------------------------------------------------
#
# GOOD pairs do not cancel.  Each r-edge linear subdigraph owns exactly r
# of them -- root its cycles at each of its r vertices -- which is where
# the r * ell closing term of the identity comes from.

good = [p for p in pairs if classify(p) == GOOD]
print(f"\n{len(good)} GOOD pairs, grouped by their underlying subdigraph:")
groups = {}
for p in good:
    groups.setdefault(underlying_subdigraph(p), []).append(p)
for gamma, members in sorted(groups.items(), key=lambda kv: kv[0].cycles):
    weight_sum = poly_sum(m.weight(g) for m in members)
    print(f"  {gamma.cycles}: {len(members)} pairs, weight sum {weight_sum}")

# -- the full audit ----------------------------------------------------------------

audit = audit_involution(g, 2)
print(f"\naudit: {audit.pair_count} pairs = {audit.bad_count} BAD + "
      f"{audit.good_count} GOOD, correction {audit.correction}, "
      f"total {audit.total}, ok = {audit.ok}")
