"""Colored digraphs, their cycles, walks, and the two generating sums.

Run as `python demos/colored_digraphs.py`.
"""

from girardlab import (
    ColoredDigraph,
    closed_walk_sum,
    closed_walks,
    linear_subdigraph_sum,
    linear_subdigraphs,
    parse_digraph,
    self_loop_digraph,
    serialize_digraph,
)

# -- a small two-color graph ---------------------------------------------------
#
# Vertices 1 and 2, a 2-cycle between them plus a self-loop at 1.  Every
# present pair carries one parallel edge per color (here k = 2), each with
# its own nonzero weight.

g = ColoredDigraph(2, 2, {(1, 2): [1, 2], (2, 1): [3, -1], (1, 1): [5, 7]})

print("graph JSON:")
print(serialize_digraph(g))
assert parse_digraph(serialize_digraph(g)).edges == g.edges

# -- linear subdigraphs ----------------------------------------------------------
#
# A linear subdigraph is a set of vertex-disjoint cycles whose edges use
# pairwise distinct colors.  Its length is its edge count, which always
# equals the size of its color set.

subs = linear_subdigraphs(g, g.colors)
print(f"{len(subs)} linear subdigraphs:")
for s in subs:
    print(f"  length {s.length}, {len(s.cycles)} cycle(s), "
          f"colors {sorted(s.colors)}, weight {s.weight(g)}")

# -- closed colored walks --------------------------------------------------------
#
# A closed walk is rooted, may revisit vertices, but never reuses a color,
# so its length is capped by k.  Equal edge sets with different roots are
# different walks.

walks = closed_walks(g, g.colors)
print(f"\n{len(walks)} closed colored walks:")
for w in walks:
    print(f"  root {w.start}, steps {w.steps}, weight {w.weight(g)}")

# -- the generating sums ---------------------------------------------------------
#
# ell(p, S): signed subdigraph sum, (-1)^(cycle count) * weight, over
# length p and color set exactly S.  c(q, T): plain weight sum over closed
# walks.  Both are 1 by convention at size zero.

print("\nell(1, {1}) =", linear_subdigraph_sum(g, 1, {1}))
print("ell(2, {1, 2}) =", linear_subdigraph_sum(g, 2, {1, 2}))
print("c(1, {2}) =", closed_walk_sum(g, 1, {2}))
print("c(2, {1, 2}) =", closed_walk_sum(g, 2, {1, 2}))

# -- symbolic weights -------------------------------------------------------------
#
# The all-loops graph keeps its weights symbolic: the loop at vertex j in
# color i weighs the variable a[j]^(i).  On this graph the walk/cycle
# machinery specializes to statements about n alphabets of r symbols.

loops = self_loop_digraph(2, 2)
print("\nall-loops graph, ell(2, {1, 2}) =",
      linear_subdigraph_sum(loops, 2, {1, 2}))
print("all-loops graph, c(2, {1, 2})   =", closed_walk_sum(loops, 2, {1, 2}))
