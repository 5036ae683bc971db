"""The walk/cycle identity, its alphabet form, and the classical corollary.

Run as `python demos/newton_identities.py`.
"""

from girardlab import (
    elementary_coefficients,
    poly_dot,
    random_digraph,
    uniform_alpha_assignment,
    verify_classical_newton_girard,
    verify_colored_newton_girard,
    verify_walk_cycle_identity,
)

# -- the identity on a random digraph -----------------------------------------
#
# For any weighted k-colored digraph on n vertices and any r >= 1, the sum
# of c(|T|, T) * ell(|S|, S) over disjoint color sets with |S| + |T| = r,
# T nonempty, is cancelled by the closing term r * sum_{|S| = r} ell(r, S).
# No linear subdigraph has more than n edges, so when r > n the closing
# term is zero and the walk terms cancel among themselves.

g = random_digraph(n=3, k=2, edge_density=1.0, weight_bound=3, seed=20)
for r in (1, 2):
    report = verify_walk_cycle_identity(g, r)
    print(f"r = {r}: case {report.case}, residual = {report.residual}, "
          f"passed = {report.passed}")
    # each entry keeps its two factors c(|T|, T) and ell(|S|, S)
    for (s, t), (c, ell) in sorted(report.breakdown.items(),
                                   key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))):
        print(f"    S = {sorted(s)!s:8} T = {sorted(t)!s:8} -> "
              f"({c}) * ({ell}) = {poly_dot(((c, ell),))}")
    if report.case == "r<=n":
        print(f"    closing term (aggregated) = {report.aggregated_correction}")

# The identity is a sum of smaller ones, one per size-r color set U: the
# entries with S and T partitioning U, closed by r * ell(r, U).  The check
# passes only when every U's residual is zero, not just their sum:
report = verify_walk_cycle_identity(g, 1)
print("\nresidual per color set U on the same graph at r = 1:")
for u, residual in report.residuals.items():
    print(f"    U = {sorted(u)}: residual = {residual}")

# -- the multi-alphabet form ----------------------------------------------------
#
# On the all-loops graph the identity becomes a statement about n
# alphabets {a[j]^(1), ..., a[j]^(r)}: alternating (r-k)!-weighted power
# bracket terms against injective elementary sums, closed by
# r * (-1)^r * E(n, [r], r).  Both verification paths agree term for term.

res = verify_colored_newton_girard(2, 2)
print("\nalphabet form at r = n = 2: residual =", res.residual)
print("closing term =", res.aggregated_correction)

# -- collapse to the classical relations ----------------------------------------
#
# Substituting a[j]^(i) := root_j for every color i turns each size-k
# slice of the breakdown into r! * e_k * p_{r-k}, i.e. the classical
# Newton-Girard relation between power sums p and signed elementary
# symmetric coefficients e, scaled by r!.

roots = [2, -1, 3]
print("\nroots", roots, "-> signed coefficients", elementary_coefficients(roots))
for r in (1, 2, 3, 4):
    print(f"classical relation at r = {r}:",
          verify_classical_newton_girard(roots, r))

res = verify_colored_newton_girard(2, 3)
assign = uniform_alpha_assignment(2, 3, roots)
print("collapsed residual at (r, n) = (2, 3):", res.residual.evaluate(assign))
