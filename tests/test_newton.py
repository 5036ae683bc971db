import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from girardlab import newton
from girardlab.cli import main
from girardlab.enumeration import linear_subdigraph_buckets
from girardlab import (
    ColoredDigraph,
    Poly,
    cross_check_against_loops,
    elementary_coefficients,
    elementary_color_sum,
    factorial,
    poly_dot,
    poly_sum,
    random_digraph,
    self_loop_digraph,
    total_subdigraph_sum,
    uniform_alpha_assignment,
    verify_classical_newton_girard,
    verify_colored_newton_girard,
    verify_walk_cycle_identity,
    xvar,
    yvar,
)

from _support import INT_GRAPHS, all_pattern_graphs, mask_of, parsed_dense_graph


def one_loop_graph() -> ColoredDigraph:
    """Single vertex, one self-loop in two colors weighing 2 and 3."""
    return ColoredDigraph(1, 2, {(1, 1): [2, 3]})


# ---------------------------------------------------------------------------
# the walk/cycle identity on digraphs
# ---------------------------------------------------------------------------


def test_split_sum_vanishes_when_r_exceeds_n():
    g = one_loop_graph()
    assert verify_walk_cycle_identity(g, 2).residual == Poly.zero()
    rng = random.Random(431)
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(n + 1, 4)
        g = random_digraph(n, k, 0.8, 3, seed=rng.randrange(10**6))
        for r in range(n + 1, k + 1):
            assert verify_walk_cycle_identity(g, r).residual == Poly.zero(), (n, k, r)


def subdigraph_sums_past_n(g: ColoredDigraph) -> list:
    """The ell values of g whose length exceeds its vertex count."""
    buckets = linear_subdigraph_buckets(g)
    return [val for mask, val in buckets.items() if mask.bit_count() > g.n]


def test_no_subdigraph_sum_survives_past_n():
    # the one formula for every r rests on this: a linear subdigraph covers
    # at most n vertices, so ell(p, S) = 0 for p > n.  The clow DP keeps a
    # key for every mask a clow sequence reaches, so the longer clow
    # sequences show up here as keys, and must cancel to zero
    graphs = [g for n in (1, 2, 3) for k in (1, 2, 3) for g in all_pattern_graphs(n, k)]
    rng = random.Random(907)
    for _ in range(20):
        n, k = rng.randint(1, 3), rng.randint(1, 5)
        density = rng.choice([0.5, 1.0])
        graphs.append(random_digraph(n, k, density, 3, seed=rng.randrange(10**6)))
    graphs += [self_loop_digraph(n, r) for r in range(2, 5) for n in range(1, r)]
    past_n = [val for g in graphs for val in subdigraph_sums_past_n(g)]
    assert past_n  # the check sees keys past n
    assert not any(past_n)


def test_report_case_r_greater_than_n():
    g = one_loop_graph()
    report = verify_walk_cycle_identity(g, 2)
    assert report.case == "r>n"
    assert report.passed
    assert report.residual == Poly.zero()
    assert report.residuals == {mask_of(1, 2): Poly.zero()}
    assert report.aggregated_correction == Poly.zero()
    # one formula: the breakdown holds the nonempty-T pairs only, and the
    # closing term is zero because no ell survives past n
    assert report.breakdown
    assert all(t for _, t in report.breakdown)
    assert not any(subdigraph_sums_past_n(g))


def test_report_case_r_at_most_n_hand_example():
    # n = 1, k = 2, r = 1: walk terms contribute 2 + 3, the aggregated
    # closing term -(2 + 3); each color set U = {c} is closed on its own,
    # c(1, {c}) + ell(1, {c}) = 0.
    report = verify_walk_cycle_identity(one_loop_graph(), 1)
    assert report.case == "r<=n"
    assert report.passed
    assert report.aggregated_correction == Poly.const(-5)
    assert report.residual == Poly.zero()
    assert report.residuals == {mask_of(1): Poly.zero(), mask_of(2): Poly.zero()}


def test_one_color_set_when_k_equals_r():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 4)
        k = rng.randint(1, min(n, 3))
        g = random_digraph(n, k, 0.8, 3, seed=rng.randrange(10**6))
        report = verify_walk_cycle_identity(g, k)  # r == k
        assert report.residuals == {mask_of(*range(1, k + 1)): report.residual}
        assert report.passed, (n, k)


def test_each_color_set_closes_on_its_own_on_random_graphs():
    # every r <= k + 1, r > n included: one residual per size-r color set
    # U, in lexicographic order, each zero, and none past k
    rng = random.Random(3144)
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        g = random_digraph(n, k, rng.choice([0.5, 1.0]), 3, seed=rng.randrange(10**6))
        for r in range(1, k + 2):
            report = verify_walk_cycle_identity(g, r)
            assert list(report.residuals) == [
                mask_of(*u) for u in combinations(range(1, k + 1), r)], (n, k, r)
            assert not any(report.residuals.values()), (n, k, r)
            assert report.residual == poly_sum(report.residuals.values())


def test_one_failing_color_set_fails_the_check_when_the_sum_cancels(monkeypatch):
    # 5 moved from ell(2, {1, 3}) to ell(2, {1, 2}) leaves the sum over all
    # U, and so `residual`, at zero; U = {1, 2} is off by r * 5
    original = newton.linear_subdigraph_buckets

    def moved(g):
        buckets = dict(original(g))
        buckets[mask_of(1, 3)] -= 5
        buckets[mask_of(1, 2)] += 5
        return buckets

    monkeypatch.setattr(newton, "linear_subdigraph_buckets", moved)
    report = verify_walk_cycle_identity(random_digraph(3, 3, 1.0, 3, seed=5), 2)
    assert report.residual == Poly.zero()
    assert report.residuals == {mask_of(1, 2): Poly.const(10),
                                mask_of(1, 3): Poly.const(-10),
                                mask_of(2, 3): Poly.zero()}
    assert not report.passed
    # both failing sets are named in order: {1, 2} comes first
    assert report.first_failure() == ([1, 2], Poly.const(10))


def test_first_failure_names_the_first_failing_color_set_or_none(monkeypatch):
    g = random_digraph(4, 4, 1.0, 3, seed=5)
    assert verify_walk_cycle_identity(g, 2).first_failure() is None
    # ell(2, {2, 3}) and ell(2, {1, 4}) off: {1, 4} comes first in the
    # lexicographic order of the sorted colors, though its mask is the
    # larger, and each closing term is r times its own fault
    original = newton.linear_subdigraph_buckets

    def two_faults(g):
        buckets = dict(original(g))
        buckets[mask_of(2, 3)] += 5
        buckets[mask_of(1, 4)] += 1
        return buckets

    monkeypatch.setattr(newton, "linear_subdigraph_buckets", two_faults)
    report = verify_walk_cycle_identity(g, 2)
    assert [u for u, residual in report.residuals.items() if residual] == [
        mask_of(1, 4), mask_of(2, 3)]
    assert report.first_failure() == ([1, 4], Poly.const(2))
    assert report._replace(residuals={mask_of(2, 3): Poly.const(10)}).first_failure() == (
        [2, 3], Poly.const(10))


def test_identity_holds_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        g = random_digraph(n, k, rng.choice([0.5, 1.0]), 3, seed=rng.randrange(10**6))
        for r in range(1, k + 1):
            report = verify_walk_cycle_identity(g, r)
            assert report.passed, (n, k, r)
            assert report.case == ("r>n" if r > n else "r<=n")


def test_vacuous_note_when_r_exceeds_color_count():
    # the CLI writes the vacuous note (tests/test_cli.py); the library
    # check passes with no (S, T) entry
    report = verify_walk_cycle_identity(one_loop_graph(), 3)
    assert report.passed  # every bucket is empty


def test_walk_cycle_identity_rejects_bad_r():
    with pytest.raises(ValueError):
        verify_walk_cycle_identity(one_loop_graph(), 0)
    with pytest.raises(ValueError):
        total_subdigraph_sum(one_loop_graph(), -1)


# ---------------------------------------------------------------------------
# the multi-alphabet identity
# ---------------------------------------------------------------------------


def test_elementary_color_sum_values():
    assert elementary_color_sum(3, {1, 2}, 0) == Poly.one()
    assert str(elementary_color_sum(2, {1}, 1)) == "a[1]^(1) + a[2]^(1)"
    assert (
        str(elementary_color_sum(2, {1, 2}, 2))
        == "a[1]^(1)*a[2]^(2) + a[1]^(2)*a[2]^(1)"
    )
    assert elementary_color_sum(2, {1, 2, 3}, 3) == Poly.zero()  # needs 3 vertices
    assert elementary_color_sum(1, {1}, 2) == Poly.zero()  # needs 2 colors
    with pytest.raises(ValueError):
        elementary_color_sum(2, {1}, -1)


def test_loop_graph_ell_map_equals_the_per_set_enumeration():
    # on the all-loops graph every clow is one loop, so the clow DP is the
    # elementary-symmetric generating function: ell(|S|, S) =
    # (-1)^|S| * E(n, S, |S|), with a key for exactly the S with 1 <= |S| <= n
    for r in range(1, 6):
        for n in range(1, 6):
            ell = linear_subdigraph_buckets(self_loop_digraph(n, r))
            expected = {
                mask_of(*s): elementary_color_sum(n, s, k) * Poly.const((-1) ** k)
                for k in range(1, min(r, n) + 1)
                for s in combinations(range(1, r + 1), k)
            }
            assert ell == expected, (r, n)


def test_theorem3_never_enumerates_per_color_set(monkeypatch, capsys):
    calls = []
    original = newton.elementary_color_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("girardlab") and getattr(mod, "elementary_color_sum", None) is original:
            monkeypatch.setattr(mod, "elementary_color_sum", counted)
    for r, n in [(3, 2), (2, 3), (4, 4)]:  # both cases: r > n and r <= n
        assert main(["verify", "theorem3", "--r", str(r), "--n", str(n)]) == 0
        assert "result: PASS (1/1 checks)" in capsys.readouterr().out
    assert calls == []


def test_colored_newton_girard_residual_vanishes():
    for r in range(1, 4):
        for n in range(1, 4):
            report = verify_colored_newton_girard(r, n)
            assert report.passed, (r, n)
            assert report.case == ("r>n" if r > n else "r<=n")
            assert list(report.residuals) == [mask_of(*range(1, r + 1))]


def test_closing_term_needs_the_parity_sign():
    # dropping the (-1)^r on the closing term already fails at r = n = 1:
    # the base is a[1]^(1) and an unsigned +r * E would double it, not
    # cancel it.
    report = verify_colored_newton_girard(1, 1)
    base = report.residual - report.aggregated_correction
    assert str(base) == "a[1]^(1)"
    unsigned = base + Poly.const(1) * elementary_color_sum(1, [1], 1)
    assert unsigned == Poly.const(2) * elementary_color_sum(1, [1], 1)
    assert unsigned


def test_both_routes_agree_on_the_loop_graph():
    for r in range(1, 4):
        for n in range(1, 4):
            assert cross_check_against_loops(r, n), (r, n)


@pytest.mark.parametrize("r, n", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_loop_graph_breakdown_is_the_symbolic_breakdown(r, n):
    # both cases, r > n and r <= n, term for term: the closed-form maps and
    # the DP maps go through the same assembly
    symbolic = verify_colored_newton_girard(r, n)
    graphical = verify_walk_cycle_identity(self_loop_digraph(n, r), r)
    assert symbolic.case == graphical.case == ("r>n" if r > n else "r<=n")
    assert dict(symbolic.breakdown) == dict(graphical.breakdown)
    assert symbolic.aggregated_correction == graphical.aggregated_correction
    assert symbolic.residuals == graphical.residuals
    assert symbolic.residual == graphical.residual == Poly.zero()


def test_cross_check_fails_when_one_walk_bucket_is_off(monkeypatch, capsys):
    original = newton.closed_walk_buckets

    def off_by_one(g):
        buckets = original(g)
        key = min(buckets, key=lambda mask: (mask.bit_count(), mask))
        buckets[key] = buckets[key] + Poly.one()
        return buckets

    monkeypatch.setattr(newton, "closed_walk_buckets", off_by_one)
    assert not cross_check_against_loops(3, 2)
    assert main(["verify", "theorem3", "--r", "3", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "symbolic and all-loops-graph paths disagree" in out
    assert "result: FAIL (0/1 checks)" in out


# ---------------------------------------------------------------------------
# assembly: the residual is summed from the entries' factors, and the
# report keeps each entry's two factors
# ---------------------------------------------------------------------------


def assert_assembled(report):
    """The residual is the breakdown, each entry's factors multiplied on
    their own, plus the aggregated closing term, and the sum of the
    residuals per color set; what each U's residual adds to U's entries,
    its closing term, sums to the aggregated one."""
    base = poly_sum(poly_dot((factors,)) for factors in report.breakdown.values())
    assert report.residual == base + report.aggregated_correction
    assert report.residual == poly_sum(report.residuals.values())
    closing = dict(report.residuals)
    for (s, t), factors in report.breakdown.items():
        closing[s | t] -= poly_dot((factors,))
    assert poly_sum(closing.values()) == report.aggregated_correction


def one_symbolic_weight_graph():
    g = parsed_dense_graph(3, 3, seed=8)
    edges = {pair: list(ws) for pair, ws in g.edges.items()}
    edges[(1, 2)][1] = Poly.variable(xvar(1, 2))
    return ColoredDigraph(g.n, g.colors, edges)


@pytest.mark.parametrize(
    "g", [*INT_GRAPHS, one_symbolic_weight_graph()], ids=["parsed_dense", "random", "symbolic"]
)
def test_residual_is_the_breakdown_plus_the_closing_term_on_graphs(g):
    for r in range(1, g.colors + 2):
        report = verify_walk_cycle_identity(g, r)
        assert_assembled(report)
        assert report.passed, r


def test_residual_is_the_breakdown_plus_the_closing_term_on_alphabets():
    for r in range(1, 6):
        for n in range(1, 6):
            report = verify_colored_newton_girard(r, n)
            assert_assembled(report)
            assert report.passed, (r, n)


def test_residual_is_the_breakdown_plus_the_closing_term_when_it_fails(monkeypatch):
    # one ell bucket off by y[1]: every entry it enters moves, so the
    # residual is nonzero and the comparison is not 0 == 0
    original = newton.linear_subdigraph_buckets

    def perturbed(g):
        buckets = dict(original(g))
        key = mask_of(1)
        buckets[key] = buckets[key] + Poly.variable(yvar(1))
        return buckets

    monkeypatch.setattr(newton, "linear_subdigraph_buckets", perturbed)
    for report in (verify_colored_newton_girard(3, 3),
                   verify_walk_cycle_identity(INT_GRAPHS[0], 3)):
        assert not report.passed
        assert yvar(1) in report.residual.variables()
        assert_assembled(report)


def test_breakdown_length_and_keys_make_no_product(monkeypatch):
    products = []
    poly_mul = Poly.__mul__

    def counted(a, b):
        products.append((a, b))
        return poly_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    report, twin = verify_colored_newton_girard(4, 4), verify_colored_newton_girard(4, 4)
    assert products  # the closing products count, so the counter is live
    products.clear()
    assert len(report.breakdown) == len(list(report.breakdown)) == 2**4 - 1
    assert all(key in report.breakdown for key in report.breakdown)
    assert (0, mask_of(5)) not in report.breakdown
    assert report == twin and report is not twin
    assert products == []


def test_the_assembly_holds_no_breakdown_entry():
    # at (5, 5) the 31 entries hold about 7,000 terms; summing them into
    # one accumulator keeps the peak far below what holding them costs
    newton._alphabet_walks.cache_clear()
    tracemalloc.start()
    try:
        report = verify_colored_newton_girard(5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 800_000, peak


# ---------------------------------------------------------------------------
# classical specialization
# ---------------------------------------------------------------------------


def test_elementary_coefficients_cubic():
    # (x - 1)(x - 2)(x - 3) = x^3 - 6x^2 + 11x - 6
    assert elementary_coefficients([1, 2, 3]) == [1, -6, 11, -6]
    assert elementary_coefficients([5]) == [1, -5]


def test_classical_newton_girard_random_roots():
    rng = random.Random(614)
    for _ in range(60):
        n = rng.randint(1, 5)
        roots = [rng.randint(-5, 5) for _ in range(n)]
        for r in range(1, 8):
            assert verify_classical_newton_girard(roots, r), (roots, r)


def test_classical_newton_girard_can_fail(monkeypatch):
    # the check compares the power sums it builds with the coefficients:
    # one root left out of the coefficients breaks every relation
    assert verify_classical_newton_girard([2, 3, -1], 4)
    coefficients = newton.elementary_coefficients
    monkeypatch.setattr(
        newton, "elementary_coefficients", lambda roots: coefficients(roots[:-1]) + [0]
    )
    for r in range(1, 6):
        assert not verify_classical_newton_girard([2, 3, -1], r), r


def test_classical_newton_girard_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_classical_newton_girard([1, 2], 0)
    with pytest.raises(ValueError):
        verify_classical_newton_girard([], 3)


def test_uniform_collapse_reproduces_classical_terms():
    # under a[j]^(i) := root_j the size-k slice of the breakdown becomes
    # r! * e_k * p_{r-k}, so the colored identity is the classical one
    # scaled by r!.
    cases = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    roots_pool = [2, -1, 3, 1]
    for r, n in cases:
        roots = roots_pool[:n]
        report = verify_colored_newton_girard(r, n)
        assign = uniform_alpha_assignment(r, n, roots)
        e = elementary_coefficients(roots)
        p = [n] + [sum(root**t for root in roots) for t in range(1, r + 1)]
        k_top = r if r > n else r - 1
        for k in range(0, k_top + 1):
            group = sum(
                poly_dot((factors,)).evaluate(assign)
                for (s, _), factors in report.breakdown.items()
                if s.bit_count() == k
            )
            e_k = e[k] if k < len(e) else 0
            assert group == factorial(r) * e_k * p[r - k], (r, n, k)
        if r <= n:
            closing = report.aggregated_correction.evaluate(assign)
            assert closing == factorial(r) * r * e[r], (r, n)


def test_uniform_alpha_assignment_shape():
    assign = uniform_alpha_assignment(2, 3, [4, 5, 6])
    assert len(assign) == 6
    with pytest.raises(ValueError):
        uniform_alpha_assignment(2, 3, [4, 5])
