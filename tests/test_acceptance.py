"""Acceptance suite: one test, and one printed PASS/FAIL line, per headline
guarantee of the package.  Run with `pytest -v -s tests/test_acceptance.py`
to see the per-criterion lines.

Everything here is exact integer/rational arithmetic; there are no
tolerances anywhere.
"""

import json
import random
from functools import lru_cache

from girardlab import (
    Poly,
    audit_involution,
    cross_check_against_loops,
    elementary_coefficients,
    factorial,
    good_word_sum,
    parse_digraph,
    parse_poly,
    poly_dot,
    power_sum_below,
    power_sum_direct,
    power_sum_lhs,
    power_sum_rhs,
    power_sum_via_bernoulli,
    power_sum_via_stirling,
    power_sum_via_stirling_prefactored,
    random_digraph,
    rhs_inner_sum,
    serialize_digraph,
    uniform_alpha_assignment,
    verify_binomial_transform,
    verify_classical_newton_girard,
    verify_colored_newton_girard,
    verify_walk_cycle_identity,
    xvar,
    yvar,
)
from girardlab.cli import RunReport

from _support import all_pattern_graphs


def _report(criterion: str, failures: list, detail: str) -> None:
    ok = not failures
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {failures[:5]}"


@lru_cache(maxsize=1)
def _sampled_graphs():
    """The shared random-graph sample for the two walk/cycle criteria."""
    rng = random.Random(170)
    graphs = []
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        density = rng.choice([0.5, 1.0])
        graphs.append(random_digraph(n, k, density, 3, seed=rng.randrange(2**31)))
    return graphs


def test_c01_generalized_power_sum_triple_equality():
    failures = []
    for m in range(1, 5):
        for r in range(1, 4):
            lhs = power_sum_lhs(m, r)
            if not (lhs == power_sum_rhs(m, r) == good_word_sum(m, r)):
                failures.append((m, r))
    _report("criterion 01", failures, "12/12 (m, r) pairs, three routes each")


def test_c02_inner_sum_vanishes_past_the_degree():
    m, r = 4, 2
    ground = list(range(1, m + 2))
    failures = []
    checked = 0
    for mask in range(1, 1 << len(ground)):
        u = [ground[b] for b in range(len(ground)) if mask >> b & 1]
        if len(u) - 1 <= r or len(u) < 2:
            continue
        checked += 1
        if rhs_inner_sum(u, r) != Poly.zero():
            failures.append(u)
    _report("criterion 02", failures, f"{checked} oversized subsets of [5]")


def test_c03_binomial_transform_specialization():
    rng = random.Random(31)
    failures = []
    for trial in range(100):
        alpha = rng.randint(1, 5)
        m = rng.randint(1, 8)
        c = [rng.randint(-5, 5) for _ in range(m)]
        if not verify_binomial_transform(alpha, c):
            failures.append((trial, alpha, c))
    _report("criterion 03", failures, "100 random sequences")


def test_c04_stirling_closed_form_with_negative_check():
    failures = []
    for m in range(1, 9):
        for n in range(1, 11):
            if power_sum_via_stirling(m, n) != power_sum_direct(m, n):
                failures.append((m, n))
    # the prefactored variant must KEEP failing at (1, 1); its acceptance
    # would mean the correction was silently undone
    if power_sum_via_stirling_prefactored(1, 1) == power_sum_direct(1, 1):
        failures.append("prefactored variant unexpectedly matches at (1, 1)")
    _report("criterion 04", failures, "80 (m, n) pairs + one negative check")


def test_c05_bernoulli_closed_form():
    failures = []
    for m in range(1, 11):
        for n in range(1, 11):
            value = power_sum_via_bernoulli(m, n)
            if value.denominator != 1 or value != power_sum_below(m, n):
                failures.append((m, n))
    _report("criterion 05", failures, "100 (m, n) pairs, integer-exact")


def test_c06_walk_cycle_identity_case_one():
    failures = []
    checks = 0
    for g in _sampled_graphs():
        for r in range(g.n + 1, g.colors + 1):
            checks += 1
            if verify_walk_cycle_identity(g, r).residual != Poly.zero():
                failures.append((g.n, g.colors, r))
    assert len(_sampled_graphs()) >= 50
    _report("criterion 06", failures, f"60 graphs, {checks} (graph, r) checks")


def test_c07_walk_cycle_identity_case_two():
    failures = []
    checks = color_sets = 0
    for g in _sampled_graphs():
        for r in range(1, min(g.n, g.colors) + 1):
            checks += 1
            res = verify_walk_cycle_identity(g, r)
            if res.residual:
                failures.append((g.n, g.colors, r, "aggregated"))
            color_sets += len(res.residuals)
            failures += [(g.n, g.colors, r, [c for c in range(1, g.colors + 1) if u >> c & 1])
                         for u, p in res.residuals.items() if p]
    _report(
        "criterion 07",
        failures,
        f"{checks} aggregated closing terms, {color_sets} color sets closed on their own",
    )


def test_c08_exhaustive_involution_audit():
    failures = []
    audits = 0
    for k in range(1, 4):
        for n in range(1, 4):
            for g in all_pattern_graphs(n, k):
                for r in range(1, k + 1):
                    audits += 1
                    audit = audit_involution(g, r)
                    if not audit.ok:
                        failures.append((n, k, r, audit.problems[:2]))
    _report("criterion 08", failures, f"{audits} audits, all edge patterns n,k <= 3")


def test_c09_multi_alphabet_identity():
    failures = []
    for r in range(1, 4):
        for n in range(1, 4):
            res = verify_colored_newton_girard(r, n)
            if res.residual:
                failures.append((r, n, "residual"))
            if not cross_check_against_loops(r, n):
                failures.append((r, n, "loop-graph path"))
    _report("criterion 09", failures, "9 (r, n) pairs, both verification paths")


def test_c10_classical_corollary():
    rng = random.Random(88)
    failures = []
    for trial in range(100):
        n = rng.randint(1, 5)
        r = rng.randint(1, 7)
        roots = [rng.randint(-5, 5) for _ in range(n)]
        if not verify_classical_newton_girard(roots, r):
            failures.append((trial, roots, r))
    # the same relations drop out of the colored identity under the
    # uniform collapse a[j]^(i) := root_j, scaled by r!
    for r in range(1, 4):
        for n in range(1, 4):
            roots = [rng.randint(-5, 5) for _ in range(n)]
            res = verify_colored_newton_girard(r, n)
            assign = uniform_alpha_assignment(r, n, roots)
            e = elementary_coefficients(roots)
            p = [n] + [sum(root**t for root in roots) for t in range(1, r + 1)]
            k_top = r if r > n else r - 1
            for k in range(0, k_top + 1):
                group = sum(
                    poly_dot((factors,)).evaluate(assign)
                    for (s, _), factors in res.breakdown.items()
                    if s.bit_count() == k
                )
                e_k = e[k] if k < len(e) else 0
                if group != factorial(r) * e_k * p[r - k]:
                    failures.append((r, n, k, "collapse slice"))
            if res.residual.evaluate(assign) != 0:
                failures.append((r, n, "collapsed residual"))
    _report("criterion 10", failures, "100 root trials + collapse on 9 (r, n)")


def _random_poly(rng: random.Random) -> Poly:
    pool = [xvar(1, 1), xvar(2, 1), xvar(1, 2), yvar(2), yvar(3)]
    p = Poly.const(rng.randint(-4, 4))
    for _ in range(rng.randint(0, 4)):
        mono = Poly.const(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 3)):
            mono = mono * Poly.variable(rng.choice(pool))
        p = p + mono
    return p


def test_c11_infrastructure_round_trips():
    rng = random.Random(5)
    failures = []
    for trial in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            failures.append((trial, "associativity"))
        if a + b != b + a or a * b != b * a:
            failures.append((trial, "commutativity"))
        if a * (b + c) != a * b + a * c:
            failures.append((trial, "distributivity"))
        if a + Poly.zero() != a or a * Poly.one() != a or a - a != Poly.zero():
            failures.append((trial, "units"))
        if parse_poly(str(a)) != a:
            failures.append((trial, "polynomial text round trip"))
    for trial in range(20):
        g = random_digraph(
            rng.randint(1, 5), rng.randint(1, 3), 0.7, 5, seed=rng.randrange(2**31)
        )
        text = serialize_digraph(g)
        if serialize_digraph(parse_digraph(text)) != text:
            failures.append((trial, "graph round trip"))
    report = RunReport(
        command="verify theorem1",
        params={"m": 2, "r": 1},
        trials=1,
        seed=9,
        notes=["sample"],
    )
    text = report.to_json()
    if json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" != text:
        failures.append("report round trip")
    _report("criterion 11", failures, "200 ring triples + graph/report round trips")
