"""Checks on every invocation, and checks the benchmark computes itself.

`report_problems` judges one CLI invocation from the outside: exit code,
the PASS line, the report's fields and, for `powersum`, each printed value
against a sum the benchmark makes.  `reference_problems` runs in a child
that imports the program: it compares library values with references
computed here from the benchmark's own copy of the inputs (integer
matrices, closed forms), never with another route through the program.
Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations, permutations

REPORT_KEYS = {"command", "params", "trials", "failures", "elapsed_ms", "seed", "notes"}
_ELAPSED = re.compile(r'"elapsed_ms": -?\d+')
_VALUE_NOTE = re.compile(r"value (\w+) = (-?\d+)\Z")


def report_key(report_text: str) -> str:
    """The report with its one run-dependent field blanked, for byte comparison."""
    return _ELAPSED.sub('"elapsed_ms": _', report_text)


def report_problems(item, code: int, stdout: str, report_text: str | None) -> list[str]:
    """What is wrong with one invocation of `item`, judged from its outputs."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    want = f"result: PASS ({item.trials}/{item.trials} checks)"
    if want not in stdout.splitlines():
        problems.append(f"no line {want!r} in stdout")
    if report_text is None:
        return problems + ["no report written"]
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return problems + ["report keys differ from the documented set"]
    command = "powersum" if item.argv[0] == "powersum" else " ".join(item.argv[:2])
    if report["command"] != command:
        problems.append(f"report command {report['command']!r}, expected {command!r}")
    if report["failures"] != []:
        problems.append(f"report lists failures: {report['failures']!r}")
    if report["trials"] != item.trials:
        problems.append(f"report trials {report['trials']}, expected {item.trials}")
    for spec in item.checks:
        if spec[0] == "powersum_values":
            problems += powersum_value_problems(report["notes"], *spec[1:])
    return problems


def powersum_value_problems(notes: list, m: int, n: int) -> list[str]:
    """Every `value <method> = V` note of `powersum --method all` is 1^m + ... + n^m."""
    want = sum(i**m for i in range(1, n + 1))
    values = {}
    for note in notes:
        found = _VALUE_NOTE.match(note)
        if found:
            values[found.group(1)] = int(found.group(2))
    problems = []
    if set(values) != {"bernoulli", "direct", "stirling"}:
        problems.append(f"powersum notes give methods {sorted(values)}")
    problems += [
        f"powersum {name} value is off by {value - want}"
        for name, value in sorted(values.items())
        if value != want
    ]
    return problems


# -- references computed by the benchmark -------------------------------------


def color_matrices(graph: dict) -> list[list[list[int]]]:
    """A_c[i][j]: the color-c weight of edge (i+1, j+1), 0 when absent."""
    n, k = graph["n"], graph["colors"]
    mats = [[[0] * n for _ in range(n)] for _ in range(k)]
    for edge in graph["edges"]:
        for c, w in enumerate(edge["weights"]):
            mats[c][edge["from"] - 1][edge["to"] - 1] = w
    return mats


def _ring_mul(a: dict, b: dict) -> dict:
    """Product in Z[t_1..t_k]/(t_c^2); elements map a color bitmask to an int."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                out[ma | mb] = out.get(ma | mb, 0) + ca * cb
    return out


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def det_coefficients(mats: list[list[list[int]]]) -> dict[int, int]:
    """det(I - sum_c t_c A_c) over Z[t]/(t_c^2), expanded over permutations.

    Its coefficient at t^S is ell(|S|, S), the signed linear-subdigraph sum.
    """
    n = len(mats[0])
    entry = [
        [
            {0: int(i == j), **{1 << c: -mats[c][i][j] for c in range(len(mats))}}
            for j in range(n)
        ]
        for i in range(n)
    ]
    total: dict = {}
    for perm in permutations(range(n)):
        prod = {0: _perm_sign(perm)}
        for i in range(n):
            prod = _ring_mul(prod, entry[i][perm[i]])
        for mask, coeff in prod.items():
            total[mask] = total.get(mask, 0) + coeff
    return total


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def walk_trace_sum(mats: list[list[list[int]]], colors: tuple[int, ...]) -> int:
    """c(|T|, T) as the sum of tr(A_c1 ... A_cq) over the orderings of T (1-based)."""
    total = 0
    for order in permutations(colors):
        prod = mats[order[0] - 1]
        for c in order[1:]:
            prod = _mat_mul(prod, mats[c - 1])
        total += sum(prod[i][i] for i in range(len(prod)))
    return total


def cycle_covers(graph: dict, size: int) -> int:
    """Permutations of size-`size` vertex subsets whose every (v, pi(v)) is an edge."""
    present = {(e["from"], e["to"]) for e in graph["edges"]}
    return sum(
        1
        for subset in combinations(range(1, graph["n"] + 1), size)
        for image in permutations(subset)
        if all((u, v) in present for u, v in zip(subset, image))
    )


def _nonempty_subsets(k: int):
    for size in range(1, k + 1):
        yield from combinations(range(1, k + 1), size)


def _at_ones(poly) -> int:
    return poly.evaluate(dict.fromkeys(poly.variables(), 1))


def _read_graph(path: str) -> tuple[dict, str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(text), text


def ell_and_walk_sums(path: str) -> list[str]:
    """ell(|S|, S) against det(I - X) and c(|T|, T) against matrix traces."""
    from girardlab import digraph, enumeration

    graph, text = _read_graph(path)
    g = digraph.parse_digraph(text)
    mats = color_matrices(graph)
    det = det_coefficients(mats)
    problems = []
    for s in _nonempty_subsets(graph["colors"]):
        mask = sum(1 << (c - 1) for c in s)
        got = enumeration.linear_subdigraph_sum(g, len(s), s).constant_value()
        if got != det.get(mask, 0):
            problems.append(f"{path}: ell({len(s)}, {set(s)}) = {got}, det gives {det.get(mask, 0)}")
        got = enumeration.closed_walk_sum(g, len(s), s).constant_value()
        want = walk_trace_sum(mats, s)
        if got != want:
            problems.append(f"{path}: c({len(s)}, {set(s)}) = {got}, traces give {want}")
    return problems


def audit_counts(path: str, r: int) -> list[str]:
    """Pair counts of the audit: BAD even, pairs = BAD + GOOD, GOOD by formula."""
    from girardlab import digraph, involution

    graph, text = _read_graph(path)
    audit = involution.audit_involution(digraph.parse_digraph(text), r)
    n, k = graph["n"], graph["colors"]
    problems = []
    if audit.bad_count % 2:
        problems.append(f"{path}: odd BAD count {audit.bad_count}")
    if audit.pair_count != audit.bad_count + audit.good_count:
        problems.append(f"{path}: {audit.pair_count} pairs != BAD + GOOD")
    good = 0
    if r <= n:
        good = r * cycle_covers(graph, r) * math.perm(k, r)
    if audit.good_count != good:
        problems.append(f"{path}: {audit.good_count} GOOD pairs, expected {good}")
    return problems


def all_loops_at_ones(r: int, n: int) -> list[str]:
    """At a[j]^(i) = 1: c(q, T) = n * q! on the all-loops graph, and
    elementary_color_sum(n, [r], r) = r! * C(n, r)."""
    from girardlab import digraph, enumeration, newton

    g = digraph.self_loop_digraph(n, r)
    problems = []
    for t in _nonempty_subsets(r):
        got = _at_ones(enumeration.closed_walk_sum(g, len(t), t))
        if got != n * math.factorial(len(t)):
            problems.append(f"all-loops r={r} n={n}: c({len(t)}, {set(t)}) = {got} at ones")
    got = _at_ones(newton.elementary_color_sum(n, range(1, r + 1), r))
    if got != math.factorial(r) * math.comb(n, r):
        problems.append(f"elementary_color_sum({n}, [{r}], {r}) = {got} at ones")
    return problems


def lhs_at_ones(m: int, r: int) -> list[str]:
    """power_sum_lhs(m, r) at all ones is 1^r + ... + m^r."""
    from girardlab import powersum

    got = _at_ones(powersum.power_sum_lhs(m, r))
    want = sum(k**r for k in range(1, m + 1))
    return [] if got == want else [f"power_sum_lhs({m}, {r}) = {got} at ones, expected {want}"]


REFERENCE_CHECKS = {
    "ell_and_walk_sums": ell_and_walk_sums,
    "audit_counts": audit_counts,
    "all_loops_at_ones": all_loops_at_ones,
    "lhs_at_ones": lhs_at_ones,
}


def reference_problems(specs) -> list[str]:
    """Problems found by the reference checks among `specs`; report-side
    specs (checked by report_problems) are skipped."""
    problems = []
    for kind, *args in specs:
        if kind in REFERENCE_CHECKS:
            problems += REFERENCE_CHECKS[kind](*args)
    return problems
