"""Command-line verification harness.

Subcommands:

    girard-lab verify theorem1 --m M --r R
    girard-lab verify theorem2 --r R (--graph PATH | --random
                                --n N --k K [--density D] [--weight-bound W]
                                [--trials T] [--seed S])
    girard-lab verify theorem3 --r R --n N
    girard-lab verify newton-girard --n N --r R (--roots CSV | --random
                                [--trials T] [--seed S])
    girard-lab verify lemma21 --alpha A (--c CSV | --random [--m M]
                                [--trials T] [--seed S])
    girard-lab involution audit --r R (--graph PATH | --random ...)
    girard-lab powersum --m M --n N --method {stirling,bernoulli,direct,all}

each of them followed by [--out PATH].

theorem1 is the symbolic generalized power-sum identity, theorem2 the
walk/cycle identity on colored digraphs, theorem3 its multi-alphabet
specialization, lemma21 the binomial-transform power-sum check.

A run declares only the parsers its argv names: the top parser, `verify`
or `involution` when the subcommand is under one, and the subcommand
itself, since declaring all seven costs a fresh process more than a small
theorem2 check.  An argv that names no subcommand (none, `-h`, `verify -h`,
a typo) gets the whole parser, so that its help or usage error lists every
choice.

Every run prints a text summary to stdout and, with --out PATH, writes a
JSON report {"command", "params", "trials", "failures", "elapsed_ms",
"seed", "notes"}.  Reports for identical argv and seed are byte-identical
except for elapsed_ms.  When --seed is omitted the GIRARD_LAB_SEED
environment variable is used, then 0.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage error
(including an out-of-range value, an --out path that cannot be written and
a run whose counted work passes its limit), 3 malformed graph file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import perm
from typing import Iterable

from .digraph import (
    ColoredDigraph,
    GraphFormatError,
    parse_digraph,
    random_digraph,
    validate,
)
from .exactnum import binomial, factorial
from .involution import audit_involution
from .newton import (
    cross_check_against_loops,
    verify_classical_newton_girard,
    verify_colored_newton_girard,
    verify_walk_cycle_identity,
)
from .poly import value_text
from .powersum import (
    good_word_sum,
    power_sum_direct,
    power_sum_lhs,
    power_sum_rhs,
    power_sum_via_bernoulli,
    power_sum_via_stirling,
    verify_binomial_transform,
)

__all__ = ["main", "build_parser", "RunReport"]

DEFAULT_SEED = 0
SEED_ENV_VAR = "GIRARD_LAB_SEED"

PREFACTOR_NOTE = (
    "stirling method uses the prefactor-free formula; the 1/(m+1)-scaled "
    "variant fails already at m = n = 1"
)
# Work limits, each checked against a count made before any work starts
# (exact, but for the bounds on lemma21's words, the audit's DP states and
# theorem2's products); a run past one exits 2 at once.  theorem3 keeps
# r = n = 7 (881,174 breakdown terms, 180,216 product terms) and refuses
# r = n = 8 (11,211,272 breakdown terms); r = 12 makes 2^12 (S, T) entries.
# The breakdown terms are term products made, not terms held: the
# assembly sums them into one accumulator.  THEOREM3_MAX_TERMS was set
# when every entry was held whole, and is not re-derived for that yet.
# theorem1 keeps (m, r) = (14, 1), (12, 2) and (9, 3) (0.20, 0.24 and
# 0.13 s for its three routes in-process, best of 3 on a shared 2-core
# host) and refuses (15, 1), (10, 3) and (8, 4) (0.35, 0.20 and 0.21 s).
# The audit, charged the subdigraphs of at most r edges it builds, keeps
# dense (5,5) at r <= 3, (4,4) at r = 4 and (35,4) at r = 1 (0.15, 0.20
# and 0.57 s in-process on a shared 2-core host), and refuses dense
# (3,6) at r = 4 (118,998 objects, 84,240 of them pairs, 2.3-2.6 s
# in-process), dense (6,5) at r = 3 (60,564 objects) and dense (36,4) at
# r = 1 (41,472).  An acyclic (35,4) file,
# charged its 39,200 DP states alone, is kept at every r.  theorem2 keeps
# dense (12,6), (8,8) and (6,9) (0.35-0.7 s by CLI, BENCH_17.json) and
# refuses dense (6,10) and (6,12).  theorem2 and the audit multiply their
# count by the 64-bit words of the largest weight, newton-girard by those
# of the largest root, so 4000-digit numbers (208 words) are refused;
# numbers within 64 bits keep every count.  A lemma21 campaign charges its
# one Stirling row once, so 21 trials at the benchmark's size pass.  The
# others keep every benchmark invocation and refuse inputs that would run
# for more than a few seconds.
THEOREM3_MAX_R = 12
THEOREM3_MAX_TERMS = 10**6
THEOREM1_MAX_WORK = 400_000
NEWTON_GIRARD_MAX_STEPS = 10**6
LEMMA21_MAX_CELLS = 500_000
LEMMA21_MAX_WORDS = 200_000_000
POWERSUM_MAX_STEPS = 400_000
AUDIT_MAX_OBJECTS = 40_000
THEOREM2_MAX_WORK = 2_500_000

AGGREGATION_NOTE = (
    "closing term aggregates ell(r, S) over all size-r color sets; "
    "each size-r color set U is checked on its own, closed by r*ell(r, U)"
)
THEOREM3_NOTE = (
    "closing term r*E(n, [r], r) enters with sign (-1)^r "
    "(cycle parity of the length-r subdigraph sum)"
)


class UsageError(Exception):
    """A parameter problem argparse cannot catch (exit code 2)."""


class RunReport:
    """The mutable record one run fills in, and its JSON report."""

    def __init__(self, command: str, params: dict, trials: int = 0,
                 failures: list | None = None, seed: int | None = None,
                 notes: list | None = None, elapsed_ms: int = 0):
        self.command = command
        self.params = params
        self.trials = trials
        self.failures = [] if failures is None else failures
        self.seed = seed
        self.notes = [] if notes is None else notes
        self.elapsed_ms = elapsed_ms

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _load_graph(path: str) -> ColoredDigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}")
    g = parse_digraph(text)
    problems = validate(g)
    if problems:
        raise GraphFormatError("; ".join(problems))
    return g


def _limit_work(
    command: str, count: int, what: str, limit: int, *, at_least: bool = False
) -> None:
    """Refuse (exit 2) a run whose work, counted before any of it is done,
    passes `limit`; the error names the count.  `at_least` marks a count
    that stopped at its first partial sum past the limit."""
    if count > limit:
        bound = "at least " if at_least else ""
        raise UsageError(
            f"{command} would need {bound}{count:,} {what}; the limit is {limit:,}"
        )


def _words(value: int) -> int:
    """64-bit words of |value|, at least one."""
    return max(1, -(-abs(value).bit_length() // 64))


def _sized(command: str, words: int, what: str) -> str:
    """`command`, naming the word size of its numbers when past one."""
    return command if words == 1 else f"{command} ({words}-word {what})"


def _instances(args: argparse.Namespace, report: RunReport) -> tuple[Iterable, int, object]:
    """(instances, trials, fixed instance) of a campaign subcommand's run,
    from the source `_add_source` declared.

    The flag `--<args.source>` (`--graph`, `--roots` or `--c`) names one
    instance, recorded in `report.params`.  For `--random` the fixed
    instance is None: the seed is resolved once, a size of
    `args.draw_sizes` left unset is refused, the seed, the sizes and the
    trial count are recorded, and
    `args.draw(args, rng)` makes each instance from one random.Random(seed)
    as the trial loop asks for it, so a run holds one instance however many
    trials it makes.  Usage and graph errors are raised here, before any
    instance is checked.
    """
    if not args.random:
        fixed = args.source
        text = getattr(args, fixed)
        if fixed == "graph":
            report.params["graph"], instance = text, (None, _load_graph(text))
        else:
            try:
                instance = [int(part) for part in text.split(",")]
            except ValueError:
                raise UsageError(f"--{fixed} must be a comma-separated list of integers")
            report.params[fixed] = instance
        return [instance], 1, instance
    report.seed = _resolve_seed(args)
    if missing := [f"--{name}" for name in args.draw_sizes if getattr(args, name) is None]:
        raise UsageError(f"--random needs {' and '.join(missing)}")
    report.params.update({name: getattr(args, name) for name in args.draw_sizes},
                         trials=args.trials)
    rng = random.Random(report.seed)
    return (args.draw(args, rng) for _ in range(args.trials)), args.trials, None


def _check_each(report: RunReport, instances: Iterable, check) -> None:
    """Check the instances in turn: `check(instance)` returns the fields of
    a failure, recorded with the instance's index, or None."""
    for idx, instance in enumerate(instances):
        report.trials += 1
        fields = check(instance)
        if fields is not None:
            report.failures.append({"instance": idx, **fields})


def _draw_graph(args: argparse.Namespace, rng: random.Random):
    seed = rng.randrange(2**31)
    return seed, random_digraph(args.n, args.k, args.density, args.weight_bound, seed)


def _draw_entries(count: int, rng: random.Random) -> list[int]:
    return [rng.randint(-5, 5) for _ in range(count)]


def _charged_graph(args: argparse.Namespace, fixed):
    """(n, k, weight words, successors) of the graph a theorem2 or audit
    charge counts: the fixed graph, or the dense graph every `--random`
    draw lies within.  The words are those of the largest weight."""
    if fixed is not None:
        g = fixed[1]
        weights = (abs(w) for ws in g.edges.values() for w in ws)
        return g.n, g.colors, _words(max(weights, default=1)), g.successors
    every = range(1, args.n + 1)
    return args.n, args.k, _words(args.weight_bound), lambda u: every


def _note_vacuous(report: RunReport, trials: int, r: int, k: int) -> None:
    """Note each instance of a theorem2 or audit run as vacuous when r
    exceeds k, the color count every instance has: the identity at r then
    has no (S, T) entry, and the audit no pair."""
    if r > k:
        report.notes.extend(
            f"instance {idx}: vacuous: r exceeds color count" for idx in range(trials)
        )


# -- subcommand handlers ----------------------------------------------------


def _theorem1_work(m: int, r: int, limit: int) -> int:
    """The work of the right side: the variable codes of the monomials the
    2^m - 1 products Pi_r(V) write, partial products included, one code per
    unit of degree, plus the m * 2^m (mask, bit) visits of its subset
    transform, which dominate at r = 1.  Step j of a V of size k builds k^j
    monomials of degree j, so the codes number
    sum_k C(m, k) * sum_{j <= r} j * k^j.  The lhs and the good-word oracle
    build fewer.  The sum over k stops at the first partial sum past
    `limit`, and the visits are added only to a code count within it, so a
    huge m or r costs a term or two."""
    total = 0
    for k in range(1, m + 1):
        if k == 1:
            per_set = r * (r + 1) // 2
        else:
            per_set = k * (r * k ** (r + 1) - (r + 1) * k**r + 1) // (k - 1) ** 2
        total += binomial(m, k) * per_set
        if total > limit:
            return total
    return total + (m << m)


def _run_theorem1(args, report: RunReport) -> None:
    _limit_work(
        f"{report.command} --m {args.m} --r {args.r}",
        _theorem1_work(args.m, args.r, THEOREM1_MAX_WORK),
        "variable codes and transform steps of the right side", THEOREM1_MAX_WORK,
        at_least=True,
    )
    report.trials = 1
    lhs = power_sum_lhs(args.m, args.r)
    rhs = power_sum_rhs(args.m, args.r)
    words = good_word_sum(args.m, args.r)
    if not (lhs == rhs == words):
        report.failures.append(
            {"m": args.m, "r": args.r, "lhs": value_text(lhs), "rhs": value_text(rhs),
             "good_words": value_text(words)}
        )


def _dp_states(n: int, k: int) -> int:
    """States the walk DP and the clow DP build on one graph with n
    vertices and k colors, at most: each makes n passes (one per root or
    head), and the layers of a pass hold at most one state per vertex and
    color mask.  k is capped at 64, so a huge size costs nothing to count."""
    return 2 * n * n << min(k, 64)


def _theorem2_work(n: int, k: int, r: int, limit: int) -> int:
    """A bound on the work of one theorem2 check on a graph with n vertices
    and k colors: each DP state makes at most n * k weight products (int
    products, on the file and `--random` graphs the CLI checks), and the
    breakdown has C(k, r) * 2^r (S, T) entries.  A DP term past `limit` is
    returned at once, and C(k, r) is 0 for r > k, so a huge k or r costs
    nothing to count."""
    total = _dp_states(n, k) * n * min(k, 64)
    if total > limit:
        return total
    return total + (binomial(k, r) << r)


def _run_theorem2(args, report: RunReport) -> None:
    report.notes.append(AGGREGATION_NOTE)
    instances, trials, fixed = _instances(args, report)
    n, k, words, _ = _charged_graph(args, fixed)
    _limit_work(
        _sized(f"{report.command} --r {args.r} on {trials} graph(s) with n = {n}, k = {k}",
               words, "weights"),
        trials * words * _theorem2_work(n, k, args.r, THEOREM2_MAX_WORK),
        "weight products and (S, T) entries (an upper bound)", THEOREM2_MAX_WORK,
    )
    _note_vacuous(report, trials, args.r, k)

    def check(instance):
        graph_seed, g = instance
        res = verify_walk_cycle_identity(g, args.r)
        # a PASS must have compared every size-r color set: C(k, r) of them
        expected = binomial(g.colors, args.r)
        if len(res.residuals) != expected:
            return {"graph_seed": graph_seed, "n": g.n, "k": g.colors,
                    "compared": len(res.residuals), "expected": expected}
        # the first color set, in lexicographic order, whose identity fails
        u = next((u for u, residual in res.residuals.items() if residual), None)
        if u is not None:
            return {"graph_seed": graph_seed, "n": g.n, "k": g.colors, "case": res.case,
                    "color_set": sorted(u), "residual": value_text(res.residuals[u])}

    _check_each(report, instances, check)


def _theorem3_terms(r: int, n: int) -> tuple[int, int]:
    """The polynomial terms `verify theorem3` makes at (r, n), exactly:
    (breakdown terms, product terms).

    The (S, T) entry with |S| = k < r is the n-term bracket times
    E(n, S, k), which has k! * C(n, k) terms and shares no variable with
    the bracket.  The breakdown terms are term products made: the
    assembly adds each into the residual's one accumulator, and holds no
    entry whole.  The product terms are those the clow DP of the
    all-loops graph finishes over its heads j = 0..n, where every clow is
    one loop and the sequences with heads up to j sum to
    prod_{j' <= j} (1 - sum_i a[j']^(i) t_i): sum_j sum_S |E(j, S)| =
    sum_k C(r, k) * k! * C(n + 1, k + 1), the empty S counting its 1 for
    each j.  That DP gives the ell map of the run.
    """
    breakdown = sum(
        binomial(r, k) * n * binomial(n, k) * factorial(k) for k in range(r)
    )
    product = sum(
        binomial(r, k) * factorial(k) * binomial(n + 1, k + 1) for k in range(r + 1)
    )
    return breakdown, product


def _run_theorem3(args, report: RunReport) -> None:
    if args.r > THEOREM3_MAX_R:
        raise UsageError(
            f"{report.command} --r {args.r} would make 2^{args.r} (S, T) entries; "
            f"the limit is 2^{THEOREM3_MAX_R}"
        )
    breakdown_terms, product_terms = _theorem3_terms(args.r, args.n)
    for count, what in [(breakdown_terms, "breakdown terms"),
                        (product_terms, "generating-function product terms")]:
        _limit_work(f"{report.command} --r {args.r} --n {args.n}", count, what,
                    THEOREM3_MAX_TERMS)
    report.trials = 1
    res = verify_colored_newton_girard(args.r, args.n)
    report.notes.append(THEOREM3_NOTE)
    if len(res.residuals) != 1:  # the one color set [r]
        report.failures.append(
            {"r": args.r, "n": args.n, "compared": len(res.residuals), "expected": 1}
        )
    elif not res.passed:
        report.failures.append(
            {"r": args.r, "n": args.n, "residual": value_text(res.residual)}
        )
    elif not cross_check_against_loops(args.r, args.n):
        report.failures.append(
            {"r": args.r, "n": args.n,
             "residual": "symbolic and all-loops-graph paths disagree"}
        )


def _run_newton_girard(args, report: RunReport) -> None:
    instances, trials, fixed = _instances(args, report)
    # per trial: n * r(r+1)/2 steps for the powers root^t, t <= r (root^t
    # is root^(t-1) times the root, one product of at most t times the
    # root's words), and n(n+1)/2 updates for the coefficients e_t; each
    # step is weighted by the words of the largest root, one for a random
    # root
    words = 1 if fixed is None else _words(max(map(abs, fixed)))
    steps = args.n * args.r * (args.r + 1) // 2 + args.n * (args.n + 1) // 2
    _limit_work(
        _sized(f"{report.command} --n {args.n} --r {args.r} on {trials} trial(s)",
               words, "roots"),
        trials * words * steps, "power and coefficient steps", NEWTON_GIRARD_MAX_STEPS,
    )

    def check(roots):
        if len(roots) != args.n:
            raise UsageError(f"--roots must list exactly n = {args.n} integers")
        if not verify_classical_newton_girard(roots, args.r):
            return {"roots": roots}

    _check_each(report, instances, check)


def _lemma21_words(alpha: int, m: int) -> int:
    """64-bit words one lemma21 trial computes, bounded in closed form.

    Row i of the Stirling triangle holds S(i, k) < k^i, at most
    i * log2(k) + 1 bits, and log2(k) <= bitlen(k - 1); so the alpha rows
    of m cells hold at most alpha * m + alpha(alpha + 1)/2 * L / 64 words,
    L = sum_{k <= m} bitlen(k - 1).  The right-hand side builds C(k, j)
    for j <= k <= m, in j steps on numbers of at most k bits: at most
    sum_k k(k + 1)/2 * (1 + k / 64) words.
    """
    b = (m - 1).bit_length()
    bit_lengths = m * b - (1 << b) + 1  # L, summed a power of two at a time
    row = alpha * m + alpha * (alpha + 1) * bit_lengths // 128
    return row + _binomial_words(m)


def _binomial_words(m: int) -> int:
    """The binomial part of `_lemma21_words`, which each trial builds anew."""
    cubes_and_squares = (m * (m + 1)) ** 2 // 4 + m * (m + 1) * (2 * m + 1) // 6
    return m * (m + 1) * (m + 2) // 6 + cubes_and_squares // 128


def _run_lemma21(args, report: RunReport) -> None:
    instances, trials, fixed = _instances(args, report)
    length = args.m if fixed is None else len(fixed)
    # the trials share one Stirling row S(alpha, 0..m): alpha rows of m
    # cells that grow to about alpha * log2(m) bits.  Each trial builds m
    # powers k^alpha, counted as ceil(alpha / 64) cells each, and its own
    # binomials; the cells charged are the row's or, if more, the powers'
    command = f"{report.command} --alpha {args.alpha} on {trials} trial(s) of length {length}"
    _limit_work(command, length * max(args.alpha, trials * -(-args.alpha // 64)),
                "Stirling-row cells", LEMMA21_MAX_CELLS)
    _limit_work(
        command,
        _lemma21_words(args.alpha, length) + (trials - 1) * _binomial_words(length),
        "64-bit words of Stirling and binomial numbers", LEMMA21_MAX_WORDS,
    )
    _check_each(
        report, instances,
        lambda c: None if verify_binomial_transform(args.alpha, c) else {"c": c},
    )


def _audit_objects(n: int, k: int, r: int, successors) -> int:
    """What one audit at r builds on a graph with n vertices, k colors and
    0/1 adjacency B (`successors(u)` lists the v with B[u][v] = 1).

    The count stops at the first of its three partial sums past
    `AUDIT_MAX_OBJECTS`, or inside the search that makes the second.  The
    first is the identity recheck's two DPs, which hold at most
    `_dp_states(n, k)` states per graph, so a huge size costs nothing to
    count.  The second adds the closed walks of length <= r,
    sum_{q <= r} tr(B^q) * k!/(k-q)!, and the linear subdigraphs the
    audit enumerates, sum_p covers_p(B) * k!/(k-p)!, where covers_p(B)
    counts the cycle covers of p-vertex subsets, p <= min(k, n, r).  The
    third adds the (walk, gamma) pairs, whose r edges take distinct
    colors: sum_{q=1}^{r} tr(B^q) * covers_{r-q}(B) * k!/(k-r)!, none
    when r > k.  A count that runs to the end is exact.

    A depth-first search finds the covers, heads increasing as in
    `enumeration.linear_subdigraphs`: each cycle runs through free
    vertices above its head, and a cover stops growing at min(k, n, r)
    edges, so each cover it finds starts a search of paths of at most
    that many vertices: polynomial in n for each k.  It returns as soon
    as the total passes the limit, after at most that many covers.
    """
    total = _dp_states(n, k)
    if total > AUDIT_MAX_OBJECTS:
        return total
    succ = {u: successors(u) for u in range(1, n + 1)}
    top = min(k, n, r)
    colorings = [perm(k, p) for p in range(k + 1)]  # the injective colorings of p edges
    traces = [0] * (min(r, k) + 1)  # tr(B^q)
    for root in range(1, n + 1):
        paths = {root: 1}  # vertex -> walks from the root that end there
        for q in range(1, len(traces)):
            step: dict[int, int] = {}
            for u, count in paths.items():
                for v in succ[u]:
                    step[v] = step.get(v, 0) + count
            paths = step
            traces[q] += paths.get(root, 0)
    total += sum(t * w for t, w in zip(traces[1:], colorings[1:]))
    counts = [1] + [0] * top  # covers_p(B), the empty cover included

    def covers(low: int, used: int, edges: int) -> bool:
        """Count the covers that add cycles with heads >= `low` to one on
        the vertex mask `used` with `edges` edges; True once past the limit."""
        nonlocal total
        for head in range(low, n + 1):
            if used >> head & 1:
                continue
            # (path end, vertex mask, the cover's edges once the next edge is taken)
            paths = [(head, used | 1 << head, edges + 1)]
            while paths:
                u, vertices, p = paths.pop()
                for v in succ[u]:
                    if v == head:
                        counts[p] += 1
                        total += colorings[p]
                        if total > AUDIT_MAX_OBJECTS or p < top and covers(head + 1, vertices, p):
                            return True
                    elif v > head and not vertices >> v & 1 and p < top:
                        paths.append((v, vertices | 1 << v, p + 1))
        return False

    if total > AUDIT_MAX_OBJECTS or covers(1, 0, 0) or r > k:
        return total
    # no cover has more than top = min(k, n, r) vertices, so q >= r - top
    return total + colorings[r] * sum(
        traces[q] * counts[r - q] for q in range(max(1, r - top), r + 1)
    )


def _run_involution_audit(args, report: RunReport) -> None:
    instances, trials, fixed = _instances(args, report)
    n, k, words, successors = _charged_graph(args, fixed)
    graphs = "1 graph" if fixed else f"{trials} random graph(s) counted as dense"
    _limit_work(
        _sized(f"{report.command} --r {args.r} on {graphs}", words, "weights"),
        trials * words * _audit_objects(n, k, args.r, successors),
        "DP states, closed walks, linear subdigraphs and pairs", AUDIT_MAX_OBJECTS,
        at_least=True,
    )
    _note_vacuous(report, trials, args.r, k)

    def check(instance):
        graph_seed, g = instance
        audit = audit_involution(g, args.r)
        if not audit.ok:
            return {"graph_seed": graph_seed, "problems": list(audit.problems),
                    "total": value_text(audit.total)}

    _check_each(report, instances, check)


def _run_powersum(args, report: RunReport) -> None:
    # direct takes n powers k^m (n * m steps); the Stirling row takes at
    # most m^2 terms, and the tangent-number triangle behind the Bernoulli
    # table about m^2 / 8 integer steps
    _limit_work(
        f"{report.command} --m {args.m} --n {args.n}", args.m * max(args.m, args.n),
        "power and recurrence steps", POWERSUM_MAX_STEPS,
    )
    report.trials = 1
    # built per run, so a function wrapped or replaced after import (by a
    # tracer or a test) is the one called; the Bernoulli formula sums k^m
    # for k below its n
    methods = {"bernoulli": lambda m, n: power_sum_via_bernoulli(m, n + 1),
               "direct": power_sum_direct, "stirling": power_sum_via_stirling}
    names = sorted(methods) if args.method == "all" else [args.method]
    if "stirling" in names:
        report.notes.append(PREFACTOR_NOTE)
    values = {}
    for name in names:
        values[name] = value = methods[name](args.m, args.n)
        report.notes.append(f"value {name} = {value_text(value)}")
    # the run is one check, so it records at most one failure
    fractional = [name for name, value in values.items() if value.denominator != 1]
    if fractional or len(set(values.values())) > 1:
        failure = {"m": args.m, "n": args.n,
                   "values": {k: value_text(v) for k, v in values.items()}}
        if fractional:
            failure["not_integer"] = fractional
        report.failures.append(failure)


# -- parser and driver -------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _density(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _add_source(p: argparse.ArgumentParser, fixed: str, noun: str, trials: int, draw,
                sizes=(), **fixed_opts) -> None:
    """Declare a campaign subcommand's input: `--<fixed>` or `--random`,
    then the `sizes` flags of `--random`, `--trials` and `--seed`.  The
    flag, `draw(args, rng)`, which makes one random instance, and the names
    of the sizes are recorded for `_instances`."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(f"--{fixed}", **fixed_opts)
    source.add_argument("--random", action="store_true",
                        help=f"verify seeded random {noun}")
    draw_sizes = [p.add_argument(flag, **opts).dest for flag, opts in sizes]
    p.add_argument("--trials", type=_positive_int, default=trials,
                   help=f"number of random {noun} (default {trials})")
    p.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    p.set_defaults(source=fixed, draw=draw, draw_sizes=draw_sizes)


def _add_command(which, name: str, run, sizes: str, summary: str, source=None,
                 flags=()) -> None:
    """Declare the subcommand `name`, run as `run(args, report)` and listed
    with `summary`: a required positive-int `--<size>` for each name in
    `sizes`, the campaign input `_add_source(**source)`, each (flag,
    options) of `flags` and `--out`.  The sizes and flags are the params of
    its report."""
    p = which.add_parser(name, help=summary)
    params = [p.add_argument(f"--{size}", type=_positive_int, required=True).dest
              for size in sizes.split()]
    params += [p.add_argument(flag, **opts).dest for flag, opts in flags]
    if source:
        _add_source(p, **source)
    p.add_argument("--out", metavar="PATH", help="write a JSON report here")
    p.set_defaults(run=run, params=params)


_GRAPH = dict(fixed="graph", noun="graphs", trials=10, draw=_draw_graph, sizes=[
    ("--n", dict(type=_positive_int, help="vertex count for --random")),
    ("--k", dict(type=_positive_int, help="color count for --random")),
    ("--density", dict(type=_density, default=1.0,
                       help="edge probability in (0, 1] for --random (default 1.0)")),
    ("--weight-bound", dict(type=_positive_int, default=3,
                            help="weights drawn from nonzero [-W, W] (default 3)")),
], metavar="PATH", help="graph JSON file")
# The summary of each command that has subcommands of its own
_GROUPS = {"verify": "verify one of the identities", "involution": "involution machinery"}
# Every subcommand's words, in the order the help lists them, and the
# arguments `_add_command` declares it with after its name: (handler,
# sizes, summary[, campaign source[, other flags]])
_COMMANDS = {
    ("verify", "theorem1"): (_run_theorem1, "m r", "generalized power-sum identity"),
    ("verify", "theorem2"): (_run_theorem2, "r", "walk/cycle identity on a digraph", _GRAPH),
    ("verify", "theorem3"): (_run_theorem3, "r n", "multi-alphabet Newton-Girard identity"),
    ("verify", "newton-girard"): (_run_newton_girard, "n r", "classical Newton-Girard on roots",
                                  dict(fixed="roots", noun="root lists", trials=20,
                                       draw=lambda args, rng: _draw_entries(args.n, rng),
                                       help="comma-separated integer roots")),
    ("verify", "lemma21"): (_run_lemma21, "alpha", "binomial-transform power-sum check", dict(
        fixed="c", noun="sequences", trials=20, draw=lambda args, rng: _draw_entries(args.m, rng),
        sizes=[("--m", dict(type=_positive_int, default=6, help="sequence length for --random"))],
        help="comma-separated integer sequence c_1..c_m")),
    ("involution", "audit"): (_run_involution_audit, "r", "exhaustive pairing audit", _GRAPH),
    ("powersum",): (_run_powersum, "m n", "compute 1^m + ... + n^m several ways", None, [
        ("--method", dict(required=True, choices=["stirling", "bernoulli", "direct", "all"]))]),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of `girard-lab`: every subcommand, or only the one whose
    words lead `argv`.

    A run pays for each parser and argument it declares, and declaring all
    seven subcommands costs more than a small theorem2 check.  So when
    `argv` starts with a subcommand's words, only the chain to it is
    declared: the top parser, `verify` or `involution` if the subcommand
    is under one, and the subcommand with its own arguments.  That chain
    parses `argv` exactly as the whole parser does: the subcommand's
    parser reads every word after its name, and an argument it does not
    know fails through the top parser, whose usage line still lists every
    command name.  An `argv` that names no subcommand (none, `-h`,
    `verify -h`, a typo) gets the whole parser, since its help or error
    lists the choices at each level; so does `argv=None`.
    """
    parser = argparse.ArgumentParser(prog="girard-lab", description="Exact verification of "
                                     "power-sum and colored Newton-Girard identities.")
    commands = {words: spec for words, spec in _COMMANDS.items()
                if argv is not None and argv[:len(words)] == list(words)} or _COMMANDS
    # a partial build's usage line still names every command
    names = "{" + ",".join(dict.fromkeys(words[0] for words in _COMMANDS)) + "}"
    top = parser.add_subparsers(dest="command", required=True,
                                metavar=None if commands is _COMMANDS else names)
    groups = {}
    for (*group, name), spec in commands.items():
        if group and group[0] not in groups:
            groups[group[0]] = top.add_parser(group[0], help=_GROUPS[group[0]]).add_subparsers(
                dest="target", required=True)
        _add_command(groups[group[0]] if group else top, name, *spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    report = RunReport(
        " ".join(filter(None, [args.command, getattr(args, "target", None)])),
        {name: getattr(args, name) for name in args.params},
    )
    started = time.perf_counter()
    try:
        args.run(args, report)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphFormatError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return 3
    report.elapsed_ms = int((time.perf_counter() - started) * 1000)

    passed = not report.failures
    print(f"command: {report.command}")
    print(f"params: {json.dumps(report.params, sort_keys=True)}")
    if report.seed is not None:
        print(f"seed: {report.seed}")
    for note in report.notes:
        print(f"note: {note}")
    for failure in report.failures:
        print(f"FAIL: {json.dumps(failure, sort_keys=True)}")
    print(
        f"result: {'PASS' if passed else 'FAIL'} "
        f"({report.trials - len(report.failures)}/{report.trials} checks)"
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
