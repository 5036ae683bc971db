"""Command-line verification harness.

Subcommands:

    girard-lab verify theorem1 --m M --r R
    girard-lab verify theorem2 (--graph PATH | --random --n N --k K
                                [--density D] [--weight-bound W]
                                [--trials T] [--seed S]) --r R [--literal-ell]
    girard-lab verify theorem3 --r R --n N
    girard-lab verify newton-girard --n N --r R (--roots CSV | --random
                                [--trials T] [--seed S])
    girard-lab verify lemma21 --alpha A (--c CSV | --random [--m M]
                                [--trials T] [--seed S])
    girard-lab involution audit (--graph PATH | --random ...) --r R
    girard-lab powersum --m M --n N --method {stirling,bernoulli,direct,all}

theorem1 is the symbolic generalized power-sum identity, theorem2 the
walk/cycle identity on colored digraphs, theorem3 its multi-alphabet
specialization, lemma21 the binomial-transform power-sum check.

Every run prints a text summary to stdout and, with --out FILE, writes a
JSON report {"command", "params", "trials", "failures", "elapsed_ms",
"seed", "notes"}.  Reports for identical argv and seed are byte-identical
except for elapsed_ms.  When --seed is omitted the GIRARD_LAB_SEED
environment variable is used, then 0.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage error
(including an out-of-range value, an --out path that cannot be written and
a run of a subcommand without a graph whose counted work passes its
limit), 3 malformed graph file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
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
# Work limits, each checked against an exact count before any work starts;
# a run past one exits 2 at once.  theorem3 keeps r = n = 7 (881,174
# breakdown terms, 180,216 product terms) and refuses r = n = 8 (11,211,272
# breakdown terms); r = 12 makes 2^12 (S, T) entries.  theorem1 keeps
# (m, r) = (14, 1) and refuses (16, 1); its count also keeps r below the
# recursion depth of the good-word oracle.  The others keep every benchmark
# invocation and refuse inputs that would run for more than a few seconds.
THEOREM3_MAX_R = 12
THEOREM3_MAX_TERMS = 10**6
THEOREM1_MAX_CODES = 200_000
NEWTON_GIRARD_MAX_STEPS = 10**6
LEMMA21_MAX_CELLS = 500_000
POWERSUM_MAX_STEPS = 400_000

AGGREGATION_NOTE = (
    "closing term aggregates ell(r, S) over all size-r color sets; "
    "--literal-ell checks the single-set ell(r, C) form, valid when k = r"
)


class UsageError(Exception):
    """A parameter problem argparse cannot catch (exit code 2)."""


@dataclass
class RunReport:
    command: str
    params: dict
    trials: int = 0
    failures: list = field(default_factory=list)
    seed: int | None = None
    notes: list = field(default_factory=list)
    elapsed_ms: int = 0

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "params": self.params,
            "trials": self.trials,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
            "notes": self.notes,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _parse_csv_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--{what} must be a comma-separated list of integers")


def _load_graph(path: str) -> ColoredDigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def _graph_instances(
    args: argparse.Namespace, report: RunReport
) -> Iterable[tuple[int | None, ColoredDigraph]]:
    """The (graph seed, graph) pairs of a `--graph` or `--random` run;
    records the source in `report.params` and, for `--random`, the seed.

    Usage errors are raised here, before any graph is checked.  Random
    graphs are drawn one at a time as the caller asks for them, so a run
    holds one graph however many trials it makes.
    """
    if args.graph is not None:
        report.params["graph"] = args.graph
        return [(None, _load_graph(args.graph))]
    report.seed = _resolve_seed(args)
    report.params.update(
        {"n": args.n, "k": args.k, "density": args.density,
         "weight_bound": args.weight_bound, "trials": args.trials}
    )
    if args.n is None or args.k is None:
        raise UsageError("--random needs --n and --k")
    rng = random.Random(report.seed)
    seeds = (rng.randrange(2**31) for _ in range(args.trials))
    return (
        (seed, random_digraph(args.n, args.k, args.density, args.weight_bound, seed))
        for seed in seeds
    )


# -- subcommand handlers ----------------------------------------------------


def _theorem1_codes(m: int, r: int, limit: int) -> int:
    """Variable codes the 2^m - 1 products Pi_r(V) write, partial products
    included: step j of a V of size k builds k^j monomials of j codes, so
    the total is sum_k C(m, k) * sum_{j <= r} j * k^j.  The lhs and the
    good-word oracle build fewer.  The sum over k stops at the first
    partial sum past `limit`, so a huge m or r costs a term or two."""
    total = 0
    for k in range(1, m + 1):
        if k == 1:
            per_set = r * (r + 1) // 2
        else:
            per_set = k * (r * k ** (r + 1) - (r + 1) * k**r + 1) // (k - 1) ** 2
        total += binomial(m, k) * per_set
        if total > limit:
            break
    return total


def _run_theorem1(args) -> RunReport:
    _limit_work(
        f"verify theorem1 --m {args.m} --r {args.r}",
        _theorem1_codes(args.m, args.r, THEOREM1_MAX_CODES),
        "variable codes in the products Pi_r(V)", THEOREM1_MAX_CODES, at_least=True,
    )
    report = RunReport(
        command="verify theorem1", params={"m": args.m, "r": args.r}, trials=1
    )
    lhs = power_sum_lhs(args.m, args.r)
    rhs = power_sum_rhs(args.m, args.r)
    words = good_word_sum(args.m, args.r)
    if not (lhs == rhs == words):
        report.failures.append(
            {"m": args.m, "r": args.r, "lhs": str(lhs), "rhs": str(rhs),
             "good_words": str(words)}
        )
    return report


def _run_theorem2(args) -> RunReport:
    report = RunReport(
        command="verify theorem2",
        params={"r": args.r, "literal_ell": bool(args.literal_ell)},
    )
    report.notes.append(AGGREGATION_NOTE)
    for idx, (graph_seed, g) in enumerate(_graph_instances(args, report)):
        report.trials += 1
        res = verify_walk_cycle_identity(g, args.r)
        residual = res.literal_residual if args.literal_ell else res.residual
        if args.r > g.colors:
            report.notes.append(f"instance {idx}: vacuous: r exceeds color count")
        if not residual.is_zero:
            report.failures.append(
                {"instance": idx, "graph_seed": graph_seed, "n": g.n,
                 "k": g.colors, "case": res.case, "residual": str(residual)}
            )
    return report


def _theorem3_terms(r: int, n: int) -> tuple[int, int]:
    """The polynomial terms `verify theorem3` builds at (r, n), exactly:
    (breakdown terms, product terms).

    The (S, T) entry with |S| = k is the n-term bracket (1 when T is empty)
    times E(n, S, k), which has k! * C(n, k) terms and shares no variable
    with the bracket.  The product terms are those the determinant DP of
    the all-loops graph carries over its layers j = 0..n, where layer j
    holds prod_{j' <= j} (1 - sum_i a[j']^(i) t_i): sum_j sum_S |E(j, S)| =
    sum_k C(r, k) * k! * C(n + 1, k + 1), the empty S counting its 1 in
    each layer.  That DP gives the ell map of the run.
    """
    k_top = r if r > n else r - 1
    breakdown = sum(
        binomial(r, k) * (n if k < r else 1) * binomial(n, k) * factorial(k)
        for k in range(k_top + 1)
    )
    product = sum(
        binomial(r, k) * factorial(k) * binomial(n + 1, k + 1) for k in range(r + 1)
    )
    return breakdown, product


def _run_theorem3(args) -> RunReport:
    if args.r > THEOREM3_MAX_R:
        raise UsageError(
            f"verify theorem3 --r {args.r} would make 2^{args.r} (S, T) entries; "
            f"the limit is 2^{THEOREM3_MAX_R}"
        )
    breakdown_terms, product_terms = _theorem3_terms(args.r, args.n)
    for count, what in [(breakdown_terms, "breakdown terms"),
                        (product_terms, "generating-function product terms")]:
        _limit_work(f"verify theorem3 --r {args.r} --n {args.n}", count, what,
                    THEOREM3_MAX_TERMS)
    report = RunReport(
        command="verify theorem3", params={"r": args.r, "n": args.n}, trials=1
    )
    res = verify_colored_newton_girard(args.r, args.n)
    report.notes.extend(res.notes)
    if not res.residual.is_zero:
        report.failures.append(
            {"r": args.r, "n": args.n, "residual": str(res.residual)}
        )
    elif not cross_check_against_loops(args.r, args.n):
        report.failures.append(
            {"r": args.r, "n": args.n,
             "residual": "symbolic and all-loops-graph paths disagree"}
        )
    return report


def _run_newton_girard(args) -> RunReport:
    params = {"n": args.n, "r": args.r}
    report = RunReport(command="verify newton-girard", params=params)
    # per trial: n * r(r+1)/2 steps for the powers root^t, t <= r, and
    # n(n+1)/2 updates for the coefficients e_t
    count = 1 if args.roots is not None else args.trials
    steps = args.n * args.r * (args.r + 1) // 2 + args.n * (args.n + 1) // 2
    _limit_work(
        f"verify newton-girard --n {args.n} --r {args.r} on {count} trial(s)",
        count * steps, "power and coefficient steps", NEWTON_GIRARD_MAX_STEPS,
    )
    if args.roots is not None:
        roots = _parse_csv_ints(args.roots, "roots")
        if len(roots) != args.n:
            raise UsageError(f"--roots must list exactly n = {args.n} integers")
        params["roots"] = roots
        trials = [roots]
    else:
        seed = _resolve_seed(args)
        report.seed = seed
        params["trials"] = args.trials
        rng = random.Random(seed)
        trials = [
            [rng.randint(-5, 5) for _ in range(args.n)] for _ in range(args.trials)
        ]
    for idx, roots in enumerate(trials):
        report.trials += 1
        if not verify_classical_newton_girard(roots, args.r):
            report.failures.append({"instance": idx, "roots": roots})
    return report


def _run_lemma21(args) -> RunReport:
    params = {"alpha": args.alpha}
    report = RunReport(command="verify lemma21", params=params)
    if args.c is not None:
        c = _parse_csv_ints(args.c, "c")
        if not c:
            raise UsageError("--c needs at least one entry")
        params["c"] = c
        count, length, trials = 1, len(c), [c]
    else:
        seed = _resolve_seed(args)
        report.seed = seed
        params.update({"m": args.m, "trials": args.trials})
        rng = random.Random(seed)
        count, length = args.trials, args.m
        trials = (
            [rng.randint(-5, 5) for _ in range(args.m)] for _ in range(args.trials)
        )
    # each trial builds the Stirling row S(alpha, 0..m), alpha rows of m cells
    _limit_work(
        f"verify lemma21 --alpha {args.alpha} on {count} trial(s) of length {length}",
        count * args.alpha * length, "Stirling-row cells", LEMMA21_MAX_CELLS,
    )
    for idx, c in enumerate(trials):
        report.trials += 1
        if not verify_binomial_transform(args.alpha, c):
            report.failures.append({"instance": idx, "c": c})
    return report


def _run_involution_audit(args) -> RunReport:
    report = RunReport(command="involution audit", params={"r": args.r})
    for idx, (graph_seed, g) in enumerate(_graph_instances(args, report)):
        report.trials += 1
        audit = audit_involution(g, args.r)
        if not audit.ok:
            report.failures.append(
                {"instance": idx, "graph_seed": graph_seed,
                 "problems": list(audit.problems), "total": str(audit.total)}
            )
    return report


def _run_powersum(args) -> RunReport:
    # direct takes n powers k^m (n * m steps); the Bernoulli recurrence and
    # the Stirling row take at most m^2 terms
    _limit_work(
        f"powersum --m {args.m} --n {args.n}", args.m * max(args.m, args.n),
        "power and recurrence steps", POWERSUM_MAX_STEPS,
    )
    params = {"m": args.m, "n": args.n, "method": args.method}
    report = RunReport(command="powersum", params=params, trials=1)
    values = {}
    if args.method in ("direct", "all"):
        values["direct"] = power_sum_direct(args.m, args.n)
    if args.method in ("stirling", "all"):
        values["stirling"] = power_sum_via_stirling(args.m, args.n)
        report.notes.append(PREFACTOR_NOTE)
    if args.method in ("bernoulli", "all"):
        below = power_sum_via_bernoulli(args.m, args.n)
        if below.denominator != 1:
            report.failures.append(
                {"m": args.m, "n": args.n,
                 "error": f"bernoulli formula not integer-valued: {below}"}
            )
        # the bernoulli formula sums k^m below n; add n^m for the full sum
        values["bernoulli"] = int(below) + args.n**args.m
    for name in sorted(values):
        report.notes.append(f"value {name} = {values[name]}")
    if len(set(values.values())) > 1:
        report.failures.append(
            {"m": args.m, "n": args.n,
             "values": {k: str(v) for k, v in sorted(values.items())}}
        )
    return report


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


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write a JSON report here")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="PATH", help="graph JSON file")
    source.add_argument(
        "--random", action="store_true", help="verify seeded random graphs"
    )
    p.add_argument("--n", type=_positive_int, help="vertex count for --random")
    p.add_argument("--k", type=_positive_int, help="color count for --random")
    p.add_argument("--density", type=_density, default=1.0,
                   help="edge probability in (0, 1] for --random (default 1.0)")
    p.add_argument("--weight-bound", type=_positive_int, default=3,
                   help="weights drawn from nonzero [-W, W] (default 3)")
    p.add_argument("--trials", type=_positive_int, default=10,
                   help="number of random graphs (default 10)")
    p.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girard-lab",
        description="Exact verification of power-sum and colored "
        "Newton-Girard identities.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="verify one of the identities")
    which = verify.add_subparsers(dest="target", required=True)

    t1 = which.add_parser("theorem1", help="generalized power-sum identity")
    t1.add_argument("--m", type=_positive_int, required=True)
    t1.add_argument("--r", type=_positive_int, required=True)
    _add_out(t1)
    t1.set_defaults(run=_run_theorem1)

    t2 = which.add_parser("theorem2", help="walk/cycle identity on a digraph")
    _add_graph_source(t2)
    t2.add_argument("--r", type=_positive_int, required=True)
    t2.add_argument("--literal-ell", action="store_true",
                    help="use the single-set ell(r, C) closing term")
    _add_out(t2)
    t2.set_defaults(run=_run_theorem2)

    t3 = which.add_parser("theorem3", help="multi-alphabet Newton-Girard identity")
    t3.add_argument("--r", type=_positive_int, required=True)
    t3.add_argument("--n", type=_positive_int, required=True)
    _add_out(t3)
    t3.set_defaults(run=_run_theorem3)

    ng = which.add_parser("newton-girard", help="classical Newton-Girard on roots")
    ng.add_argument("--n", type=_positive_int, required=True)
    ng.add_argument("--r", type=_positive_int, required=True)
    source = ng.add_mutually_exclusive_group(required=True)
    source.add_argument("--roots", help="comma-separated integer roots")
    source.add_argument("--random", action="store_true")
    ng.add_argument("--trials", type=_positive_int, default=20)
    ng.add_argument("--seed", type=int)
    _add_out(ng)
    ng.set_defaults(run=_run_newton_girard)

    lm = which.add_parser("lemma21", help="binomial-transform power-sum check")
    lm.add_argument("--alpha", type=_positive_int, required=True)
    source = lm.add_mutually_exclusive_group(required=True)
    source.add_argument("--c", help="comma-separated integer sequence c_1..c_m")
    source.add_argument("--random", action="store_true")
    lm.add_argument("--m", type=_positive_int, default=6,
                    help="sequence length for --random")
    lm.add_argument("--trials", type=_positive_int, default=20)
    lm.add_argument("--seed", type=int)
    _add_out(lm)
    lm.set_defaults(run=_run_lemma21)

    inv = top.add_parser("involution", help="involution machinery")
    inv_which = inv.add_subparsers(dest="target", required=True)
    audit = inv_which.add_parser("audit", help="exhaustive pairing audit")
    _add_graph_source(audit)
    audit.add_argument("--r", type=_positive_int, required=True)
    _add_out(audit)
    audit.set_defaults(run=_run_involution_audit)

    ps = top.add_parser("powersum", help="compute 1^m + ... + n^m several ways")
    ps.add_argument("--m", type=_positive_int, required=True)
    ps.add_argument("--n", type=_positive_int, required=True)
    ps.add_argument("--method", required=True,
                    choices=["stirling", "bernoulli", "direct", "all"])
    _add_out(ps)
    ps.set_defaults(run=_run_powersum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    started = time.perf_counter()
    try:
        report = args.run(args)
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
