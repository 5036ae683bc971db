import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import girardlab
from girardlab import ColoredDigraph, random_digraph, serialize_digraph
from girardlab import cli, enumeration, involution, newton, powersum
from girardlab.cli import main
from girardlab.digraph import self_loop_digraph
from girardlab.enumeration import closed_walks, linear_subdigraph_buckets, linear_subdigraphs
from girardlab.involution import enumerate_pairs
from girardlab.poly import Poly, poly_dot, poly_sum, xvar

from _support import all_pattern_graphs
from test_golden_reports import GOLDEN

REPORT_KEYS = {
    "command", "params", "trials", "failures", "elapsed_ms", "seed", "notes",
}

ELAPSED_RE = re.compile(r'"elapsed_ms": \d+')


def scrub_elapsed(text: str) -> str:
    return ELAPSED_RE.sub('"elapsed_ms": 0', text)


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(serialize_digraph(g), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# exit code 0: passing verifications
# ---------------------------------------------------------------------------


def test_theorem1_passes(capsys):
    assert main(["verify", "theorem1", "--m", "3", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "command: verify theorem1" in out
    assert "result: PASS (1/1 checks)" in out


def test_theorem1_at_the_baseline_size(capsys):
    assert main(["verify", "theorem1", "--m", "12", "--r", "1"]) == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_theorem3_at_the_workload_size(capsys):
    assert main(["verify", "theorem3", "--r", "6", "--n", "6"]) == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_theorem2_on_a_graph_file(tmp_path, capsys):
    g = random_digraph(3, 2, 1.0, 3, seed=11)
    path = write_graph(tmp_path, g)
    assert main(["verify", "theorem2", "--graph", path, "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "closing term aggregates" in out  # the aggregation note


def test_theorem2_random_campaign(capsys):
    rc = main(
        ["verify", "theorem2", "--random", "--n", "2", "--k", "2",
         "--trials", "3", "--seed", "5", "--r", "1"]
    )
    assert rc == 0
    assert "result: PASS (3/3 checks)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, check",
    [("verify theorem2", "verify_walk_cycle_identity"),
     ("involution audit", "audit_involution")],
)
def test_random_graphs_are_drawn_one_at_a_time(argv, check, monkeypatch, capsys):
    # each graph is checked before the next is drawn, from the same seeds
    log = []
    draw, verify = cli.random_digraph, getattr(cli, check)

    def drawn(n, k, density, bound, seed):
        log.append(("draw", seed))
        return draw(n, k, density, bound, seed)

    def checked(g, r):
        log.append(("check", None))
        return verify(g, r)

    monkeypatch.setattr(cli, "random_digraph", drawn)
    monkeypatch.setattr(cli, check, checked)
    rc = main(argv.split() + ["--random", "--n", "2", "--k", "2",
                              "--trials", "3", "--seed", "5", "--r", "2"])
    assert rc == 0
    assert "result: PASS (3/3 checks)" in capsys.readouterr().out
    rng = random.Random(5)
    seeds = [rng.randrange(2**31) for _ in range(3)]
    assert log == [entry for seed in seeds for entry in [("draw", seed), ("check", None)]]


def test_theorem2_vacuous_when_r_exceeds_k(capsys):
    rc = main(
        ["verify", "theorem2", "--random", "--n", "1", "--k", "1",
         "--trials", "1", "--seed", "0", "--r", "2"]
    )
    assert rc == 0
    assert "vacuous" in capsys.readouterr().out


@pytest.mark.parametrize("source", [
    ["--graph", "GRAPH"], ["--random", "--n", "2", "--k", "2", "--trials", "2", "--seed", "0"],
], ids=["graph", "random"])
def test_audit_vacuous_when_r_exceeds_k(source, tmp_path, capsys):
    source = [write_graph(tmp_path, FAULT_GRAPH) if arg == "GRAPH" else arg for arg in source]
    out_path = tmp_path / "report.json"
    assert main(["involution", "audit", *source, "--r", "3", "--out", str(out_path)]) == 0
    notes = json.loads(out_path.read_text(encoding="utf-8"))["notes"]
    trials = 1 if "--graph" in source else 2
    assert notes == [f"instance {idx}: vacuous: r exceeds color count" for idx in range(trials)]


def test_theorem3_passes(capsys):
    assert main(["verify", "theorem3", "--r", "2", "--n", "3"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_newton_girard_explicit_roots(capsys):
    rc = main(
        ["verify", "newton-girard", "--n", "3", "--r", "5",
         "--roots", "1,-2,3"]
    )
    assert rc == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_lemma21_explicit_sequence(capsys):
    assert main(["verify", "lemma21", "--alpha", "3", "--c", "2,0,-1"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_lemma21_trials_share_one_stirling_row(capsys):
    powersum._stirling2_row.cache_clear()
    argv = "verify lemma21 --alpha 5 --random --m 6 --trials 4".split()
    assert main(argv) == 0
    assert "result: PASS (4/4 checks)" in capsys.readouterr().out
    assert powersum._stirling2_row.cache_info().misses == 1


def test_involution_audit_random(capsys):
    rc = main(
        ["involution", "audit", "--random", "--n", "2", "--k", "2",
         "--trials", "2", "--seed", "9", "--r", "2"]
    )
    assert rc == 0
    assert "result: PASS (2/2 checks)" in capsys.readouterr().out


def test_powersum_all_methods(capsys):
    assert main(["powersum", "--m", "2", "--n", "3", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "value bernoulli = 14" in out
    assert "value direct = 14" in out
    assert "value stirling = 14" in out
    assert "prefactor-free" in out


# ---------------------------------------------------------------------------
# exit code 1: an honest verification failure
# ---------------------------------------------------------------------------


def run_failing(argv, tmp_path, capsys):
    """The failures of a run that must exit 1, read from its --out report."""
    out_path = tmp_path / "report.json"
    assert main(argv + ["--out", str(out_path)]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    return json.loads(out_path.read_text(encoding="utf-8"))["failures"]


def test_theorem1_records_all_three_sides_of_a_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "good_word_sum", lambda m, r: powersum.good_word_sum(m, r) + 1)
    failures = run_failing(["verify", "theorem1", "--m", "2", "--r", "1"], tmp_path, capsys)
    lhs = powersum.power_sum_lhs(2, 1)
    assert failures == [
        {"m": 2, "r": 1, "lhs": str(lhs), "rhs": str(powersum.power_sum_rhs(2, 1)),
         "good_words": str(lhs + 1)}
    ]


def _one_bucket(change, key):
    """A fault for a DP map: the entry at `key` goes through `change`."""
    def fault(original):
        def patched(g):
            buckets = dict(original(g))
            buckets[key] = change(buckets.get(key, 0))
            return buckets
        return patched
    return fault


def _moved(amount, source, target):
    """A fault for a DP map: `amount` moves from the entry at `source` to
    the one at `target`, so the sum over all keys stays the same."""
    return lambda original: _one_bucket(lambda v: v + amount, target)(
        _one_bucket(lambda v: v - amount, source)(original))


def _each_trial(trials, seed, **fields):
    """The failure record of every trial of a `--random` graph campaign:
    `fields`, with the instance and the graph seed the CLI draws."""
    rng = random.Random(seed)
    return [{"instance": idx, "graph_seed": rng.randrange(2**31), **fields}
            for idx in range(trials)]


def _off_by_one(original):
    return lambda *args: original(*args) + 1


# Vertex 1 has loops of weights 2 and 3, and 1 <-> 2 is a 2-cycle.  At r = 2
# the (S, T) = ({}, {1, 2}) entry is c(2, {1, 2}) * 1, so one more in that
# bucket leaves a residual of 1; the ({1}, {2}) entry is c(1, {2}) *
# ell(1, {1}) = 3 * -2, so that ell without its sign leaves 12.
FAULT_GRAPH = ColoredDigraph(2, 2, {(1, 1): [2, 3], (1, 2): [1, 1], (2, 1): [1, 1]})
THEOREM2 = ["verify", "theorem2", "--graph", "GRAPH", "--r", "2"]
# dense (4, 4) graphs at r = 2: six color sets U, each checked on its own
THEOREM2_RANDOM = "verify theorem2 --random --n 4 --k 4 --r 2 --trials 20 --seed 3".split()
AUDIT = ["involution", "audit", "--graph", "GRAPH", "--r", "2"]
# the same graphs audited: the recheck reads each U's residual
AUDIT_RANDOM = "involution audit --random --n 4 --k 4 --r 2 --trials 5 --seed 3".split()
THEOREM1 = ["verify", "theorem1", "--m", "2", "--r", "1"]
LHS = "x[1]^(1)*y[2] + x[1]^(1)*y[3] + x[2]^(1)*y[3]"
POWERSUM = ["powersum", "--m", "2", "--n", "3", "--method", "all"]
# what an identity `involute` meets at each of the graph's 4 BAD pairs at r = 2
BAD_PAIR = ["involution has a fixed point", "involution image weight is not the negation"]
REFUSED = "involute refuses a pair classified BAD"
# one of the graph's 4 GOOD pairs at r = 2: the 2-cycle rooted at 1
GOOD_PAIR = involution.WalkGammaPair(enumeration.Walk(1, ((2, 1), (1, 2))),
                                     enumeration.EMPTY_SUBDIGRAPH)


def _first_pair_twice(original):
    """A fault for `enumerate_pairs`: its list, then its first pair again."""
    def patched(*args, **kwargs):
        pairs = original(*args, **kwargs)
        return pairs + pairs[:1]
    return patched


def _bad_pairs():
    """The graph's BAD pairs at r = 2, in enumeration order."""
    pairs = enumerate_pairs(FAULT_GRAPH, 2, linear_subdigraphs(FAULT_GRAPH, FAULT_GRAPH.colors))
    return [pair for pair in pairs if involution.classify(pair) == involution.BAD]


def _next_bad(original):
    """A fault for `involute`: each BAD pair goes to the next one, the
    last to the first."""
    bad = _bad_pairs()
    return lambda pair: bad[(bad.index(pair) + 1) % len(bad)]


def _without_color_1(original):
    """A fault for `newton._assemble`: color 1 is dropped from its color
    set, so fewer color sets U are compared than the sizes call for, and
    each one compared still has a zero residual."""
    return lambda n, colors, r, c, ell: original(n, colors - {1}, r, c, ell)


def _first_bad_called_good(original):
    """A fault for `classify`: the first BAD pair is called GOOD."""
    first = _bad_pairs()[0]
    return lambda pair: involution.GOOD if pair == first else original(pair)


# One planted fault per route that runs in the CLI: the module and name
# patched, the fault as a function of the original, the argv, and the one
# failure record the run must write, or the list of them for a campaign.
PLANTED_FAULTS = [
    pytest.param(newton, "closed_walk_buckets",
                 _one_bucket(lambda v: v + 1, (2, frozenset({1, 2}))), THEOREM2,
                 {"instance": 0, "graph_seed": None, "n": 2, "k": 2, "case": "r<=n",
                  "color_set": [1, 2], "residual": "1"},
                 id="theorem2-walk-dp"),
    pytest.param(newton, "linear_subdigraph_buckets",
                 _one_bucket(lambda v: -v, (1, frozenset({1}))), THEOREM2,
                 {"instance": 0, "graph_seed": None, "n": 2, "k": 2, "case": "r<=n",
                  "color_set": [1, 2], "residual": "12"},
                 id="theorem2-clow-dp-sign"),
    # weight moved between two color sets leaves the sum over all of them
    # alone: U = {1, 2} is off by +r * 5 or +5, and U = {1, 3} by as much
    # the other way
    pytest.param(newton, "linear_subdigraph_buckets",
                 _moved(5, (2, frozenset({1, 3})), (2, frozenset({1, 2}))), THEOREM2_RANDOM,
                 _each_trial(20, 3, n=4, k=4, case="r<=n", color_set=[1, 2], residual="10"),
                 id="theorem2-ell-moved-between-color-sets"),
    pytest.param(newton, "closed_walk_buckets",
                 _moved(5, (2, frozenset({1, 3})), (2, frozenset({1, 2}))), THEOREM2_RANDOM,
                 _each_trial(20, 3, n=4, k=4, case="r<=n", color_set=[1, 2], residual="5"),
                 id="theorem2-c-moved-between-color-sets"),
    # ell(2, {1, 2}) enters theorem3 at r = 2 only in the closing term
    pytest.param(newton, "linear_subdigraph_buckets",
                 _one_bucket(lambda v: -v, (2, frozenset({1, 2}))),
                 ["verify", "theorem3", "--r", "2", "--n", "2"],
                 {"r": 2, "n": 2, "residual": "-4*a[1]^(1)*a[2]^(2) - 4*a[1]^(2)*a[2]^(1)"},
                 id="theorem3-closing-sign"),
    pytest.param(newton, "closed_walk_buckets",
                 _one_bucket(lambda v: v + 1, (1, frozenset({1}))),
                 ["verify", "theorem3", "--r", "2", "--n", "2"],
                 {"r": 2, "n": 2, "residual": "symbolic and all-loops-graph paths disagree"},
                 id="theorem3-cross-check"),
    pytest.param(cli, "power_sum_lhs", _off_by_one, THEOREM1,
                 {"m": 2, "r": 1, "lhs": LHS + " + 1", "rhs": LHS, "good_words": LHS},
                 id="theorem1-lhs"),
    pytest.param(cli, "power_sum_rhs", _off_by_one, THEOREM1,
                 {"m": 2, "r": 1, "lhs": LHS, "rhs": LHS + " + 1", "good_words": LHS},
                 id="theorem1-rhs"),
    # the oracle's ranges one wider: i_p <= m + 1 and t <= m + 2
    pytest.param(cli, "good_word_sum", lambda original: lambda m, r: original(m + 1, r),
                 THEOREM1,
                 {"m": 2, "r": 1, "lhs": LHS, "rhs": LHS,
                  "good_words": "x[1]^(1)*y[2] + x[1]^(1)*y[3] + x[1]^(1)*y[4] "
                                "+ x[2]^(1)*y[3] + x[2]^(1)*y[4] + x[3]^(1)*y[4]"},
                 id="theorem1-good-word-bound"),
    pytest.param(cli, "power_sum_via_stirling", _off_by_one, POWERSUM,
                 {"m": 2, "n": 3, "values": {"bernoulli": "14", "direct": "14", "stirling": "15"}},
                 id="powersum-stirling"),
    pytest.param(cli, "power_sum_via_bernoulli", _off_by_one, POWERSUM,
                 {"m": 2, "n": 3, "values": {"bernoulli": "15", "direct": "14", "stirling": "14"}},
                 id="powersum-bernoulli"),
    pytest.param(cli, "power_sum_direct", _off_by_one, POWERSUM,
                 {"m": 2, "n": 3, "values": {"bernoulli": "14", "direct": "15", "stirling": "14"}},
                 id="powersum-direct"),
    # S(3, 1) one more
    pytest.param(powersum, "_stirling2_row",
                 lambda original: lambda m, top: tuple(
                     s + (k == 1) for k, s in enumerate(original(m, top))),
                 ["verify", "lemma21", "--alpha", "3", "--c", "1,2"],
                 {"instance": 0, "c": [1, 2]}, id="lemma21-stirling-row"),
    pytest.param(newton, "elementary_coefficients",
                 lambda original: lambda roots: [e + 1 for e in original(roots)],
                 ["verify", "newton-girard", "--n", "2", "--r", "2", "--roots", "1,2"],
                 {"instance": 0, "roots": [1, 2]}, id="newton-girard-coefficients"),
    pytest.param(involution, "involute", lambda original: lambda pair: pair, AUDIT,
                 {"instance": 0, "graph_seed": None, "problems": BAD_PAIR * 4, "total": "0"},
                 id="audit-involute-identity"),
    pytest.param(involution, "classify", lambda original: lambda pair: involution.GOOD, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["GOOD pairs do not cover exactly the r-edge subdigraphs"],
                  "total": "0"},
                 id="audit-classify-all-good"),
    # every GOOD pair goes to `involute` too, which refuses it
    pytest.param(involution, "classify", lambda original: lambda pair: involution.BAD, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": [REFUSED] * 4 + ["BAD pair weights do not cancel",
                                               "GOOD pairs do not cover exactly the r-edge "
                                               "subdigraphs"],
                  "total": "0"},
                 id="audit-classify-all-bad"),
    # an `involute` that skips the gamma-vertex test
    pytest.param(involution, "involute",
                 lambda original: lambda pair: original(involution.WalkGammaPair(
                     pair.walk,
                     enumeration.LinearSubdigraph(pair.gamma.cycles, 0, pair.gamma.color_mask))),
                 AUDIT,
                 {"instance": 0, "graph_seed": None, "problems": [REFUSED] * 4, "total": "0"},
                 id="audit-involute-blind-to-gamma"),
    # a wrong weight index: a walk reads color c % k + 1 for color c
    pytest.param(enumeration.Walk, "weight",
                 lambda original: lambda walk, g: math.prod(
                     g.weight(u, v, c % g.colors + 1) for u, v, c in walk.edges()),
                 AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["involution image weight is not the negation"] * 2
                  + ["BAD pair weights do not cancel",
                     "audit total disagrees with the identity residual"],
                  "total": "-1"},
                 id="audit-walk-weight-index"),
    # the first pair, a BAD one of weight -6, enumerated twice
    pytest.param(involution, "enumerate_pairs", _first_pair_twice, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["enumerate_pairs returned duplicates",
                               "BAD pair weights do not cancel",
                               "audit total disagrees with the identity residual"],
                  "total": "-6"},
                 id="audit-duplicate-pair"),
    pytest.param(involution, "involute",
                 lambda original: lambda pair: involution.WalkGammaPair(
                     enumeration.Walk(pair.walk.start, pair.walk.steps * 2), pair.gamma),
                 AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["involution image escapes the enumerated pairs"] * 4,
                  "total": "0"},
                 id="audit-image-escapes"),
    pytest.param(involution, "involute", lambda original: lambda pair: GOOD_PAIR, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["involution image is GOOD"] * 4, "total": "0"},
                 id="audit-image-is-good"),
    # the BAD weights are -6, -6, 6, 6 in enumeration order
    pytest.param(involution, "involute", _next_bad, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["involution fails to return after two applications",
                               "involution image weight is not the negation"] * 2,
                  "total": "0"},
                 id="audit-involute-next-bad"),
    pytest.param(involution.WalkGammaPair, "total_length",
                 lambda original: property(lambda self: 3), AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["pair has total length 3, wanted 2"] * 8, "total": "0"},
                 id="audit-total-length"),
    # the first BAD pair's partner then maps to a GOOD pair, and that pair,
    # grouped with the GOOD ones, has two loops at vertex 1
    pytest.param(involution, "classify", _first_bad_called_good, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["involution image is GOOD",
                               "BAD pair weights do not cancel",
                               "GOOD pairs do not cover exactly the r-edge subdigraphs",
                               "subdigraph owns 1 GOOD pairs, expected 2",
                               "GOOD group weight sum is off"],
                  "total": "0"},
                 id="audit-classify-first-bad-good"),
    # too few color sets compared: no U of size 3 is left at k = 3, one of
    # the three of size 2, and none of theorem3's one set [3]
    pytest.param(newton, "_assemble", _without_color_1,
                 "verify theorem2 --random --n 3 --k 3 --r 3 --trials 3 --seed 0".split(),
                 _each_trial(3, 0, n=3, k=3, compared=0, expected=1),
                 id="theorem2-too-few-color-sets"),
    pytest.param(newton, "_assemble", _without_color_1,
                 "verify theorem2 --random --n 3 --k 3 --r 2 --trials 2 --seed 0".split(),
                 _each_trial(2, 0, n=3, k=3, compared=1, expected=3),
                 id="theorem2-one-of-three-color-sets"),
    pytest.param(newton, "_assemble", _without_color_1,
                 ["verify", "theorem3", "--r", "3", "--n", "3"],
                 {"r": 3, "n": 3, "compared": 0, "expected": 1},
                 id="theorem3-no-color-set"),
    # the audit's recheck of the identity through the DP maps
    pytest.param(newton, "closed_walk_buckets",
                 _one_bucket(lambda v: v + 1, (2, frozenset({1, 2}))), AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": ["audit total disagrees with the identity residual",
                               "identity residual at color set [1, 2] is 1"],
                  "total": "0"},
                 id="audit-identity-recheck"),
    # weight moved between two color sets leaves the audit total alone
    pytest.param(newton, "linear_subdigraph_buckets",
                 _moved(5, (2, frozenset({1, 3})), (2, frozenset({1, 2}))), AUDIT_RANDOM,
                 _each_trial(5, 3, problems=["identity residual at color set [1, 2] is 10"],
                             total="0"),
                 id="audit-ell-moved-between-color-sets"),
    pytest.param(newton, "closed_walk_buckets",
                 _moved(5, (2, frozenset({1, 3})), (2, frozenset({1, 2}))), AUDIT_RANDOM,
                 _each_trial(5, 3, problems=["identity residual at color set [1, 2] is 5"],
                             total="0"),
                 id="audit-c-moved-between-color-sets"),
]


@pytest.mark.parametrize("module, name, fault, argv, record", PLANTED_FAULTS)
def test_a_planted_fault_fails_its_route(module, name, fault, argv, record, tmp_path, capsys,
                                         monkeypatch):
    graph = write_graph(tmp_path, FAULT_GRAPH)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    argv = [graph if arg == "GRAPH" else arg for arg in argv]
    assert run_failing(argv, tmp_path, capsys) == (record if isinstance(record, list)
                                                   else [record])


def test_powersum_records_a_value_that_is_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "power_sum_via_bernoulli", lambda m, n: Fraction(1, 2))
    out_path = tmp_path / "report.json"
    assert main(["powersum", "--m", "2", "--n", "3", "--method", "all",
                 "--out", str(out_path)]) == 1
    # one check, one failure record: it keeps every value and names the
    # method whose value is not an integer
    assert "result: FAIL (0/1 checks)" in capsys.readouterr().out
    assert json.loads(out_path.read_text(encoding="utf-8"))["failures"] == [
        {"m": 2, "n": 3, "values": {"bernoulli": "1/2", "direct": "14", "stirling": "14"},
         "not_integer": ["bernoulli"]},
    ]
    # a single method whose value is not an integer fails the same way
    assert run_failing(["powersum", "--m", "2", "--n", "3", "--method", "bernoulli"],
                       tmp_path, capsys) == [
        {"m": 2, "n": 3, "values": {"bernoulli": "1/2"}, "not_integer": ["bernoulli"]},
    ]


# a value whose text would pass the interpreter's 4,300-digit limit
LONG_INT = 10**4400
NOT_PRINTED = "(not printed: an integer past the 4300-digit limit)"
LONG_ELL = _one_bucket(lambda v: v + LONG_INT, (2, frozenset({1, 2})))


@pytest.mark.parametrize("module, name, fault, argv, record", [
    pytest.param(cli, "power_sum_lhs", lambda original: lambda m, r: Poly.const(LONG_INT),
                 THEOREM1,
                 {"m": 2, "r": 1, "lhs": NOT_PRINTED, "rhs": LHS, "good_words": LHS},
                 id="theorem1"),
    pytest.param(newton, "linear_subdigraph_buckets", LONG_ELL, THEOREM2,
                 {"instance": 0, "graph_seed": None, "n": 2, "k": 2, "case": "r<=n",
                  "color_set": [1, 2], "residual": NOT_PRINTED},
                 id="theorem2"),
    pytest.param(newton, "linear_subdigraph_buckets", LONG_ELL,
                 ["verify", "theorem3", "--r", "2", "--n", "2"],
                 {"r": 2, "n": 2, "residual": NOT_PRINTED}, id="theorem3"),
    pytest.param(newton, "linear_subdigraph_buckets", LONG_ELL, AUDIT,
                 {"instance": 0, "graph_seed": None,
                  "problems": [f"identity residual at color set [1, 2] is {NOT_PRINTED}"],
                  "total": NOT_PRINTED},
                 id="audit"),
    pytest.param(cli, "power_sum_direct", lambda original: lambda m, n: LONG_INT, POWERSUM,
                 {"m": 2, "n": 3, "values": {"bernoulli": "14", "direct": NOT_PRINTED,
                                             "stirling": "14"}},
                 id="powersum"),
])
def test_a_value_too_long_to_print_is_a_failure_record(module, name, fault, argv, record,
                                                       tmp_path, capsys, monkeypatch):
    # str() of an int past the digit limit raises ValueError; every value a
    # report prints goes through one guard, so the run still ends in exit 1
    graph = write_graph(tmp_path, FAULT_GRAPH)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    argv = [graph if arg == "GRAPH" else arg for arg in argv]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run_failing(argv, tmp_path, capsys) == [record]
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# exit code 2: usage errors
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["verify"]) == 2
    capsys.readouterr()  # swallow argparse noise


def test_random_without_dimensions_is_usage_error(capsys):
    rc = main(["verify", "theorem2", "--random", "--r", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # only the size left unset is named
    assert main(["verify", "theorem2", "--random", "--n", "2", "--r", "1"]) == 2
    err = capsys.readouterr().err
    assert "--random needs --k" in err and "--n" not in err


def test_wrong_root_count_is_usage_error(capsys):
    rc = main(
        ["verify", "newton-girard", "--n", "3", "--r", "2", "--roots", "1,2"]
    )
    assert rc == 2
    assert "exactly n = 3" in capsys.readouterr().err


def test_unparsable_sequence_is_usage_error(capsys):
    rc = main(["verify", "lemma21", "--alpha", "2", "--c", "1,two,3"])
    assert rc == 2
    assert "comma-separated" in capsys.readouterr().err


LEAF_COMMANDS = [
    "verify theorem1", "verify theorem2", "verify theorem3", "verify newton-girard",
    "verify lemma21", "involution audit", "powersum",
]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "girard-lab" in capsys.readouterr().out
    for command in LEAF_COMMANDS:
        assert main(command.split() + ["--help"]) == 0, command
        out = capsys.readouterr().out
        assert out.startswith(f"usage: girard-lab {command} "), command
        assert "--out PATH" in out, command


def _leaf_parsers(parser, path=()):
    """(subcommand words, parser) for each subcommand with no subcommands
    of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_the_synopsis_matches_the_parser():
    # README and the module docstring show one synopsis, whitespace aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme_block = readme.split("one subcommand per identity:\n\n```\n", 1)[1].split("```")[0]
    doc_block = cli.__doc__.split("Subcommands:\n", 1)[1].split("each of them followed by")[0]
    assert readme_block.split() == doc_block.split()
    # one entry per line that starts with the command name, with its wrapped lines
    entries = re.split(r"\n\s*(?=girard-lab )", doc_block.strip())
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert sorted(leaves) == sorted(LEAF_COMMANDS)
    for command, parser in leaves.items():
        named = [e for e in entries if e.startswith(f"girard-lab {command} ")]
        assert len(named) == 1, command
        for flag in re.findall(r"--[a-z][a-z-]*", named[0]):
            assert flag in parser._option_string_actions, (command, flag)


SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _limit_values(cell):
    """The numbers a README limit cell names, written 400,000, 2.5·10⁶ or 10⁶."""
    values = set()
    for mantissa, power, plain in re.findall(
            r"(?:(\d+(?:\.\d+)?)·)?10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)|(\d[\d,]*)", cell):
        if plain:
            values.add(int(plain.replace(",", "")))
        else:
            values.add(Fraction(mantissa or 1) * 10 ** int(power.translate(SUPERSCRIPTS)))
    return values


def test_the_limits_table_matches_the_limits():
    # README's limits table has one row per subcommand, and the limit in
    # that row is the value of each of the subcommand's *_MAX_* constants
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | count | limit |\n|---|---|---|\n", 1)[1]
    rows = [line.strip("|").split("|") for line in table.split("\n\n", 1)[0].splitlines()]
    commands = [cells[0].strip().strip("`") for cells in rows]
    assert sorted(commands) == sorted(dict(_leaf_parsers(cli.build_parser())))
    named = set()
    for command, cells in zip(commands, rows):
        prefix = command.split()[-1].upper().replace("-", "_") + "_MAX_"
        limits = {name: value for name, value in vars(cli).items() if name.startswith(prefix)}
        assert limits, command
        assert _limit_values(cells[-1]) == set(limits.values()), command
        named |= set(limits)
    # and no limit is left out of the table
    assert named == {name for name in vars(cli) if "_MAX_" in name}


# ---------------------------------------------------------------------------
# exit code 3: malformed graph files
# ---------------------------------------------------------------------------


def test_unreadable_graph_file(tmp_path, capsys):
    rc = main(
        ["verify", "theorem2", "--graph", str(tmp_path / "absent.json"),
         "--r", "1"]
    )
    assert rc == 3
    assert "graph error:" in capsys.readouterr().err


def test_syntactically_broken_graph_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1,\n  "colors": }\n', encoding="utf-8")
    rc = main(["verify", "theorem2", "--graph", str(path), "--r", "1"])
    assert rc == 3
    assert "line 2, column" in capsys.readouterr().err


# files the JSON decoder cannot read at all, so no position is reported
UNDECODABLE_GRAPH_FILES = {
    "long weight": '{"n": 1, "colors": 1, "edges": [{"from": 1, "to": 1, "weights": ['
    + "9" * 5000 + "]}]}",
    "deep nesting": "[" * 5000 + "]" * 5000,
    "not utf-8": b"\xff\xfe{",
}


def write_graph_file(path, content: str | bytes) -> None:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


@pytest.mark.parametrize("command", ["verify theorem2", "involution audit"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE_GRAPH_FILES))
def test_undecodable_graph_file(tmp_path, capsys, command, name):
    path = tmp_path / "graph.json"
    write_graph_file(path, UNDECODABLE_GRAPH_FILES[name])
    rc = main([*command.split(), "--graph", str(path), "--r", "1"])
    assert rc == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("graph error: ")


def test_semantically_broken_graph_file(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"n": 1, "colors": 1, "edges": '
        '[{"from": 1, "to": 1, "weights": [0]}]}\n',
        encoding="utf-8",
    )
    rc = main(["involution", "audit", "--graph", str(path), "--r", "1"])
    assert rc == 3
    assert "zero weight" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reports, seeds, determinism
# ---------------------------------------------------------------------------


def test_report_schema(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    main(["verify", "theorem1", "--m", "2", "--r", "1", "--out", str(out_path)])
    capsys.readouterr()
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(report) == REPORT_KEYS
    assert report["command"] == "verify theorem1"
    assert report["params"] == {"m": 2, "r": 1}
    assert report["trials"] == 1
    assert report["failures"] == []
    assert report["seed"] is None  # no randomness involved


def test_reports_are_deterministic_up_to_elapsed_ms(tmp_path, capsys):
    args = ["verify", "theorem2", "--random", "--n", "2", "--k", "2",
            "--trials", "4", "--seed", "13", "--r", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert scrub_elapsed(a.read_text(encoding="utf-8")) == scrub_elapsed(
        b.read_text(encoding="utf-8")
    )


def test_seed_flag_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GIRARD_LAB_SEED", "7")
    out_path = tmp_path / "r.json"
    args = ["verify", "newton-girard", "--n", "2", "--r", "2", "--random",
            "--trials", "2"]
    assert main(args + ["--seed", "3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert json.loads(out_path.read_text(encoding="utf-8"))["seed"] == 3
    assert main(args + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    assert json.loads(out_path.read_text(encoding="utf-8"))["seed"] == 7


def test_garbage_seed_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GIRARD_LAB_SEED", "soon")
    rc = main(["verify", "lemma21", "--alpha", "2", "--random", "--trials", "2"])
    assert rc == 2
    assert "GIRARD_LAB_SEED" in capsys.readouterr().err


def test_console_script_is_installed():
    exe = shutil.which("girard-lab")
    cmd, env = [exe], None
    if exe is None:
        # Not installed (a source checkout): run the entry point declared in
        # pyproject.toml with the body setuptools writes into the script.
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["girard-lab"]
        module, attr = target.split(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        # the child imports the same girardlab as this process, from any cwd
        src = str(Path(girardlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [*cmd, "verify", "theorem1", "--m", "2", "--r", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_module_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "girardlab.cli", "verify", "theorem1", "--m", "3", "--r", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout.splitlines()[-1]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every invocation pays this import first; `dataclasses` and the
    # `inspect`, `ast`, `dis` and `tokenize` it pulls in cost more than
    # the package's own modules
    src = str(Path(girardlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import girardlab.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "girardlab.cli" in added
    assert not added & {"dataclasses", "inspect"}


# inputs past a work limit, each of which ran for seconds to minutes
# before the limits existed
OVERSIZED = [
    "verify theorem1 --m 30 --r 1",
    "verify theorem1 --m 16 --r 1",
    "verify newton-girard --n 3000 --r 3000 --random --trials 1",
    "verify newton-girard --n 1000 --r 1000 --random --trials 1",
    "powersum --m 100000 --n 100000 --method all",
    "powersum --m 1000 --n 1000 --method all",
    "verify lemma21 --alpha 1000000 --random --m 60 --trials 1",
]


@pytest.mark.parametrize(
    "argv",
    [
        "verify theorem1 --m 0 --r 1",
        "verify theorem1 --m 2 --r 0",
        "verify theorem2 --random --n 3 --k 3 --r 0",
        "verify theorem2 --random --n 3 --k 3 --r 1 --density 0",
        "verify theorem2 --random --n 3 --k 3 --r 1 --weight-bound 0",
        "powersum --m 0 --n 3 --method all",
        "powersum --m 2 --n 0 --method all",
        "verify lemma21 --alpha 0 --random",
        "verify lemma21 --alpha 3 --random --m 0",
        "verify theorem3 --r 0 --n 2",
        "verify theorem3 --r 2 --n 0",
        "verify theorem3 --r 8 --n 8",
        "verify theorem3 --r 25 --n 1",
        "verify theorem3 --r 1 --n 1000000",
        "verify newton-girard --n 2 --r 2 --random --trials 0",
        "verify newton-girard --n 0 --r 2 --random",
        "verify newton-girard --n 2 --r 0 --random",
        "involution audit --random --n 2 --k 2 --r 0",
    ] + OVERSIZED,
)
def test_out_of_range_value_is_usage_error(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


# command -> (arguments, error) of one refusal made after the arguments parse
REFUSED = {
    "verify theorem1": ("--m 16 --r 1", "verify theorem1 --m 16 --r 1 would need at least "
                        "445,184 variable codes and transform steps of the right side; "
                        "the limit is 400,000"),
    "verify theorem2": ("--random --r 1", "--random needs --n and --k"),
    "verify theorem3": ("--r 25 --n 1", "verify theorem3 --r 25 would make 2^25 (S, T) "
                        "entries; the limit is 2^12"),
    "verify newton-girard": ("--n 3 --r 2 --roots 1,2",
                             "--roots must list exactly n = 3 integers"),
    "verify lemma21": ("--alpha 2 --c 1,two,3",
                       "--c must be a comma-separated list of integers"),
    "involution audit": ("--random --n 6 --k 5 --r 3 --trials 1",
                         "involution audit --r 3 on 1 random graph(s) counted as dense "
                         "would need at least 60,564 DP states, closed walks, linear "
                         "subdigraphs and pairs; the limit is 40,000"),
    "powersum": ("--m 1000 --n 1000 --method all", "powersum --m 1000 --n 1000 would "
                 "need 1,000,000 power and recurrence steps; the limit is 400,000"),
}


@pytest.mark.parametrize("command", LEAF_COMMANDS)
def test_a_refused_run_writes_no_report(command, tmp_path, capsys):
    arguments, error = REFUSED[command]
    out_path = tmp_path / "r.json"
    assert main(f"{command} {arguments} --out {out_path}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# the parser a run declares
# ---------------------------------------------------------------------------

# argvs that name no subcommand, so get the whole parser
NO_SUBCOMMAND = [[], ["-h"], ["verify"], ["verify", "-h"], ["verify", "theorem9"],
                 ["involution"], ["theorem1", "verify"], ["--", "powersum"]]
# every argv the golden, planted-fault and oversized runs make; each
# subcommand with --help, with no flags, with a bad value, with a stray
# word alone and after arguments that parse; and argvs that name none
PARSED_ARGVS = [
    *(argv.split() for argv in GOLDEN),
    *(param.values[3] for param in PLANTED_FAULTS),
    *(argv.split() for argv in OVERSIZED),
    *(command.split() + tail for command in LEAF_COMMANDS
      for tail in (["--help"], [], ["--r", "0"], ["stray"],
                   REFUSED[command][0].split() + ["stray"])),
    *NO_SUBCOMMAND,
]


def _parsed(parser, argv, capsys):
    """The namespace `parser` makes of `argv`, or its exit code and output."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_parser_an_argv_declares_parses_it_as_the_whole_parser_does(argv, capsys):
    # a stray word fails through the top parser, whose usage line names
    # every command even when only one is declared
    assert (_parsed(cli.build_parser(argv), argv, capsys)
            == _parsed(cli.build_parser(), argv, capsys))


@pytest.mark.parametrize("argv, leaves", [
    *((command.split() + ["--r", "1"], [command]) for command in LEAF_COMMANDS),
    *((argv, LEAF_COMMANDS) for argv in NO_SUBCOMMAND),
])
def test_an_argv_that_names_a_subcommand_declares_it_alone(argv, leaves):
    assert sorted(dict(_leaf_parsers(cli.build_parser(argv)))) == sorted(leaves)


def test_main_reads_the_command_line_when_given_no_argv(monkeypatch, capsys):
    # the girard-lab console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["girard-lab", "verify", "theorem1", "--m", "1", "--r", "1"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("command: verify theorem1\n")
    assert out.endswith("result: PASS (1/1 checks)\n")


def test_unwritable_report_path_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "absent" / "r.json"
    rc = main(["verify", "theorem1", "--m", "2", "--r", "1", "--out", str(out_path)])
    assert rc == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: cannot write report")


def test_theorem3_computes_the_symbolic_side_once(monkeypatch, capsys):
    calls = []
    original = newton.verify_colored_newton_girard

    def counted(r, n):
        calls.append((r, n))
        return original(r, n)

    monkeypatch.setattr(newton, "verify_colored_newton_girard", counted)
    monkeypatch.setattr(cli, "verify_colored_newton_girard", counted)
    assert main(["verify", "theorem3", "--r", "3", "--n", "2"]) == 0
    assert calls == [(3, 2)]
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_theorem3_never_runs_the_graph_identity(monkeypatch, capsys):
    # the all-loops cross-check compares c and ell maps; it assembles no
    # second breakdown
    calls = []

    def counted(g, r):
        calls.append((g.n, r))
        raise AssertionError("verify_walk_cycle_identity called")

    monkeypatch.setattr(newton, "verify_walk_cycle_identity", counted)
    monkeypatch.setattr(cli, "verify_walk_cycle_identity", counted)
    assert main(["verify", "theorem3", "--r", "3", "--n", "2"]) == 0
    assert calls == []
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


@pytest.mark.parametrize("r, n", [(3, 2), (2, 3)])  # r > n and r <= n
def test_theorem3_builds_each_map_once(r, n, monkeypatch, capsys):
    # one closed-form c map shared by the symbolic side and the cross-check,
    # one ell DP and one walk DP
    calls = []
    for fn in ("linear_subdigraph_buckets", "closed_walk_buckets"):
        original = getattr(sys.modules["girardlab.enumeration"], fn)

        def counted(g, fn=fn, original=original):
            calls.append(fn)
            return original(g)

        for name, mod in list(sys.modules.items()):
            if name.startswith("girardlab") and getattr(mod, fn, None) is original:
                monkeypatch.setattr(mod, fn, counted)
    newton._alphabet_walks.cache_clear()
    assert main(["verify", "theorem3", "--r", str(r), "--n", str(n)]) == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out
    assert newton._alphabet_walks.cache_info().misses == 1
    assert sorted(calls) == ["closed_walk_buckets", "linear_subdigraph_buckets"]


@pytest.mark.parametrize(
    "argv, count",
    [
        ("verify theorem3 --r 8 --n 8", "11,211,272 breakdown terms"),
        ("verify theorem3 --r 25 --n 1", "2^25 (S, T) entries"),
        ("verify theorem3 --r 1 --n 1000000", "500,001,500,001 generating-function"),
    ],
)
def test_theorem3_refuses_oversized_work_up_front(argv, count, capsys):
    started = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - started < 1
    assert count in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, count",
    [
        ("verify theorem1 --m 30 --r 1", "at least 835,230 variable codes"),
        ("verify theorem1 --m 16 --r 1", "at least 445,184 variable codes"),
        ("verify theorem1 --m 15 --r 1", "at least 737,280 variable codes"),
        ("verify theorem1 --m 10 --r 3", "at least 458,610 variable codes"),
        ("verify theorem1 --m 8 --r 4", "at least 443,880 variable codes"),
        ("verify theorem1 --m 1 --r 894", "at least 400,065 variable codes"),
        ("verify theorem1 --m 1 --r 1000", "at least 500,500 variable codes"),
        ("verify theorem1 --m 2 --r 1000000000000", "the limit is 400,000"),
        ("verify theorem1 --m 1000000000000 --r 1", "at least 1,000,000,000,000 "),
        ("verify newton-girard --n 3000 --r 3000 --random --trials 1",
         "13,509,001,500 power and coefficient steps"),
        ("verify newton-girard --n 1000 --r 1000 --random --trials 1",
         "501,000,500 power and coefficient steps"),
        ("verify newton-girard --n 2 --r 2 --random --trials 1000000000000",
         "9,000,000,000,000 power"),
        ("verify newton-girard --n 1500 --r 1 --roots 1", "1,127,250 power"),
        ("powersum --m 100000 --n 100000 --method all", "10,000,000,000 power"),
        ("powersum --m 1000 --n 1000 --method all", "1,000,000 power"),
        ("powersum --m 1 --n 1000000000000 --method direct", "1,000,000,000,000 power"),
        ("verify lemma21 --alpha 1000000 --random --m 60 --trials 1",
         "60,000,000 Stirling-row cells"),
        ("verify lemma21 --alpha 1000000 --c 1", "1,000,000 Stirling-row cells"),
        ("verify lemma21 --alpha 100000 --random --m 5 --trials 1",
         "625,506,287 64-bit words"),
        ("verify lemma21 --alpha 50 --random --m 2000 --trials 1",
         "32,637,938,274 64-bit words"),
        ("involution audit --random --n 2 --k 2 --r 2 --trials 20000",
         "at least 1,360,000 DP states, closed walks, linear subdigraphs and pairs"),
        ("involution audit --random --n 6 --k 5 --r 3 --trials 1", "at least 60,564 DP"),
        ("involution audit --random --n 1 --k 15 --r 1 --trials 1", "at least 65,536 DP"),
        ("involution audit --random --n 1000000000000 --k 3 --r 3 --trials 1",
         "the limit is 40,000"),
        ("verify theorem2 --random --n 2 --k 2 --r 2 --trials 1000000000000",
         "132,000,000,000,000 weight products"),
        ("verify theorem2 --random --n 6 --k 10 --r 6 --trials 1", "4,423,680 weight"),
        ("verify theorem2 --random --n 12 --k 6 --r 6 --trials 2", "2,654,336 weight"),
        ("verify theorem2 --random --n 1000000000000 --k 1000000000000 --r 1000000000000"
         " --trials 1", "the limit is 2,500,000"),
        # NINES1000 and NINES4000 stand for 1000- and 4000-digit numbers; the
        # four roots runs took 3.6 s, 35.6 s, past 100 s and 6.1 s before
        # the charge counted the roots' words
        ("verify newton-girard --n 1 --r 300 --roots NINES1000",
         "(52-word roots) would need 2,347,852 power"),
        ("verify newton-girard --n 1 --r 300 --roots NINES4000", "9,391,408 power"),
        ("verify newton-girard --n 1 --r 1000 --roots NINES4000", "104,104,208 power"),
        ("verify newton-girard --n 3 --r 100 --roots NINES4000,NINES4000,NINES4000",
         "3,152,448 power"),
        ("verify lemma21 --alpha 1 --random --m 1 --trials 10000000",
         "10,000,000 Stirling-row cells"),
        ("verify lemma21 --alpha 4000 --random --m 60 --trials 2000",
         "7,560,000 Stirling-row cells"),
        ("verify theorem2 --random --n 6 --k 6 --r 6 --trials 1 --weight-bound NINES4000",
         "(208-word weights) would need 34,518,016 weight products"),
        ("involution audit --random --n 5 --k 5 --r 2 --trials 1 --weight-bound NINES4000",
         "(208-word weights) would need at least 738,400 DP states"),
    ],
)
def test_oversized_work_is_refused_up_front(argv, count, capsys):
    argv = argv.replace("NINES1000", "9" * 1000).replace("NINES4000", "9" * 4000)
    started = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert count in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, n, k, dense, r, count",
    [
        ("involution audit", 5, 5, True, 5, "at least 459,625 DP states"),
        ("involution audit", 12, 6, True, 3, "at least 230,184 DP states"),
        ("involution audit", 3, 6, True, 4, "at least 118,998 DP states"),
        ("verify theorem2", 6, 12, True, 6, "21,233,664 weight products"),
        ("verify theorem2", 6, 10, True, 6, "4,423,680 weight products"),
        ("verify theorem2", 20000, 5000, False, 3, "the limit is 2,500,000"),
    ],
)
def test_oversized_graph_file_is_refused_up_front(command, n, k, dense, r, count,
                                                  tmp_path, capsys):
    # dense (5,5) at r = 5 ran past 120 s before the audit had a limit, and
    # the 42-byte edgeless (20000, 5000) file past 30 s before theorem2 had one
    if dense:
        path = write_graph(tmp_path, random_digraph(n, k, 1.0, 3, seed=n))
    else:
        path = str(tmp_path / "edgeless.json")
        Path(path).write_text(json.dumps({"n": n, "colors": k, "edges": []}))
    started = time.perf_counter()
    assert main(command.split() + ["--graph", path, "--r", str(r)]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert count in captured.err
    assert len(captured.err.splitlines()) == 1


def huge_weight_graph(n, k, seed):
    # dense, with 4000-digit weights of either sign
    rng = random.Random(seed)
    big = 10**4000 - 1
    return ColoredDigraph(n, k, {
        (u, v): [rng.choice([-1, 1]) * (big - rng.randrange(1000)) for _ in range(k)]
        for u in range(1, n + 1) for v in range(1, n + 1)
    })


@pytest.mark.parametrize(
    "command, n, k, r, count",
    [
        ("verify theorem2", 6, 6, 6, "(208-word weights) would need 34,518,016 weight"),
        ("involution audit", 5, 5, 2, "(208-word weights) would need at least 738,400 DP"),
    ],
)
def test_graph_file_with_huge_weights_is_refused_up_front(command, n, k, r, count,
                                                          tmp_path, capsys):
    # with 4000-digit weights these took 10.5 s and 2.3 s, against 0.16 s
    # and 0.24 s with small weights, before the charge counted the words
    path = write_graph(tmp_path, huge_weight_graph(n, k, seed=n))
    started = time.perf_counter()
    assert main(command.split() + ["--graph", path, "--r", str(r)]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert count in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify theorem2", "involution audit"])
@pytest.mark.parametrize("bound", [10**8, 10**30])
def test_a_huge_weight_bound_costs_nothing(command, bound, capsys):
    # the draw builds no list of the 2W weights: at W = 10**8 that list
    # took 15.4 s (theorem2) and 9.5 s (the audit) to build
    argv = command.split() + ["--random", "--n", "1", "--k", "1", "--trials", "2",
                              "--r", "1", "--weight-bound", str(bound)]
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 1
    assert "result: PASS (2/2 checks)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    "verify newton-girard --n 2 --r 5 --roots NINES4000,-7",
    "verify lemma21 --alpha 5 --c NINES4000,-NINES4000,3",
    # 21 trials of the benchmark's size share one row of 24,000 cells; a
    # charge of one row per trial refused them
    "verify lemma21 --alpha 400 --random --m 60 --trials 21 --seed 1",
])
def test_inputs_within_the_charges_are_checked(argv, capsys):
    argv = argv.replace("NINES4000", "9" * 4000)
    assert main(argv.split()) == 0
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify theorem2", "involution audit"])
def test_huge_r_on_a_small_graph_costs_nothing(command, capsys):
    # past the color count there is no (S, T) split and no pair, so neither
    # time nor memory may grow with r (itertools.combinations allocates r
    # slots even when it yields nothing)
    argv = command.split() + ["--random", "--n", "2", "--k", "2", "--trials", "2",
                              "--r", str(10**12)]
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 1
    assert "result: PASS (2/2 checks)" in capsys.readouterr().out


def test_every_benchmark_size_is_within_the_limits(tmp_path, capsys):
    # the largest invocation of each kind in the benchmark workloads, and
    # every theorem2, theorem3 and audit one; the graph files there are
    # dense, as these are
    files = []
    for idx, (command, n, k, r) in enumerate([
        ("verify theorem2", 5, 4, 4), ("verify theorem2", 4, 4, 3),
        ("verify theorem2", 4, 4, 4), ("verify theorem2", 3, 4, 4),
        ("involution audit", 4, 4, 3), ("involution audit", 3, 4, 4),
        ("involution audit", 4, 4, 2), ("involution audit", 4, 3, 3),
    ]):
        path = write_graph(tmp_path, random_digraph(n, k, 1.0, 3, seed=idx), f"{idx}.json")
        files.append(f"{command} --graph {path} --r {r}")
    for argv in [
        *files,
        "verify theorem2 --random --n 3 --k 4 --r 4 --trials 4 --seed 1",
        *(f"verify theorem3 --r {r} --n {n}" for r, n in [(6, 6), (6, 4), (5, 5), (4, 6)]),
        "verify theorem1 --m 10 --r 1",
        "verify theorem1 --m 8 --r 2",
        "verify theorem1 --m 6 --r 3",
        "powersum --m 300 --n 1099 --method all",
        "verify newton-girard --n 6 --r 6 --random --trials 20 --seed 1",
        "verify lemma21 --alpha 400 --random --m 60 --trials 20 --seed 1",
        "involution audit --random --n 3 --k 3 --r 2 --trials 5 --seed 1",
    ]:
        assert main(argv.split()) == 0, argv
    capsys.readouterr()


def acyclic_digraph(n, k, density=1.0, rng=None):
    """Edges u -> v for u < v only (each with probability `density`)."""
    rng = rng or random.Random(0)
    return ColoredDigraph(n, k, {
        (u, v): [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
        for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < density
    })


def near_acyclic_digraph(n, k, back_edges, rng):
    """A random acyclic graph plus `back_edges` edges u -> v with u >= v."""
    dag = acyclic_digraph(n, k, 0.6, rng)
    edges = dict(dag.edges)
    for _ in range(back_edges):
        v = rng.randint(1, n)
        edges[rng.randint(v, n), v] = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
    return ColoredDigraph(n, k, edges)


def test_audit_object_count_is_exact():
    # the count is the recheck's DP states plus the closed walks, linear
    # subdigraphs and (walk, gamma) pairs the audit enumerates
    def enumerated(g, r):
        states = 2 * g.n * g.n * 2**g.colors
        subdigraphs = linear_subdigraphs(g, r)
        return (states + len(closed_walks(g, r)) + len(subdigraphs)
                + len(enumerate_pairs(g, r, subdigraphs)))

    graphs = [g for n in range(1, 3) for k in range(1, 4) for g in all_pattern_graphs(n, k)]
    rng = random.Random(5)
    graphs += [
        random_digraph(rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.4, 0.7, 1.0]),
                       3, seed=rng.randrange(10**6))
        for _ in range(25)
    ]
    # near-acyclic graphs, where the enumerators cut most colored paths
    graphs += [near_acyclic_digraph(rng.randint(3, 7), rng.randint(1, 4), rng.randint(1, 2),
                                    rng) for _ in range(10)]
    for g in graphs:
        for r in range(1, g.colors + 2):
            assert cli._audit_objects(g.n, g.colors, r, g.successors) == enumerated(g, r)
    # --random counts the dense graph, which every density-1 draw is
    dense = random_digraph(3, 4, 1.0, 3, seed=1)
    assert cli._audit_objects(3, 4, 4, lambda u: range(1, 4)) == enumerated(dense, 4)
    # past the DP charge the rest is not enumerated; sizes are capped at 64
    assert cli._audit_objects(10**12, 10**12, 3, None) == 2 * 10**24 * 2**64


def dense_audit_objects(n, k, r):
    """`cli._audit_objects` of the dense graph (every edge, loops too) in
    closed form: tr(B^q) = n^q, and the p-vertex covers are the n!/(n-p)!
    arrangements, p <= min(k, r) (perm(n, p) is 0 past n)."""
    walks = sum(n**q * math.perm(k, q) for q in range(1, r + 1))
    subdigraphs = sum(math.perm(n, p) * math.perm(k, p) for p in range(1, min(k, r) + 1))
    pairs = math.perm(k, r) * sum(n**q * math.perm(n, r - q) for q in range(1, r + 1))
    return cli._dp_states(n, k) + walks + subdigraphs + pairs


def test_dense_audit_count_closed_form():
    for n in range(1, 6):
        for k in range(1, 5):
            for r in range(1, k + 2):
                every = range(1, n + 1)
                count = cli._audit_objects(n, k, r, lambda u: every)
                assert count == dense_audit_objects(n, k, r), (n, k, r)


# the largest n the DP bound lets through at k = 1, 2, 3: the count kept
# every used-column set of its cover DP, and dense n = 22 at k = 1 (a 0.01 s
# audit) ran past 60 s before it started; n = 100 at k = 1 counts the DP
# states alone at the limit, 40,000.  Dense (60, 2) at r = 1 is accepted; its
# audit took 5 s while the subdigraph search went on after the last color.
# Dense (35, 4) at r = 1 is charged the loops alone of its covers, 39,620,
# as its audit builds no longer subdigraph; the audit took 0.57 s
@pytest.mark.parametrize("n, k, r, code", [
    (22, 1, 1, 0), (100, 1, 1, 2), (70, 2, 2, 2), (50, 3, 3, 2), (60, 2, 1, 0),
    (35, 4, 1, 0),
])
def test_a_large_audit_with_few_colors_is_counted_at_once(n, k, r, code):
    assert code == (2 if dense_audit_objects(n, k, r) > cli.AUDIT_MAX_OBJECTS else 0)
    argv = ["involution", "audit", "--random", "--n", str(n), "--k", str(k),
            "--r", str(r), "--trials", "1"]
    started = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - started < 2


# dense audits near the DP bound at k = 4 and 5: on a shared 2-core host the
# exact cover count took 0.55-0.7 s and 0.7-0.8 s to refuse the last two
# before the count stopped at the limit (and 1.5-2.0 s for (35, 4, 1), which
# was charged every cover up to 4 edges then)
@pytest.mark.parametrize("n, k, r", [(36, 4, 1), (25, 5, 2), (30, 4, 2)])
def test_a_dense_audit_near_the_dp_bound_is_refused_at_once(n, k, r, capsys):
    # the "at least" count is a lower bound on the exact one, past the limit
    every = range(1, n + 1)
    count = cli._audit_objects(n, k, r, lambda u: every)
    assert cli.AUDIT_MAX_OBJECTS < count <= dense_audit_objects(n, k, r)
    argv = ["involution", "audit", "--random", "--n", str(n), "--k", str(k),
            "--r", str(r), "--trials", "1"]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 0.5
    assert "would need at least" in capsys.readouterr().err


def test_a_loopless_dense_graph_file_near_the_dp_bound_is_refused_at_once(tmp_path, capsys):
    # every cover of this graph has a 2-cycle or longer, so no bound from
    # looped vertices helps; the exact cover count took about 1.7 s to refuse
    # it at r = 1, when it was charged covers of up to 4 edges.  At r = 1 the
    # audit builds no cover, and is charged the DP states alone, 39,200
    n, k = 35, 4
    g = ColoredDigraph(n, k, {(u, v): [1] * k for u in range(1, n + 1)
                               for v in range(1, n + 1) if u != v})
    assert cli._audit_objects(n, k, 1, g.successors) == cli._dp_states(n, k)
    path = write_graph(tmp_path, g)
    started = time.perf_counter()
    assert main(["involution", "audit", "--graph", path, "--r", "2"]) == 2
    assert time.perf_counter() - started < 0.5
    assert "would need at least" in capsys.readouterr().err


def test_an_acyclic_graph_file_near_the_dp_bound_is_audited_at_once(tmp_path, capsys):
    # no closed walk and no cycle: the charge is the DP states alone, and the
    # audit ran for 25 s in enumerators that followed colored paths which
    # could not close
    n, k = 35, 4
    g = acyclic_digraph(n, k)
    assert cli._audit_objects(n, k, 1, g.successors) == cli._dp_states(n, k)
    assert cli._audit_objects(n, k, 4, g.successors) == cli._dp_states(n, k)
    path = write_graph(tmp_path, g)
    for r in ("1", "4"):
        started = time.perf_counter()
        assert main(["involution", "audit", "--graph", path, "--r", r]) == 0
        assert time.perf_counter() - started < 2
    capsys.readouterr()


def test_dp_state_bound_holds_for_both_dps(monkeypatch):
    # the walk DP and the clow DP take every step through enumeration._step;
    # the states they push and build on one graph stay within the bound
    # the audit and theorem2 charge
    pushed, built = [], []
    step = enumeration._step

    def counted(layer, g, low):
        out = step(layer, g, low)
        pushed.append(len(layer))
        built.append(len(out))
        return out

    monkeypatch.setattr(enumeration, "_step", counted)
    rng = random.Random(12)
    for _ in range(30):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        g = random_digraph(n, k, rng.choice([0.4, 0.7, 1.0]), 3, seed=rng.randrange(10**6))
        pushed.clear()
        built.clear()
        enumeration.closed_walk_buckets(g)
        enumeration.linear_subdigraph_buckets(g)
        assert len(built) == 2 * n * k  # k steps per root and per head
        bound = cli._dp_states(n, k)
        assert sum(pushed) <= bound and sum(built) <= bound, (n, k)


def test_lemma21_word_count_is_its_closed_form_and_bounds_the_row():
    for alpha in [1, 2, 3, 17, 64, 130]:
        for m in [1, 2, 3, 4, 5, 9, 16, 17, 60]:
            row = alpha * m + sum(
                i * (k - 1).bit_length() for i in range(1, alpha + 1)
                for k in range(1, m + 1)
            ) // 64
            binomials = sum(k * (k + 1) // 2 for k in range(1, m + 1)) + sum(
                k * k * (k + 1) // 2 for k in range(1, m + 1)
            ) // 64
            words = cli._lemma21_words(alpha, m)
            assert words == row + binomials, (alpha, m)
            # the Stirling row the check builds holds no more words
            stirling = [1] + [0] * m
            held = 0
            for _ in range(alpha):
                stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, m + 1)]
                held += sum(max(1, -(-cell.bit_length() // 64)) for cell in stirling[1:])
            assert held <= row, (alpha, m)


def test_theorem1_code_count_is_exact():
    # the count is the total degree of every monomial of every partial
    # product of every Pi_r(V), V a nonempty subset of [m]: the variable
    # codes a product writes, one per unit of exponent
    for m in range(1, 5):
        for r in range(1, 5):
            written = 0
            for k in range(1, m + 1):
                for v in combinations(range(1, m + 1), k):
                    out = Poly.one()
                    for j in range(1, r + 1):
                        out = out * poly_sum(Poly.variable(xvar(i, j)) for i in v)
                        written += sum(e for mono, _ in out.terms() for _, e in mono)
            # the charge adds the transform's visits: every bit of every mask
            assert cli._theorem1_work(m, r, 10**9) == written + m * 2**m, (m, r)


def test_the_largest_accepted_theorem1_runs_pass(capsys):
    # r = 893 is the largest r at m = 1
    for m, r in [(14, 1), (12, 2), (9, 3), (1, 893)]:
        assert cli._theorem1_work(m, r, cli.THEOREM1_MAX_WORK) <= cli.THEOREM1_MAX_WORK
    assert main(["verify", "theorem1", "--m", "1", "--r", "893"]) == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_theorem1_at_the_largest_r_runs_from_a_deep_caller(capsys):
    # the good-word oracle builds its words level by level, so no route
    # needs r frames of the stack, and a caller 200 frames deep has room
    def nested(depth: int) -> int:
        if depth:
            return nested(depth - 1)
        return main(["verify", "theorem1", "--m", "1", "--r", "893"])

    assert nested(200) == 0
    assert "result: PASS (1/1 checks)" in capsys.readouterr().out


def test_theorem3_term_counts_are_exact():
    # the closed forms behind the work limit count what the run builds
    for r in range(1, 6):
        for n in range(1, 6):
            breakdown, product = cli._theorem3_terms(r, n)
            report = newton.verify_colored_newton_girard(r, n)
            assert breakdown == sum(
                poly_dot((factors,)).term_count() for factors in report.breakdown.values())
            # the clow DP's sequences with heads up to j >= 1 are the
            # all-loops ell map of j vertices, and the empty S holds 1 for
            # each j = 0..n
            ell_terms = sum(
                p.term_count()
                for j in range(1, n + 1)
                for p in linear_subdigraph_buckets(self_loop_digraph(j, r)).values()
            )
            assert product == (n + 1) + ell_terms
    assert cli._theorem3_terms(6, 6)[0] == 75_642
    assert cli._theorem3_terms(7, 7)[0] == 881_174


# ---------------------------------------------------------------------------
# argv fuzz over the subcommands that take no graph
# ---------------------------------------------------------------------------

SMALL = st.integers(1, 4).map(str)
HUGE = st.integers(10**6, 10**12).map(str)
INVALID = st.sampled_from(["0", "-3", "x", ""])
SIZE = st.one_of(SMALL, SMALL, HUGE, INVALID)

# a fixed --roots or --c list: small, with 4000-digit entries, or garbage;
# its length is drawn apart from --n, so it is often the wrong count
ENTRY = st.one_of(st.integers(-5, 5), st.sampled_from([10**3999, -(10**3999)]))
CSV = st.one_of(
    st.lists(ENTRY, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "1,,2", "x", "1;2", "9" * 5000]),
)

GRAPHLESS = {
    "verify theorem1": ["--m", "--r"],
    "verify theorem3": ["--r", "--n"],
    "verify newton-girard --random": ["--n", "--r", "--trials"],
    "verify newton-girard": ["--n", "--r", "--roots"],
    "verify lemma21 --random": ["--alpha", "--m", "--trials"],
    "verify lemma21": ["--alpha", "--c"],
    "powersum --method all": ["--m", "--n"],
    "involution audit --random": ["--n", "--k", "--r", "--trials"],
}


@st.composite
def graphless_argv(draw):
    command = draw(st.sampled_from(sorted(GRAPHLESS)))
    argv = command.split()
    for flag in GRAPHLESS[command]:
        argv += [flag, draw(CSV if flag in ("--roots", "--c") else SIZE)]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphless_argv())
def test_graphless_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # an exception here is a traceback on the command line
    assert rc in {0, 1, 2, 3}, argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv


# ---------------------------------------------------------------------------
# argv fuzz over the subcommands that take a graph
# ---------------------------------------------------------------------------

GRAPH_FILES = {
    "small": serialize_digraph(random_digraph(3, 2, 0.6, 3, seed=4)),
    "dense": serialize_digraph(random_digraph(3, 3, 1.0, 3, seed=5)),
    "edgeless": '{"n": 2, "colors": 2, "edges": []}',
    "huge edgeless": '{"n": 20000, "colors": 5000, "edges": []}',
    "huge color count": '{"n": 1, "colors": 1000000, "edges": []}',
    "cut short": '{"n": 1,',
    "not an object": "[]",
    "no vertices": '{"n": 0, "colors": 1, "edges": []}',
    "zero weight": '{"n": 1, "colors": 1, "edges": [{"from": 1, "to": 1, "weights": [0]}]}',
    "out of range": '{"n": 1, "colors": 1, "edges": [{"from": 1, "to": 2, "weights": [1]}]}',
    "huge weights": serialize_digraph(huge_weight_graph(2, 2, seed=2)),
    "acyclic": serialize_digraph(acyclic_digraph(35, 4)),
    **UNDECODABLE_GRAPH_FILES,
}


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    for name, content in GRAPH_FILES.items():
        write_graph_file(root / f"{name}.json", content)
    return root


# small sizes stop at 3 here: a dense (4,4) audit at r = 4 is accepted and
# takes about a second per graph.  The middle band draws vertex counts the
# DP bound lets through at k <= 3; the audits among them whose cover count
# once took time 2^n are pinned by
# test_a_large_audit_with_few_colors_is_counted_at_once
GRAPH_SIZE = st.one_of(st.integers(1, 3).map(str), st.integers(1, 3).map(str),
                       st.integers(16, 120).map(str), HUGE, INVALID)


@st.composite
def graph_argv(draw):
    """argv of theorem2 or the audit; a `--graph` value is a file name in
    `graph_dir` without its suffix ("absent" names no file)."""
    argv = draw(st.sampled_from(["verify theorem2", "involution audit"])).split()
    if draw(st.booleans()):
        argv += ["--graph", draw(st.sampled_from(sorted(GRAPH_FILES) + ["absent"]))]
    else:
        argv.append("--random")
        for flag in ["--n", "--k", "--trials", "--weight-bound"]:
            argv += [flag, draw(GRAPH_SIZE)]
    return argv + ["--r", draw(GRAPH_SIZE)]


def random_audit_argv(n, k, trials, r):
    return (f"involution audit --random --n {n} --k {k} --trials {trials}"
            f" --weight-bound 3 --r {r}").split()


# the band above draws no --random audit with n in 18-100 and k <= 3, where
# the charge once hung, and no audit of the acyclic file, whose enumerators
# once ran for 25 s; the examples add both, accepted and refused
@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=graph_argv())
@example(argv=random_audit_argv(22, 1, 2, 1))
@example(argv=random_audit_argv(99, 1, 1, 1))
@example(argv=random_audit_argv(40, 2, 1, 2))
@example(argv=random_audit_argv(60, 2, 1, 1))
@example(argv=random_audit_argv(18, 3, 1, 3))
@example(argv=random_audit_argv(49, 3, 1, 1))
@example(argv="involution audit --graph acyclic --r 4".split())
def test_graph_argv_keeps_the_exit_code_contract(graph_dir, argv):
    if "--graph" in argv:
        at = argv.index("--graph") + 1
        argv[at] = str(graph_dir / f"{argv[at]}.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # an exception here is a traceback on the command line
    assert rc in {0, 1, 2, 3}, argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv
