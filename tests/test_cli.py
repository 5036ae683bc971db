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
from girardlab import make_digraph, random_digraph, serialize_digraph
from girardlab import cli, enumeration, newton, powersum
from girardlab.cli import main
from girardlab.digraph import self_loop_digraph
from girardlab.enumeration import closed_walks, linear_subdigraph_buckets, linear_subdigraphs
from girardlab.involution import enumerate_pairs
from girardlab.poly import Poly, poly_sum, xvar

from _support import all_pattern_graphs

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


def test_literal_ell_fails_when_k_exceeds_r(tmp_path, capsys):
    # one vertex, one loop in two colors: the single-set closing term
    # ell(1, {1, 2}) vanishes, leaving the walk sum 2 + 3 uncancelled.
    path = write_graph(tmp_path, make_digraph(1, 2, {(1, 1): [2, 3]}))
    out_path = tmp_path / "report.json"
    rc = main(
        ["verify", "theorem2", "--graph", path, "--r", "1", "--literal-ell",
         "--out", str(out_path)]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "result: FAIL (0/1 checks)" in out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["failures"] == [
        {"instance": 0, "graph_seed": None, "n": 1, "k": 2,
         "case": "r<=n", "residual": "5"}
    ]
    # the aggregated form passes on the same graph
    assert main(["verify", "theorem2", "--graph", path, "--r", "1"]) == 0


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


def test_powersum_records_the_values_that_disagree(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "power_sum_via_stirling",
                        lambda m, n: powersum.power_sum_via_stirling(m, n) + 1)
    failures = run_failing(["powersum", "--m", "2", "--n", "3", "--method", "all"],
                           tmp_path, capsys)
    assert failures == [
        {"m": 2, "n": 3, "values": {"bernoulli": "14", "direct": "14", "stirling": "15"}}
    ]


def test_powersum_records_a_value_that_is_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "power_sum_via_bernoulli", lambda m, n: Fraction(1, 2))
    failures = run_failing(["powersum", "--m", "2", "--n", "3", "--method", "all"],
                           tmp_path, capsys)
    assert failures == [
        {"m": 2, "n": 3, "error": "bernoulli formula not integer-valued: 1/2"},
        {"m": 2, "n": 3, "values": {"bernoulli": "1/2", "direct": "14", "stirling": "14"}},
    ]


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
    "involution audit": ("--random --n 6 --k 5 --r 1 --trials 1",
                         "involution audit --r 1 on 1 random graph(s) counted as dense "
                         "would need at least 40,019 DP states, closed walks, linear "
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
        ("involution audit --random --n 6 --k 5 --r 1 --trials 1", "at least 40,019 DP"),
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
         "(208-word weights) would need at least 7,477,600 DP states"),
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
        ("involution audit", 12, 6, True, 2, "at least 40,620 DP states"),
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
    return make_digraph(n, k, {
        (u, v): [rng.choice([-1, 1]) * (big - rng.randrange(1000)) for _ in range(k)]
        for u in range(1, n + 1) for v in range(1, n + 1)
    })


@pytest.mark.parametrize(
    "command, n, k, r, count",
    [
        ("verify theorem2", 6, 6, 6, "(208-word weights) would need 34,518,016 weight"),
        ("involution audit", 5, 5, 2, "(208-word weights) would need at least 7,477,600 DP"),
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
    return make_digraph(n, k, {
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
    return make_digraph(n, k, edges)


def test_audit_object_count_is_exact():
    # the count is the recheck's DP states plus the closed walks, linear
    # subdigraphs and (walk, gamma) pairs the audit enumerates
    def enumerated(g, r):
        states = 2 * g.n * g.n * 2**g.colors
        return (states + len(closed_walks(g, max_length=r)) + len(linear_subdigraphs(g))
                + len(enumerate_pairs(g, r)))

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
    arrangements."""
    walks = sum(n**q * math.perm(k, q) for q in range(1, r + 1))
    subdigraphs = sum(math.perm(n, p) * math.perm(k, p) for p in range(1, k + 1))
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
# audit took 5 s while the subdigraph search went on after the last color
@pytest.mark.parametrize("n, k, r, code", [
    (22, 1, 1, 0), (100, 1, 1, 2), (70, 2, 2, 2), (50, 3, 3, 2), (60, 2, 1, 0),
])
def test_a_large_audit_with_few_colors_is_counted_at_once(n, k, r, code):
    assert code == (2 if dense_audit_objects(n, k, r) > cli.AUDIT_MAX_OBJECTS else 0)
    argv = ["involution", "audit", "--random", "--n", str(n), "--k", str(k),
            "--r", str(r), "--trials", "1"]
    started = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - started < 2


# dense audits near the DP bound at k = 4 and 5: on a shared 2-core host the
# exact cover count took 1.5-2.0 s, 0.55-0.7 s and 0.7-0.8 s to refuse them
# before the count stopped at the limit
@pytest.mark.parametrize("n, k, r", [(35, 4, 1), (25, 5, 2), (30, 4, 2)])
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
    # looped vertices helps; the exact cover count took about 1.7 s to refuse it
    n, k = 35, 4
    g = make_digraph(n, k, {(u, v): [1] * k for u in range(1, n + 1)
                            for v in range(1, n + 1) if u != v})
    path = write_graph(tmp_path, g)
    started = time.perf_counter()
    assert main(["involution", "audit", "--graph", path, "--r", "1"]) == 2
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
    # the count is what Poly writes: every code of every monomial of every
    # partial product of every Pi_r(V), V a nonempty subset of [m]
    for m in range(1, 5):
        for r in range(1, 5):
            written = 0
            for k in range(1, m + 1):
                for v in combinations(range(1, m + 1), k):
                    out = Poly.one()
                    for j in range(1, r + 1):
                        out = out * poly_sum(Poly.variable(xvar(i, j)) for i in v)
                        written += sum(len(mono) for mono in out._terms)
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
            assert breakdown == sum(p.term_count() for p in report.breakdown.values())
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
