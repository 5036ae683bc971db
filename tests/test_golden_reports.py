"""Golden runs of the four campaign subcommands: the exact stdout and the
exact `--out` text (elapsed_ms set to 0) for a fixed input and for a
seeded `--random` campaign of each."""

import json
import re

import pytest

from girardlab import random_digraph, serialize_digraph
from girardlab.cli import main

AGGREGATION = (
    "closing term aggregates ell(r, S) over all size-r color sets; --literal-ell "
    "checks the single-set ell(r, C) form, valid when k = r"
)
VACUOUS = "vacuous: r exceeds color count"


def report(command, params, trials, seed=None, failures=(), notes=()):
    return {"command": command, "elapsed_ms": 0, "failures": list(failures),
            "notes": list(notes), "params": params, "seed": seed, "trials": trials}


def literal_failure(idx, graph_seed, residual):
    return {"case": "r<=n", "graph_seed": graph_seed, "instance": idx, "k": 3, "n": 2,
            "residual": residual}


LITERAL_FAILURES = [literal_failure(0, 577090037, "-4"),
                    literal_failure(1, 271041745, "-50"),
                    literal_failure(2, 1095513148, "40")]

# 30-digit weights: the residual of `--literal-ell` at k = 3 > r = 2 is a
# 61-digit integer, the sum the benchmark's det(I - X) expansion gives
BIG = {"n": 2, "colors": 3, "edges": [
    {"from": 1, "to": 1, "weights": [123456789012345678901234567890,
                                     -987654321098765432109876543210,
                                     314159265358979323846264338327]},
    {"from": 1, "to": 2, "weights": [-271828182845904523536028747135,
                                     161803398874989484820458683436,
                                     141421356237309504880168872420]},
    {"from": 2, "to": 1, "weights": [173205080756887729352744634150,
                                     -223606797749978969640917366873,
                                     100000000000000000000000000001]},
    {"from": 2, "to": 2, "weights": [-999999999999999999999999999999,
                                     246813579024681357902468135790,
                                     -135792468013579246801357924680]},
]}
BIG_RESIDUAL = "-1656357426777570469042785776241537633725343673505832173128502"
BIG_FAILURE = {"case": "r<=n", "graph_seed": None, "instance": 0, "k": 3, "n": 2,
               "residual": BIG_RESIDUAL}

# argv -> (exit code, stdout, report); "small.json" and "big.json" are the
# graphs the test writes, and lemma21's campaign takes the default seed
GOLDEN = {
    "verify theorem2 --graph small.json --r 2": (
        0,
        'command: verify theorem2\n'
        'params: {"graph": "small.json", "literal_ell": false, "r": 2}\n'
        f'note: {AGGREGATION}\n'
        'result: PASS (1/1 checks)\n',
        report("verify theorem2", {"graph": "small.json", "literal_ell": False, "r": 2},
               1, notes=[AGGREGATION]),
    ),
    "verify theorem2 --random --n 2 --k 2 --density 0.7 --weight-bound 4 --trials 3"
    " --seed 5 --r 3": (
        0,
        'command: verify theorem2\n'
        'params: {"density": 0.7, "k": 2, "literal_ell": false, "n": 2, "r": 3, '
        '"trials": 3, "weight_bound": 4}\n'
        'seed: 5\n'
        f'note: {AGGREGATION}\n'
        f'note: instance 0: {VACUOUS}\n'
        f'note: instance 1: {VACUOUS}\n'
        f'note: instance 2: {VACUOUS}\n'
        'result: PASS (3/3 checks)\n',
        report("verify theorem2",
               {"density": 0.7, "k": 2, "literal_ell": False, "n": 2, "r": 3, "trials": 3,
                "weight_bound": 4},
               3, seed=5,
               notes=[AGGREGATION] + [f"instance {i}: {VACUOUS}" for i in range(3)]),
    ),
    "verify theorem2 --random --n 2 --k 3 --trials 3 --seed 1 --r 2 --literal-ell": (
        1,
        'command: verify theorem2\n'
        'params: {"density": 1.0, "k": 3, "literal_ell": true, "n": 2, "r": 2, '
        '"trials": 3, "weight_bound": 3}\n'
        'seed: 1\n'
        f'note: {AGGREGATION}\n'
        'FAIL: {"case": "r<=n", "graph_seed": 577090037, "instance": 0, "k": 3, "n": 2, '
        '"residual": "-4"}\n'
        'FAIL: {"case": "r<=n", "graph_seed": 271041745, "instance": 1, "k": 3, "n": 2, '
        '"residual": "-50"}\n'
        'FAIL: {"case": "r<=n", "graph_seed": 1095513148, "instance": 2, "k": 3, "n": 2, '
        '"residual": "40"}\n'
        'result: FAIL (0/3 checks)\n',
        report("verify theorem2",
               {"density": 1.0, "k": 3, "literal_ell": True, "n": 2, "r": 2, "trials": 3,
                "weight_bound": 3},
               3, seed=1, failures=LITERAL_FAILURES, notes=[AGGREGATION]),
    ),
    "verify theorem2 --graph big.json --r 2 --literal-ell": (
        1,
        'command: verify theorem2\n'
        'params: {"graph": "big.json", "literal_ell": true, "r": 2}\n'
        f'note: {AGGREGATION}\n'
        'FAIL: {"case": "r<=n", "graph_seed": null, "instance": 0, "k": 3, "n": 2, '
        f'"residual": "{BIG_RESIDUAL}"}}\n'
        'result: FAIL (0/1 checks)\n',
        report("verify theorem2", {"graph": "big.json", "literal_ell": True, "r": 2},
               1, failures=[BIG_FAILURE], notes=[AGGREGATION]),
    ),
    "involution audit --graph small.json --r 2": (
        0,
        'command: involution audit\n'
        'params: {"graph": "small.json", "r": 2}\n'
        'result: PASS (1/1 checks)\n',
        report("involution audit", {"graph": "small.json", "r": 2}, 1),
    ),
    "involution audit --random --n 2 --k 2 --trials 2 --seed 9 --r 2": (
        0,
        'command: involution audit\n'
        'params: {"density": 1.0, "k": 2, "n": 2, "r": 2, "trials": 2, "weight_bound": 3}\n'
        'seed: 9\n'
        'result: PASS (2/2 checks)\n',
        report("involution audit",
               {"density": 1.0, "k": 2, "n": 2, "r": 2, "trials": 2, "weight_bound": 3},
               2, seed=9),
    ),
    "verify newton-girard --n 3 --r 5 --roots 1,-2,3": (
        0,
        'command: verify newton-girard\n'
        'params: {"n": 3, "r": 5, "roots": [1, -2, 3]}\n'
        'result: PASS (1/1 checks)\n',
        report("verify newton-girard", {"n": 3, "r": 5, "roots": [1, -2, 3]}, 1),
    ),
    "verify newton-girard --n 4 --r 6 --random --trials 5 --seed 3": (
        0,
        'command: verify newton-girard\n'
        'params: {"n": 4, "r": 6, "trials": 5}\n'
        'seed: 3\n'
        'result: PASS (5/5 checks)\n',
        report("verify newton-girard", {"n": 4, "r": 6, "trials": 5}, 5, seed=3),
    ),
    "verify lemma21 --alpha 3 --c 2,0,-1": (
        0,
        'command: verify lemma21\n'
        'params: {"alpha": 3, "c": [2, 0, -1]}\n'
        'result: PASS (1/1 checks)\n',
        report("verify lemma21", {"alpha": 3, "c": [2, 0, -1]}, 1),
    ),
    "verify lemma21 --alpha 5 --random --m 6 --trials 4": (
        0,
        'command: verify lemma21\n'
        'params: {"alpha": 5, "m": 6, "trials": 4}\n'
        'seed: 0\n'
        'result: PASS (4/4 checks)\n',
        report("verify lemma21", {"alpha": 5, "m": 6, "trials": 4}, 4, seed=0),
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_stdout_and_report(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GIRARD_LAB_SEED", raising=False)
    (tmp_path / "small.json").write_text(
        serialize_digraph(random_digraph(3, 2, 0.7, 3, seed=11)), encoding="utf-8")
    (tmp_path / "big.json").write_text(json.dumps(BIG), encoding="utf-8")
    rc, stdout, expected = GOLDEN[argv]
    assert main(argv.split() + ["--out", "report.json"]) == rc
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
