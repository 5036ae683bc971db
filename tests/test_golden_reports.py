"""Golden runs of every subcommand: the exact stdout and the exact `--out`
text (elapsed_ms set to 0) of one run of each single-shot subcommand, and
of a fixed input and a seeded `--random` campaign of each campaign
subcommand."""

import json
import re

import pytest

from girardlab import random_digraph, serialize_digraph
from girardlab.cli import main

AGGREGATION = (
    "closing term aggregates ell(r, S) over all size-r color sets; each size-r color "
    "set U is checked on its own, closed by r*ell(r, U)"
)
VACUOUS = "vacuous: r exceeds color count"
THEOREM3_SIGN = (
    "closing term r*E(n, [r], r) enters with sign (-1)^r (cycle parity of the "
    "length-r subdigraph sum)"
)
PREFACTOR = (
    "stirling method uses the prefactor-free formula; the 1/(m+1)-scaled variant "
    "fails already at m = n = 1"
)
POWERSUM_NOTES = [PREFACTOR] + [f"value {name} = 225"
                                for name in ("bernoulli", "direct", "stirling")]


def report(command, params, trials, seed=None, failures=(), notes=()):
    return {"command": command, "elapsed_ms": 0, "failures": list(failures),
            "notes": list(notes), "params": params, "seed": seed, "trials": trials}


# 30-digit weights: at r = 2 each of the three color sets U cancels
# 60-digit products c(1, T) * ell(1, S) against r * ell(2, U) exactly
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

# argv -> (exit code, stdout, report); "small.json" and "big.json" are the
# graphs the test writes, and lemma21's campaign takes the default seed
GOLDEN = {
    "verify theorem1 --m 3 --r 2": (
        0,
        'command: verify theorem1\n'
        'params: {"m": 3, "r": 2}\n'
        'result: PASS (1/1 checks)\n',
        report("verify theorem1", {"m": 3, "r": 2}, 1),
    ),
    "verify theorem3 --r 3 --n 2": (
        0,
        'command: verify theorem3\n'
        'params: {"n": 2, "r": 3}\n'
        f'note: {THEOREM3_SIGN}\n'
        'result: PASS (1/1 checks)\n',
        report("verify theorem3", {"n": 2, "r": 3}, 1, notes=[THEOREM3_SIGN]),
    ),
    "powersum --m 3 --n 5 --method all": (
        0,
        'command: powersum\n'
        'params: {"m": 3, "method": "all", "n": 5}\n'
        + "".join(f"note: {note}\n" for note in POWERSUM_NOTES)
        + 'result: PASS (1/1 checks)\n',
        report("powersum", {"m": 3, "method": "all", "n": 5}, 1, notes=POWERSUM_NOTES),
    ),
    "verify theorem2 --graph small.json --r 2": (
        0,
        'command: verify theorem2\n'
        'params: {"graph": "small.json", "r": 2}\n'
        f'note: {AGGREGATION}\n'
        'result: PASS (1/1 checks)\n',
        report("verify theorem2", {"graph": "small.json", "r": 2}, 1, notes=[AGGREGATION]),
    ),
    "verify theorem2 --random --n 2 --k 2 --density 0.7 --weight-bound 4 --trials 3"
    " --seed 5 --r 3": (
        0,
        'command: verify theorem2\n'
        'params: {"density": 0.7, "k": 2, "n": 2, "r": 3, '
        '"trials": 3, "weight_bound": 4}\n'
        'seed: 5\n'
        f'note: {AGGREGATION}\n'
        f'note: instance 0: {VACUOUS}\n'
        f'note: instance 1: {VACUOUS}\n'
        f'note: instance 2: {VACUOUS}\n'
        'result: PASS (3/3 checks)\n',
        report("verify theorem2",
               {"density": 0.7, "k": 2, "n": 2, "r": 3, "trials": 3, "weight_bound": 4},
               3, seed=5,
               notes=[AGGREGATION] + [f"instance {i}: {VACUOUS}" for i in range(3)]),
    ),
    "verify theorem2 --random --n 2 --k 3 --trials 3 --seed 1 --r 2": (
        0,
        'command: verify theorem2\n'
        'params: {"density": 1.0, "k": 3, "n": 2, "r": 2, "trials": 3, "weight_bound": 3}\n'
        'seed: 1\n'
        f'note: {AGGREGATION}\n'
        'result: PASS (3/3 checks)\n',
        report("verify theorem2",
               {"density": 1.0, "k": 3, "n": 2, "r": 2, "trials": 3, "weight_bound": 3},
               3, seed=1, notes=[AGGREGATION]),
    ),
    "verify theorem2 --graph big.json --r 2": (
        0,
        'command: verify theorem2\n'
        'params: {"graph": "big.json", "r": 2}\n'
        f'note: {AGGREGATION}\n'
        'result: PASS (1/1 checks)\n',
        report("verify theorem2", {"graph": "big.json", "r": 2}, 1, notes=[AGGREGATION]),
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
