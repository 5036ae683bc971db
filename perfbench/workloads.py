"""The four workloads: fixed lists of `girard-lab` invocations built from a seed.

Each list item is one CLI invocation (argv without `--out`), the number of
checks its report must carry, and the specs of the checks the benchmark
makes itself (see checks.py).  Graph files are written by the benchmark
from the seed, so the program receives only generated inputs.

Sizes are chosen so one round of a list takes about 3-4 s on a 2-core
machine, which leaves room for several rounds in one run; README.md lists
the measured time of each item.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("walk_cycle", "involution", "multi_alphabet", "power_sums")

WEIGHT_BOUND = 3


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    trials: int
    checks: tuple[tuple, ...] = ()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def dense_graph(rng: random.Random, n: int, k: int) -> dict:
    """Every ordered pair, loops included, with k nonzero weights in [-3, 3]."""
    pool = [w for w in range(-WEIGHT_BOUND, WEIGHT_BOUND + 1) if w]
    edges = [
        {"from": u, "to": v, "weights": [rng.choice(pool) for _ in range(k)]}
        for u in range(1, n + 1)
        for v in range(1, n + 1)
    ]
    return {"n": n, "colors": k, "edges": edges}


def _graph_file(workdir: Path, rng: random.Random, name: str, n: int, k: int) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(dense_graph(rng, n, k), indent=2, sort_keys=True) + "\n")
    return str(path)


def _walk_cycle(rng: random.Random, workdir: Path) -> list[Item]:
    items = []
    for idx, (n, k, r) in enumerate([(5, 4, 4), (4, 4, 3), (4, 4, 4), (3, 4, 4)]):
        path = _graph_file(workdir, rng, f"walk_cycle{idx}", n, k)
        items.append(Item(("verify", "theorem2", "--graph", path, "--r", str(r)), 1,
                          (("ell_and_walk_sums", path),)))
    campaign_seed = str(rng.randrange(2**31))
    items.append(Item(("verify", "theorem2", "--random", "--n", "3", "--k", "4",
                       "--r", "4", "--trials", "4", "--seed", campaign_seed), 4))
    return items


def _involution(rng: random.Random, workdir: Path) -> list[Item]:
    items = []
    for idx, (n, k, r) in enumerate([(4, 4, 3), (3, 4, 4), (4, 4, 2), (4, 3, 3)]):
        path = _graph_file(workdir, rng, f"involution{idx}", n, k)
        items.append(Item(("involution", "audit", "--graph", path, "--r", str(r)), 1,
                          (("audit_counts", path, r),)))
    campaign_seed = str(rng.randrange(2**31))
    items.append(Item(("involution", "audit", "--random", "--n", "3", "--k", "3",
                       "--r", "2", "--trials", "5", "--seed", campaign_seed), 5))
    return items


def _multi_alphabet(rng: random.Random, workdir: Path) -> list[Item]:
    items = [
        Item(("verify", "theorem3", "--r", str(r), "--n", str(n)), 1,
             (("all_loops_at_ones", r, n),))
        for r, n in [(6, 6), (6, 4), (5, 5), (4, 6)]
    ]
    items.append(Item(("verify", "newton-girard", "--n", "6", "--r", "6", "--random",
                       "--trials", "20", "--seed", str(rng.randrange(2**31))), 20))
    return items


def _power_sums(rng: random.Random, workdir: Path) -> list[Item]:
    items = [
        Item(("verify", "theorem1", "--m", str(m), "--r", str(r)), 1,
             (("lhs_at_ones", m, r),))
        for m, r in [(10, 1), (8, 2), (6, 3)]
    ]
    m, n = 300, 900 + rng.randrange(200)
    items.append(Item(("powersum", "--m", str(m), "--n", str(n), "--method", "all"), 1,
                      (("powersum_values", m, n),)))
    items.append(Item(("verify", "lemma21", "--alpha", "400", "--random", "--m", "60",
                       "--trials", "20", "--seed", str(rng.randrange(2**31))), 20))
    return items


_BUILDERS = {
    "walk_cycle": _walk_cycle,
    "involution": _involution,
    "multi_alphabet": _multi_alphabet,
    "power_sums": _power_sums,
}


def build(name: str, seed: int, workdir: Path) -> list[Item]:
    """The workload's invocation list for this seed; graph files go to workdir."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
