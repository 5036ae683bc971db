import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import girardlab
from girardlab import bernoulli_number, binomial, factorial


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_recurrence():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-1)


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_bernoulli_odd_indices_vanish():
    for k in range(3, 20, 2):
        assert bernoulli_number(k) == 0


def test_bernoulli_defining_recurrence():
    # sum_{j=0}^{m} C(m+1, j) B_j == 0 for m >= 1
    for m in range(1, 121):
        total = sum(binomial(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
        assert total == 0


B40 = Fraction(-261082718496449122051, 13530)


def test_bernoulli_table_equals_the_fraction_recurrence():
    # the literal route: solve the defining recurrence for B_m, one
    # Fraction sum per entry, past the powersum workload's m = 300
    table = [Fraction(1)]
    for m in range(1, 303):
        table.append(-sum(binomial(m + 1, j) * table[j] for j in range(m)) / (m + 1))
    assert table[40] == B40
    assert [bernoulli_number(k) for k in range(303)] == table


# In a fresh interpreter, eight threads released by one barrier grow a cold
# cache at once, for several rounds (the cache is emptied back to B_0
# between rounds); the lock is what keeps two of them from appending the
# same entry.
RACE = """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from girardlab import exactnum
sys.setswitchinterval(1e-6)
for _ in range(20):
    del exactnum._bernoulli_cache[1:]
    barrier = threading.Barrier(8)
    def read(k):
        barrier.wait(timeout=60)
        return exactnum.bernoulli_number(k)
    with ThreadPoolExecutor(max_workers=8) as pool:
        for value in pool.map(read, [40] * 8):
            print(value)
"""


def test_bernoulli_concurrent_reads_agree():
    src = str(Path(girardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", RACE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [Fraction(line) for line in proc.stdout.split()]
    assert results == [B40] * 160
    assert bernoulli_number(40) == B40

