from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

import pytest

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
    for m in range(1, 15):
        total = sum(binomial(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
        assert total == 0


def test_bernoulli_concurrent_reads_agree():
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli_number, [40] * 16))
    assert len(set(results)) == 1
    assert results[0] == bernoulli_number(40)

