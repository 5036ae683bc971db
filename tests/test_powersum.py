import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from girardlab import exactnum, powersum
from girardlab import (
    Poly,
    good_word_sum,
    power_sum_below,
    power_sum_direct,
    power_sum_lhs,
    power_sum_rhs,
    power_sum_via_bernoulli,
    power_sum_via_stirling,
    power_sum_via_stirling_prefactored,
    poly_sum,
    rhs_inner_sum,
    stirling2,
    sum_product,
    verify_binomial_transform,
    xvar,
    yvar,
)


# ---------------------------------------------------------------------------
# the symbolic identity
# ---------------------------------------------------------------------------


def test_sum_product_smallest_cases():
    assert sum_product([], 3) == Poly.zero()
    assert sum_product([1], 1) == Poly.variable(xvar(1, 1))
    # duplicate indices collapse: Pi_r is a function of the *set*
    assert sum_product([2, 1, 2], 2) == sum_product([1, 2], 2)
    assert str(sum_product([1, 2], 1)) == "x[1]^(1) + x[2]^(1)"


def test_sum_product_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sum_product([1], 0)
    with pytest.raises(ValueError):
        sum_product([0, 1], 2)


def test_lhs_smallest_case_text():
    assert str(power_sum_lhs(2, 1)) == "x[1]^(1)*y[2] + x[1]^(1)*y[3] + x[2]^(1)*y[3]"


def test_lhs_equals_rhs_small_grid():
    for m in range(1, 4):
        for r in range(1, 4):
            assert power_sum_lhs(m, r) == power_sum_rhs(m, r), (m, r)


def test_rhs_transform_equals_the_per_subset_sum():
    # the Moebius transform against the literal sum over every U, |U| >= 2
    for m in range(1, 8):
        for r in range(1, 5):
            literal = poly_sum(
                rhs_inner_sum(u, r) * Poly.variable(yvar(max(u)))
                for size in range(2, m + 2)
                for u in combinations(range(1, m + 2), size)
            )
            assert power_sum_rhs(m, r) == literal, (m, r)


def test_rhs_makes_one_product_per_nonempty_subset(monkeypatch):
    # each subset's factor sums grow from the subset below it: one new
    # x variable per factor, and no sum_product rebuild
    products = []
    variables = []
    inner = []

    def counted_xvar(*args):
        variables.append(args)
        return xvar(*args)

    monkeypatch.setattr(powersum, "sum_product", lambda *a: products.append(a))
    monkeypatch.setattr(powersum, "xvar", counted_xvar)
    monkeypatch.setattr(powersum, "rhs_inner_sum", lambda *a: inner.append(a))
    for m in range(1, 9):
        for r in (1, 3):
            variables.clear()
            power_sum_rhs(m, r)
            assert products == [], (m, r)
            assert len(variables) == (2**m - 1) * r, (m, r)
            assert inner == []


# sha256 of str(power_sum_rhs(m, r)), taken from the per-subset product
# build (sum_product for every subset) before the grown factor sums
RHS_TEXT_SHA256 = {
    (10, 1): "c5c76ce5d93c9e424edd52ab16b31ce5c49ffe5a8e292a2c548699afa11f31eb",
    (9, 2): "66ebd19fbf142df9e7b724e42c00b905ae0637383b9e15e5048799967c77ee8b",
    (6, 3): "22a329b48fc09679536e9dcb9b0398662b2b3e662788e56f439d209e3099419a",
}


@pytest.mark.parametrize("m, r", sorted(RHS_TEXT_SHA256))
def test_rhs_text_is_pinned(m, r):
    text = str(power_sum_rhs(m, r)).encode()
    assert hashlib.sha256(text).hexdigest() == RHS_TEXT_SHA256[m, r]


@pytest.mark.parametrize("m, r", [(12, 1), (10, 2)])
def test_three_routes_agree_at_the_larger_sizes(m, r):
    assert power_sum_lhs(m, r) == power_sum_rhs(m, r) == good_word_sum(m, r)


def test_good_words_are_an_independent_route():
    for m in range(1, 4):
        for r in range(1, 4):
            assert good_word_sum(m, r) == power_sum_lhs(m, r), (m, r)


def test_good_word_count():
    # m = r = 2: one word ends in y_2 (i_1 = i_2 = 1) and four end in y_3.
    p = good_word_sum(2, 2)
    ones = {xvar(i, j): 1 for i in (1, 2) for j in (1, 2)}
    ones.update({yvar(2): 1, yvar(3): 1})
    assert p.evaluate(ones) == 5


def test_inner_sum_vanishes_beyond_r():
    # |U| - 1 > r kills the subset U; this is what collapses the double sum.
    assert rhs_inner_sum([1, 2, 3], 1) == Poly.zero()
    assert rhs_inner_sum([1, 2, 3, 4], 2) == Poly.zero()
    assert rhs_inner_sum([2, 4, 5, 7], 2) == Poly.zero()
    # at the boundary |U| - 1 == r it survives
    assert rhs_inner_sum([1, 2, 3], 2) != Poly.zero()


def test_inner_sum_needs_two_elements():
    with pytest.raises(ValueError):
        rhs_inner_sum([3], 2)


def test_sides_reject_bad_arguments():
    with pytest.raises(ValueError):
        power_sum_lhs(0, 1)
    with pytest.raises(ValueError):
        power_sum_rhs(2, 0)
    with pytest.raises(ValueError):
        good_word_sum(0, 0)


# ---------------------------------------------------------------------------
# Stirling numbers and the binomial transform
# ---------------------------------------------------------------------------


def test_stirling2_values():
    assert stirling2(1, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(2, 3) == 0
    assert stirling2(6, 0) == 0


def test_stirling2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stirling2(0, 1)
    with pytest.raises(ValueError):
        stirling2(3, -1)


def test_stirling2_closed_form_matches_recurrence():
    for m in range(1, 13):
        for k in range(0, 13):
            assert stirling2(m, k) == powersum._stirling2_row(m, k)[k], (m, k)


def test_stirling_routes_build_one_row_instead_of_calling_the_closed_form(monkeypatch):
    calls = []
    original = powersum.stirling2

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(powersum, "stirling2", counted)
    for n in (1, 7, 300, 1000):
        assert power_sum_via_stirling(300, n) == power_sum_direct(300, n)
    assert verify_binomial_transform(400, [1, -2, 3, 0, 5, -1])
    assert calls == []


def test_binomial_transform_hand_cases():
    # alpha = 1, c = (1, 1): 1 + 2 = 3 on both sides
    assert verify_binomial_transform(1, [1, 1])
    assert verify_binomial_transform(2, [1, 0, -1])
    assert verify_binomial_transform(3, [2])
    with pytest.raises(ValueError):
        verify_binomial_transform(0, [1, 2])


def test_binomial_transform_random_sequences():
    rng = random.Random(1105)
    for _ in range(40):
        alpha = rng.randint(1, 6)
        m = rng.randint(1, 8)
        c = [rng.randint(-9, 9) for _ in range(m)]
        assert verify_binomial_transform(alpha, c), (alpha, c)


# ---------------------------------------------------------------------------
# numeric corollaries
# ---------------------------------------------------------------------------


def test_power_sum_direct_values():
    assert power_sum_direct(1, 4) == 10
    assert power_sum_direct(2, 3) == 14
    assert power_sum_direct(5, 10) == 220825
    assert power_sum_below(3, 1) == 0
    assert power_sum_below(2, 4) == 14


def test_stirling_route_matches_direct_sum():
    for m in range(1, 9):
        for n in range(1, 11):
            assert power_sum_via_stirling(m, n) == power_sum_direct(m, n), (m, n)


def test_prefactored_variant_is_wrong_already_at_one_one():
    assert power_sum_via_stirling_prefactored(1, 1) == Fraction(1, 2)
    assert power_sum_via_stirling_prefactored(1, 1) != power_sum_direct(1, 1)


def test_bernoulli_route_matches_sum_below():
    for m in range(1, 9):
        for n in range(1, 11):
            value = power_sum_via_bernoulli(m, n)
            assert value.denominator == 1, (m, n)
            assert value == power_sum_below(m, n), (m, n)


def test_bernoulli_route_smallest_case():
    assert power_sum_via_bernoulli(1, 2) == 1


def test_bernoulli_route_builds_its_table_once(monkeypatch):
    # from a cold cache, B_0..B_m come from one table build, not one per
    # missed entry (which would cost O(m^3))
    builds = []
    build = exactnum._bernoulli_table

    def counted(k):
        builds.append(k)
        return build(k)

    monkeypatch.setattr(exactnum, "_bernoulli_cache", [Fraction(1)])
    monkeypatch.setattr(exactnum, "_bernoulli_table", counted)
    assert power_sum_via_bernoulli(300, 5) == power_sum_below(300, 5)
    assert builds == [300]


def test_corollaries_reject_bad_arguments():
    for fn in (power_sum_direct, power_sum_below, power_sum_via_stirling,
               power_sum_via_bernoulli):
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(3, 0)
