import math

import pytest

from dbarn.multiindex import (
    MultiIndex,
    binomial_double_sum,
    count_multiindices,
    enumerate_multiindices,
    gamma,
    multinomial_power_identity_check,
)


def test_gamma_examples():
    assert gamma(MultiIndex((0, 0))) == 1
    assert gamma(MultiIndex((1, 1))) == 2
    assert gamma(MultiIndex((2, 1, 1))) == 12


def test_gamma_accepts_sequences():
    assert gamma([3, 2]) == math.factorial(5) // (6 * 2)


def test_gamma_order_bound():
    with pytest.raises(ValueError, match="bound"):
        gamma(MultiIndex((33,)))


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex((-1, 2))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_enumerate_examples():
    assert [m.exponents for m in enumerate_multiindices(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [m.exponents for m in enumerate_multiindices(0, 5)] == [(0, 0, 0, 0, 0)]
    assert len(enumerate_multiindices(3, 3)) == 10


@pytest.mark.parametrize("order,dim", [(0, 1), (4, 2), (3, 4), (5, 3)])
def test_enumerate_count_order_uniqueness(order, dim):
    out = enumerate_multiindices(order, dim)
    assert len(out) == count_multiindices(order, dim)
    assert len({m.exponents for m in out}) == len(out)
    assert all(m.order == order for m in out)
    # fixed iteration order: leading exponent descending
    assert out == sorted(out, key=lambda m: m.exponents, reverse=True)


def test_enumerate_bound():
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_multiindices(60, 8)


@pytest.mark.parametrize("dim", range(1, 5))
@pytest.mark.parametrize("s", range(6))
def test_multinomial_power_identity(dim, s):
    assert multinomial_power_identity_check(dim, s)


def test_binomial_double_sum_examples():
    assert binomial_double_sum(7, 9, 0) == 1
    assert binomial_double_sum(1, 3, 2) == 10
    assert binomial_double_sum(0, 4, 3) == 10


def test_binomial_double_sum_closed_form():
    for k in range(13):
        for p in range(13):
            for m in range(p + 1):
                assert binomial_double_sum(k, p, m) == math.comb(p + k + 1, m)


def test_binomial_double_sum_recursion():
    for k in range(13):
        for p in range(2, 13):
            for m in range(1, p):
                assert (binomial_double_sum(k, p, m)
                        == binomial_double_sum(k, p - 1, m)
                        + binomial_double_sum(k, p - 1, m - 1))


def test_binomial_double_sum_domain():
    with pytest.raises(ValueError, match="p >= m"):
        binomial_double_sum(2, 3, 4)
