import pytest
from hypothesis import given
from hypothesis import strategies as st

from webrank.combin import (
    binom,
    calibrated_max_rank,
    calibration_order,
    exact_support_dims,
    max_rank_bound,
    monomial_count,
    support_dims,
    verify_counting_identities,
)


def test_binom_values():
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(5, 0) == 1
    assert binom(7, -2) == 0


def test_binom_rejects_negative_first_argument():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_monomial_count_values():
    assert monomial_count(2, 3) == 4
    assert monomial_count(3, 3) == 10
    for n in range(1, 8):
        assert monomial_count(n, 0) == 1


def test_monomial_count_domain():
    with pytest.raises(ValueError):
        monomial_count(0, 2)
    with pytest.raises(ValueError):
        monomial_count(2, -1)


def test_calibration_order_values():
    assert calibration_order(2, 4) == 3
    assert calibration_order(2, 5) == 4
    assert calibration_order(3, 10) == 3


def test_calibration_order_half_open_boundary():
    # at d = monomial_count(n, k0+1) the order steps up
    assert monomial_count(2, 4) == 5
    assert calibration_order(2, 4) == 3
    assert calibration_order(2, 5) == 4


def test_calibration_order_domain():
    with pytest.raises(ValueError):
        calibration_order(2, 1)
    with pytest.raises(ValueError):
        calibration_order(1, 5)


def test_max_rank_bound_values():
    assert max_rank_bound(2, 4) == 3
    assert max_rank_bound(2, 5) == 6
    assert max_rank_bound(3, 10) == 11


@pytest.mark.parametrize(
    "n,k0,expected",
    [
        (2, 3, 3),
        (3, 3, 11),
        (4, 3, 26),
        (2, 4, 6),
        (3, 4, 26),
        (4, 4, 71),
        (5, 4, 155),
    ],
)
def test_calibrated_max_rank_values(n, k0, expected):
    assert calibrated_max_rank(n, k0) == expected


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=40))
def test_rank_bound_formulas_agree(n, extra):
    # max_rank_bound asserts internally that the closed form equals the sum
    assert max_rank_bound(n, n + extra) >= 0


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
def test_monomial_count_support_split(n, h):
    assert monomial_count(n, h) == sum(
        binom(h - 1, k - 1) * binom(n, k) for k in range(1, h + 1)
    )


def test_support_dims_k0_3():
    table = exact_support_dims(3, 3)
    assert table.N_values == {2: 3, 3: 2}


def test_support_dims_k0_4():
    table = exact_support_dims(4, 6)
    assert table.N_values[2] == 6
    assert table.N_values[3] == 8
    assert table.N_values[4] == 3
    assert table.N_values[5] == 0
    assert table.N_values[6] == 0


def test_support_dims_resum_to_rank():
    # k0=4, n=5: 6*10 + 8*10 + 3*5 = 155
    table = exact_support_dims(4, 5)
    assert (
        sum(table.N_values[h] * binom(5, h) for h in range(2, 5))
        == calibrated_max_rank(5, 4)
        == 155
    )


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=9))
def test_support_dims_resum_to_any_rank_table(values):
    ranks = dict(enumerate(values, 2))
    dims = support_dims(ranks)
    assert sorted(dims) == sorted(ranks)
    for n, r in ranks.items():
        assert sum(dims[h] * binom(n, h) for h in range(2, n + 1)) == r


def test_verify_counting_identities():
    ok, counterexample = verify_counting_identities(3, 12, 12)
    assert ok and counterexample is None
    for k0 in range(2, 7):
        ok, counterexample = verify_counting_identities(k0, 20, 12)
        assert ok, counterexample


def test_large_inputs_stay_exact():
    # 64-bit overflow territory: the counts must stay exact integers
    value = calibrated_max_rank(20, 6)
    assert value == max_rank_bound(20, monomial_count(20, 6))
    assert monomial_count(64, 64) == binom(127, 64)
