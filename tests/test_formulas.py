from fractions import Fraction

import pytest

from domrat.circulant import domination_number, residues
from domrat.core import GeneratorSet
from domrat.errors import InputError
from domrat.formulas import (
    circulant_bounds_one_s,
    circulant_bounds_pm_one_s,
    circulant_consecutive,
    circulant_one_s,
    circulant_pm13,
    circulant_pm1s_eds,
    cong_family,
    eds_predicted,
    ratio_one_s,
    ratio_pair_dividing,
)
from domrat.stategraph import domination_ratio


@pytest.mark.parametrize("s,want", [
    (2, Fraction(1, 3)),
    (7, Fraction(3, 8)),
    (-5, Fraction(4, 11)),
    (-1, Fraction(1, 3)),
    (4, Fraction(2, 5)),
    (3, Fraction(2, 5)),
    (-3, Fraction(2, 5)),
    (-2, Fraction(2, 5)),
    (6, Fraction(4, 11)),
    (-10, Fraction(1, 3)),
])
def test_ratio_one_s_values(s, want):
    assert ratio_one_s(s) == want


def test_ratio_one_s_domain():
    for s in (0, 1):
        with pytest.raises(InputError):
            ratio_one_s(s)


def test_ratio_one_s_cases_exclusive_and_exhaustive():
    for s in range(-100, 101):
        if s in (0, 1):
            continue
        cases = [
            s % 3 == 2,
            s > 0 and s % 3 == 1,
            s < 0 and s % 3 == 0,
            s > 0 and s % 3 == 0,
            s < 0 and s % 3 == 1,
        ]
        assert sum(cases) == 1, s
        value = ratio_one_s(s)
        assert Fraction(1, 3) <= value <= Fraction(2, 5)


def test_twin_equalities():
    for k in range(1, 31):
        assert ratio_one_s(3 * k + 1) == ratio_one_s(-3 * k)
        assert ratio_one_s(3 * k) == ratio_one_s(-3 * k + 1)


@pytest.mark.parametrize("s,t,want", [
    (2, 4, Fraction(1, 3)),
    (2, 8, Fraction(2, 5)),
    (3, -9, Fraction(2, 5)),
    (2, -2, Fraction(1, 3)),
    (-3, 6, Fraction(2, 5)),
])
def test_ratio_pair_dividing(s, t, want):
    assert ratio_pair_dividing(s, t) == want


def test_pair_domain_errors():
    with pytest.raises(InputError):
        ratio_pair_dividing(2, 5)
    with pytest.raises(InputError):
        ratio_pair_dividing(3, 3)
    with pytest.raises(InputError):
        ratio_pair_dividing(0, 3)


@pytest.mark.parametrize("s,t,want", [
    (1, 5, True),
    (1, 4, False),
    (3, 6, True),
    (2, -6, False),
    (1, -1, True),
])
def test_eds_predicted(s, t, want):
    assert eds_predicted(s, t) == want


def test_circulant_known_consecutive():
    assert circulant_consecutive(10, 3) == 3
    assert circulant_consecutive(11, 2) == 4
    with pytest.raises(InputError):
        circulant_consecutive(10, 10)


def test_circulant_known_pm13():
    assert circulant_pm13(14) == 4
    assert circulant_pm13(15) == 3
    assert circulant_pm13(19) == 5
    with pytest.raises(InputError):
        circulant_pm13(5)


def test_circulant_known_one_s():
    assert circulant_one_s(11, 6) == 4  # n = 6k-1, s = 3k at k=2
    assert circulant_one_s(5, 3) == 2
    assert circulant_one_s(12, 5) is None  # bounds only
    with pytest.raises(InputError):
        circulant_one_s(10, 1)


def test_circulant_bounds():
    assert circulant_bounds_one_s(10, 4) == (4, 5)
    assert circulant_bounds_pm_one_s(11, 3) == (3, 4)
    with pytest.raises(InputError):
        circulant_bounds_one_s(5, 5)


def test_circulant_pm1s_eds():
    assert circulant_pm1s_eds(10, 2)
    assert circulant_pm1s_eds(15, 3)
    assert not circulant_pm1s_eds(11, 2)
    assert not circulant_pm1s_eds(10, 4)


def test_circulant_formulas_against_solver():
    # every valid (n, s) with 6 <= n <= 24, against the exact circulant
    # solver: {1, s} for 1 < s < n, {+-1, +-s} for 1 < s < ceil(n/2)
    pm_pairs = 0
    for n in range(6, 25):
        for s in range(2, n):
            lo, hi = circulant_bounds_one_s(n, s)
            assert lo <= domination_number(residues(GeneratorSet([1, s]), n))[0] <= hi
        for s in range(2, -(-n // 2)):
            gamma, _ = domination_number(residues(GeneratorSet([1, -1, s, -s]), n))
            lo, hi = circulant_bounds_pm_one_s(n, s)
            assert lo <= gamma <= hi
            # 1, -1, s, -s are distinct mod n, so each vertex dominates 5:
            # a set dominating everything exactly once has n/5 members
            assert circulant_pm1s_eds(n, s) == (5 * gamma == n)
            pm_pairs += 1
    assert pm_pairs == 109


def test_cong_family_examples():
    assert cong_family(2, (0, 0)).elements == (1, 2)
    assert cong_family(2, (1, 0)).elements == (2, 4)
    assert cong_family(1, (-1,)).elements == (-1,)
    assert cong_family(0, ()).elements == ()
    with pytest.raises(InputError):
        cong_family(2, (0,))
    with pytest.raises(InputError):
        cong_family(1, (0, 0))


def test_agreement_with_engine_small():
    for s in range(-6, 9):
        if s in (0, 1):
            continue
        gs = GeneratorSet([1, s])
        assert domination_ratio(gs).ratio == ratio_one_s(s)


def test_undirected_families():
    # {+-s} always lands on 1/3
    for s in (1, 2, 3, 4):
        assert domination_ratio(GeneratorSet([s, -s])).ratio == Fraction(1, 3)
    # {+-1, +-s} with s = +-2 mod 5 lands on 1/5
    for s in (2, 3, 7):
        gs = GeneratorSet([1, -1, s, -s])
        assert domination_ratio(gs).ratio == Fraction(1, 5)


def test_undirected_bounds():
    for els in [[1, 2], [2, 5], [1, 4]]:
        pm = GeneratorSet(sorted(set(els) | {-e for e in els}))
        ratio = domination_ratio(pm).ratio
        assert Fraction(1, len(pm.elements) + 1) <= ratio <= Fraction(1, 3)
