import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrat.core import (
    BlockStructure,
    GeneratorSet,
    PeriodicSet,
    blocks_to_periodic,
    coverage_counts,
    periodic_to_blocks,
    verify_dominating,
)
from domrat.errors import InputError

from oracles import translate


def test_bounds_examples():
    for els, want in [([1, 4], (4, 0, 4)), ([1, -3], (1, 3, 4)), ([], (0, 0, 0))]:
        s = GeneratorSet(els)
        assert (s.a, s.b, s.c) == want


def test_generator_set_validation():
    with pytest.raises(InputError):
        GeneratorSet([1, 0])
    with pytest.raises(InputError):
        GeneratorSet([2, 2])
    with pytest.raises(InputError):
        GeneratorSet([1, "2"])
    with pytest.raises(InputError, match="True is not an integer"):
        GeneratorSet([True, 3])
    with pytest.raises(InputError, match="False is not an integer"):
        GeneratorSet([False])
    assert GeneratorSet([4, 1, -3]).elements == (-3, 1, 4)
    assert str(GeneratorSet([1, -3])) == "{-3,1}"


def test_generator_set_bound_invariants():
    s = GeneratorSet([2, -5, 7])
    assert s.c == s.a + s.b
    assert all(-s.b <= x <= s.a for x in s)
    assert GeneratorSet([]).c == 0


def test_density_examples():
    assert PeriodicSet(5, {1, 4}).density == Fraction(2, 5)
    assert PeriodicSet(1, {1}).density == 1
    assert PeriodicSet(3, {1}).density == Fraction(1, 3)


def test_periodic_set_validation():
    with pytest.raises(InputError):
        PeriodicSet(0, set())
    with pytest.raises(InputError):
        PeriodicSet(3, {4})
    with pytest.raises(InputError):
        PeriodicSet(3, {0})
    with pytest.raises(InputError, match="period True is not"):
        PeriodicSet(True, [True])
    with pytest.raises(InputError, match="residue True is not"):
        PeriodicSet(3, [1, True])  # equal to 1, so a set would hide it
    with pytest.raises(InputError):
        PeriodicSet(3.0, [1])
    with pytest.raises(InputError):
        PeriodicSet(3, [2.0])


def test_periodic_membership_lifts_both_directions():
    u = PeriodicSet(5, {2, 5})
    assert 2 in u and 7 in u and -3 in u
    assert 0 in u and -5 in u  # 0 == 5 mod 5
    assert 1 not in u and -1 not in u


def test_blocks_to_periodic_examples():
    u = blocks_to_periodic(BlockStructure([3, 2]))
    assert (u.period, u.residues) == (5, frozenset({1, 4}))
    u = blocks_to_periodic(BlockStructure([3]))
    assert (u.period, u.residues) == (3, frozenset({1}))
    u = blocks_to_periodic(BlockStructure([3, 4, 3, 1]))
    assert (u.period, u.residues) == (11, frozenset({1, 4, 8, 11}))


def test_periodic_blocks_round_trip():
    bs = BlockStructure([3, 4, 3, 1])
    assert periodic_to_blocks(blocks_to_periodic(bs)).sizes == bs.sizes
    with pytest.raises(InputError):
        periodic_to_blocks(PeriodicSet(4, set()))


def test_block_structure_rotation_equality():
    assert BlockStructure([2, 3, 4]) == BlockStructure([3, 4, 2])
    assert BlockStructure([2, 3, 4]) != BlockStructure([3, 2, 4])
    assert hash(BlockStructure([2, 3])) == hash(BlockStructure([3, 2]))
    assert BlockStructure([2, 3]).sizes != BlockStructure([3, 2]).sizes


def test_block_structure_validation():
    with pytest.raises(InputError):
        BlockStructure([])
    with pytest.raises(InputError):
        BlockStructure([2, 0])
    with pytest.raises(InputError, match="block size True is not"):
        BlockStructure((True, 2))
    with pytest.raises(InputError):
        BlockStructure([2.0])


def test_verify_dominating_examples():
    assert verify_dominating(blocks_to_periodic(BlockStructure([3, 2])),
                             GeneratorSet([1, 4]))
    assert verify_dominating(blocks_to_periodic(BlockStructure([3])),
                             GeneratorSet([1, 5]))
    assert not verify_dominating(blocks_to_periodic(BlockStructure([3])),
                                 GeneratorSet([1, 4]))


def test_verify_dominating_empty_generators():
    everything = PeriodicSet(1, {1})
    assert verify_dominating(everything, GeneratorSet([]))
    assert not verify_dominating(PeriodicSet(2, {1}), GeneratorSet([]))


def test_verify_dominating_matches_coverage_counts():
    rng = random.Random(7)
    pool = [x for x in range(-9, 10) if x]
    for _ in range(2000):
        p = rng.randint(1, 30)
        u = PeriodicSet(p, rng.sample(range(1, p + 1), rng.randint(0, p)))
        s = GeneratorSet(rng.sample(pool, rng.randint(0, 4)))
        assert verify_dominating(u, s) == (min(coverage_counts(u, s)) >= 1), (u, s)


def test_coverage_counts():
    u = blocks_to_periodic(BlockStructure([3]))  # 3Z + 1
    assert coverage_counts(u, GeneratorSet([1, 5])) == [1, 1, 1]
    assert coverage_counts(u, GeneratorSet([1, 2])) == [1, 1, 1]
    # with steps {1,4}: 2 is reached only from 1, 3 only from -1 == 2 mod 3
    assert coverage_counts(u, GeneratorSet([1, 4])) == [1, 2, 0]


sizes_strategy = st.lists(st.integers(min_value=1, max_value=9),
                          min_size=1, max_size=10)


@given(sizes_strategy)
def test_blocks_density_law(sizes):
    bs = BlockStructure(sizes)
    assert blocks_to_periodic(bs).density == Fraction(len(sizes), sum(sizes))


@given(sizes_strategy, st.integers(min_value=-30, max_value=30),
       st.sets(st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0),
               min_size=1, max_size=3))
@settings(max_examples=150)
def test_verify_dominating_translation_invariant(sizes, shift, els):
    u = blocks_to_periodic(BlockStructure(sizes))
    s = GeneratorSet(els)
    assert verify_dominating(u, s) == verify_dominating(translate(u, shift), s)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8),
       st.integers(min_value=-7, max_value=7).filter(lambda x: x not in (0, 1)))
@settings(max_examples=200)
def test_dominating_block_sizes_bounded(sizes, s):
    # any dominating gap sequence for steps {1, s} has gaps at most s+1
    # (forward s) or -s+2 (backward s)
    gs = GeneratorSet([1, s])
    if not verify_dominating(blocks_to_periodic(BlockStructure(sizes)), gs):
        return
    limit = s + 1 if s > 0 else -s + 2
    assert all(b <= limit for b in sizes)


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_rational_round_trip(x, y):
    assert (x + y) - y == x
