import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from domrat import circulant
from domrat.circulant import (
    CirculantInstance,
    domination_number,
    is_dominating,
    oracle_scan,
    ratio_oracle,
    residues,
)
from domrat.core import GeneratorSet
from domrat.errors import CapExceededError, CertificateError, InputError, ZeroResidueError
from domrat.stategraph import domination_ratio


def test_residues_examples():
    assert residues(GeneratorSet([1, -3]), 5).connection == {1, 2}
    assert residues(GeneratorSet([1, 6]), 11).connection == {1, 6}
    with pytest.raises(ZeroResidueError) as err:
        residues(GeneratorSet([1, 5]), 5)
    assert "5" in str(err.value)
    with pytest.raises(InputError):
        residues(GeneratorSet([1, 2]), 0)  # checked before x % n divides by zero


def test_residues_merge_duplicates():
    assert residues(GeneratorSet([1, 6]), 5).connection == {1}


def test_instance_validation():
    with pytest.raises(InputError):
        CirculantInstance(0, [])
    with pytest.raises(InputError):
        CirculantInstance(4, [5])
    # residue n (a loop) is allowed on direct construction
    inst = CirculantInstance(4, [4, 1])
    gamma, _ = domination_number(inst)
    assert gamma == 2


@pytest.mark.parametrize("n,conn,want", [
    (8, [1, 2], 3),
    (11, [1, 6], 4),
    (5, [1, 2, 3, 4], 1),
    (9, [1, 3, 6, 8], 3),
    (1, [1], 1),
    (3, [1, 2], 1),
])
def test_domination_number_examples(n, conn, want):
    inst = CirculantInstance(n, conn)
    gamma, witness = domination_number(inst)
    assert gamma == want
    assert len(witness) == gamma
    assert is_dominating(inst, witness)


@pytest.mark.parametrize("n,conn", [
    (8, [1, 2]),
    (4, [4, 1]),  # residue n: a loop edge
    # a reconstruction step finds a feasible vertex below the smallest one
    # of the completion already known
    (10, [6, 7]),
    (11, [1, 3, 4]),
])
def test_witness_is_lexicographically_least(n, conn):
    inst = CirculantInstance(n, conn)
    gamma, witness = domination_number(inst)
    best = min(c for c in combinations(range(n), gamma)
               if is_dominating(inst, c))
    assert witness == best


def test_exists_cover_contract():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        conn = rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
        inst = CirculantInstance(n, conn)
        cover = circulant._cover_masks(inst)
        doms = circulant._dominator_lists(inst)
        mask = rng.getrandbits(n)
        budget = rng.randint(0, 4)
        min_vertex = rng.randint(0, n)
        found = circulant._exists_cover(mask, budget, cover, doms, len(doms[0]),
                                        min_vertex)
        brute = any(not mask & ~_union(cover, c)
                    for k in range(budget + 1)
                    for c in combinations(range(min_vertex, n), k))
        assert (found is not None) == brute, (n, conn, mask, budget, min_vertex)
        if found is not None:
            assert len(found) <= budget and len(set(found)) == len(found)
            assert all(min_vertex <= v < n for v in found)
            assert not mask & ~_union(cover, found)


def _union(cover, vertices):
    out = 0
    for v in vertices:
        out |= cover[v]
    return out


def test_witness_deterministic():
    inst = CirculantInstance(13, [1, 5])
    assert domination_number(inst) == domination_number(inst)


def test_lower_bound_and_rotation_invariance():
    inst = CirculantInstance(12, [2, 3])
    gamma, witness = domination_number(inst)
    assert gamma >= -(-12 // (len(inst.connection) + 1))
    for shift in range(12):
        assert is_dominating(inst, [(v + shift) % 12 for v in witness])


def test_cap():
    with pytest.raises(CapExceededError):
        domination_number(CirculantInstance(31, [1]))
    gamma, _ = domination_number(CirculantInstance(31, [1]), n_max=31)
    assert gamma == 16


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_deeper_than_recursion_limit():
    # gamma(Z_40, {1}) = 20: the search goes 20 levels deep, with room for
    # only 10 more frames on the stack
    inst = CirculantInstance(40, [1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 10)
    try:
        gamma, witness = domination_number(inst, n_max=40)
    finally:
        sys.setrecursionlimit(limit)
    assert gamma == 20
    assert witness == tuple(range(0, 40, 2))


@pytest.mark.parametrize("els,limit,want,at", [
    ([1, 2], 12, Fraction(1, 3), 3),
    ([1, 4], 12, Fraction(2, 5), 5),
    ([1, 3], 12, Fraction(2, 5), 5),
])
def test_ratio_oracle_examples(els, limit, want, at):
    s = GeneratorSet(els)
    assert ratio_oracle(s, limit) == want
    scan = oracle_scan(s, limit)
    assert min(Fraction(g, n) for n, g in scan) == want
    assert next(n for n, g in scan if Fraction(g, n) == want) == at


def test_oracle_scan_range_and_errors():
    s = GeneratorSet([1, -3])
    scan = oracle_scan(s, 10)
    assert [n for n, _ in scan] == [4, 5, 6, 7, 8, 9, 10]
    with pytest.raises(InputError):
        oracle_scan(s, 2)
    with pytest.raises(InputError):
        oracle_scan(GeneratorSet([]), 10)


def test_oracle_upper_bounds_engine():
    for els in [[1, 2], [2, 3], [1, -2], [2, 5], [1, 4]]:
        s = GeneratorSet(els)
        cert = domination_ratio(s)
        for limit in (max(abs(x) for x in els) + 1 + 3, cert.period):
            bound = ratio_oracle(s, limit, n_max=45)
            assert bound >= cert.ratio
        assert ratio_oracle(s, cert.period, n_max=45) == cert.ratio


def test_period_identity_with_engine():
    for els in [[1, 2], [1, 3], [2, 3], [1, -2]]:
        s = GeneratorSet(els)
        cert = domination_ratio(s)
        gamma, _ = domination_number(residues(s, cert.period), n_max=45)
        assert gamma == cert.ratio * cert.period


def test_search_failure_raises_under_optimize_flag():
    # k = n always dominates, so a search finding nothing is an internal
    # error; it must say so under python -O too, not fail later on None
    code = """
from domrat import circulant
circulant._exists_cover = lambda *args: None
try:
    circulant.domination_number(circulant.CirculantInstance(5, [1]))
except AssertionError as err:
    print("raised", err)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.startswith("raised"), out.stderr


def test_witness_self_check(monkeypatch):
    # with every vertex claimed to cover all of Z_n, vertex 0 alone passes
    # the search; the check that does not read the masks must refuse it
    monkeypatch.setattr(circulant, "_cover_masks",
                        lambda inst: [(1 << inst.n) - 1] * inst.n)
    with pytest.raises(CertificateError):
        domination_number(CirculantInstance(8, [1, 2]))
