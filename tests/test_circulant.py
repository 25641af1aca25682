import functools
import math
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
    # each random (n, C) runs several masks through one failed-state table
    # at ascending min_vertex, the way domination_number shares it over a
    # solve; half the masks are submasks of the one before, so that later
    # calls meet masks the earlier ones refuted
    rng = random.Random(7)
    recorded = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        conn = rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
        inst = CirculantInstance(n, conn)
        cover = circulant._cover_masks(inst)
        doms = circulant._dominator_lists(inst)
        failed = _GrowingTable()
        mask, min_vertex = rng.getrandbits(n), 0
        for _ in range(rng.randint(1, 6)):
            mask = mask & rng.getrandbits(n) if rng.random() < 0.5 else rng.getrandbits(n)
            budget = rng.randint(0, 4)
            min_vertex = rng.randint(min_vertex, min(min_vertex + 2, n))
            before = dict(failed)
            found = circulant._exists_cover(mask, budget, cover, doms, len(doms[0]),
                                            failed, min_vertex)
            brute = any(not mask & ~_union(cover, c)
                        for k in range(budget + 1)
                        for c in combinations(range(min_vertex, n), k))
            assert (found is not None) == brute, (n, conn, mask, budget, min_vertex)
            if found is not None:
                assert len(found) <= budget and len(set(found)) == len(found)
                assert all(min_vertex <= v < n for v in found)
                assert not mask & ~_union(cover, found)
            # every entry this call wrote is a true refutation at its min_vertex
            least = _least_cover_size(cover, doms, min_vertex)
            for m, b in failed.items():
                if before.get(m) != b:
                    assert least(m) > b, (n, conn, m, b, min_vertex)
        recorded += len(failed)
    assert recorded  # a search that exhausts a level records it


class _GrowingTable(dict):
    """A failed-state table that refuses a write not above the entry it
    replaces: a mask the table refutes with a budget is never expanded with
    that budget again."""

    def __setitem__(self, mask, budget):
        assert budget > self.get(mask, -1), (mask, budget, self.get(mask))
        super().__setitem__(mask, budget)


def _least_cover_size(cover, doms, min_vertex):
    """Fewest vertices >= min_vertex covering a mask (infinite if none do),
    by plain recursion on the mask's lowest vertex."""

    @functools.cache
    def least(mask: int) -> int:
        if not mask:
            return 0
        j = (mask & -mask).bit_length() - 1
        return min((1 + least(mask & ~cover[d]) for d in doms[j] if d >= min_vertex),
                   default=math.inf)

    return least


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
    # {1,-3} is scanned by the window DP, {-5,6} by the branch and bound
    assert GeneratorSet([-5, 6]).c > circulant._WINDOW_MAX_C >= GeneratorSet([1, -3]).c
    for els, first in (([1, -3], 4), ([-5, 6], 7)):
        s = GeneratorSet(els)
        scan = oracle_scan(s, 10)
        assert [n for n, _ in scan] == list(range(first, 11))
        with pytest.raises(InputError):
            oracle_scan(s, 2)
    with pytest.raises(InputError):
        oracle_scan(GeneratorSet([]), 10)


def test_scan_refuses_cap_before_any_search(monkeypatch):
    def search(*args):
        raise AssertionError("searched before refusing the cap")

    monkeypatch.setattr(circulant, "_exists_cover", search)
    monkeypatch.setattr(circulant, "_window_scan", search)
    for els, limit, cap, first in (([-4, 2, 4], 37, 36, 37), ([9], 12, 8, 10),
                                   ([-5, 6], 31, 30, 31)):
        for scan in (oracle_scan, ratio_oracle):
            with pytest.raises(CapExceededError) as err:
                scan(GeneratorSet(els), limit, n_max=cap)
            assert str(err.value) == f"n={first} exceeds cap {cap}"


def _circulant_scan_sets() -> list[tuple[int, ...]]:
    """The sets of perfbench's circulant_scan: elements from +-6, one to
    three of them, c <= 8, one of each pair S, -S."""
    out: list[tuple[int, ...]] = []
    for k in (1, 2, 3):
        for els in combinations([x for x in range(-6, 7) if x], k):
            if GeneratorSet(els).c <= 8 and tuple(sorted(-x for x in els)) not in out:
                out.append(els)
    return out


# circulant_scan scans each set at every n up to 27; these instances split
_CIRC_SETS = _circulant_scan_sets()
_SPLIT = [(els, n, residues(GeneratorSet(els), n)) for els in _CIRC_SETS
          for n in range(max(map(abs, els)) + 1, 28)
          if math.gcd(n, *residues(GeneratorSet(els), n).connection) > 1]


def test_scan_matches_unreduced_solve_on_split_instances():
    # on both of the scan's paths: the window DP, and the branch and bound
    # on one coset
    assert len(_CIRC_SETS) == 106 and len(_SPLIT) == 191
    scans = {els: dict(oracle_scan(GeneratorSet(els), 27, n_max=27))
             for els in {els for els, _, _ in _SPLIT}}
    for els, n, inst in _SPLIT:
        gamma = domination_number(inst, n_max=27)[0]
        assert scans[els][n] == circulant._scan_gamma(inst) == gamma, (els, n)


def _brute_gamma(inst: CirculantInstance) -> int:
    n, steps = inst.n, {0, *inst.connection}
    for k in range(1, n + 1):
        for c in combinations(range(n), k):
            if all(any((j - v) % n in steps for v in c) for j in range(n)):
                return k
    raise AssertionError(inst)


def test_scan_matches_brute_force_on_small_split_instances():
    small = [(els, n, inst) for els, n, inst in _SPLIT if n <= 12]
    assert small
    scans = {els: dict(oracle_scan(GeneratorSet(els), 12))
             for els in {els for els, _, _ in small}}
    for els, n, inst in small:
        assert scans[els][n] == circulant._scan_gamma(inst) == _brute_gamma(inst), (els, n)


def _check_window_scan(s: GeneratorSet, n_limit: int) -> list[int]:
    """_window_scan against domination_number at every n, each cover checked
    for size and domination; returns the moduli it compared."""
    scan = circulant._window_scan(s, n_limit)
    assert [n for n, _, _ in scan] == list(range(max(map(abs, s)) + 1, n_limit + 1))
    for n, gamma, cover in scan:
        inst = residues(s, n)
        assert gamma == domination_number(inst, n_max=n_limit)[0], (s, n)
        assert len(cover) == len({v % n for v in cover}) == gamma, (s, n, cover)
        assert is_dominating(inst, cover), (s, n, cover)
    return [n for n, _, _ in scan]


def test_window_scan_matches_domination_number_on_circulant_scan_sets():
    below = [GeneratorSet(els) for els in _CIRC_SETS
             if GeneratorSet(els).c <= circulant._WINDOW_MAX_C]
    assert len(below) == 106
    assert sum(len(_check_window_scan(s, 27)) for s in below) == 2383


def test_window_scan_matches_domination_number_on_random_sets():
    # spans up to the rule and moduli up to 20, so that n < c and gcd(n, C) > 1
    # both occur, gcd(S) > 1 among them
    rng = random.Random(27)
    short = split = 0
    for _ in range(40):
        s = GeneratorSet(rng.sample([x for x in range(-6, 7) if x], rng.randint(1, 3)))
        if s.c > circulant._WINDOW_MAX_C:
            continue
        for n in _check_window_scan(s, rng.randint(max(map(abs, s)) + 1, 20)):
            short += n < s.c
            split += math.gcd(n, *residues(s, n).connection) > 1
    assert short >= 10 and split >= 10, (short, split)


def test_window_scan_matches_domination_number_on_edge_sets():
    # c = 1 has a single start state; a set of one step has no middle bit
    # that dominates, so every step that drops a 0 and appends one is barred
    for els, n_limit in (([1], 9), ([-1], 9), ([4], 12), ([-3], 12), ([2, 4], 14)):
        _check_window_scan(GeneratorSet(els), n_limit)


def test_window_scan_costs_past_uint8():
    # n_limit 130 needs 16-bit costs: the answers up to 27 agree with the
    # 8-bit sweep, and every cover up to 130 is checked
    for els in ([2, 5], [-3, 1, 4]):
        s = GeneratorSet(els)
        wide = circulant._window_scan(s, 130)
        assert [(n, g) for n, g, _ in wide[:27 - max(map(abs, s))]] == [
            (n, g) for n, g, _ in circulant._window_scan(s, 27)]
        for n, gamma, cover in wide:
            circulant._check_cover(residues(s, n), cover, gamma)


def test_domination_number_matches_brute_force_on_non_split_instances():
    # random gcd(n, C) = 1 circulants: gamma against brute force, and the
    # witness against the lexicographically least minimum dominating set
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 13)
        inst = CirculantInstance(n, rng.sample(range(1, n), rng.randint(1, min(n - 1, 3))))
        if math.gcd(n, *inst.connection) > 1:
            continue
        gamma, witness = domination_number(inst)
        assert gamma == _brute_gamma(inst), (n, inst.connection)
        best = min(c for c in combinations(range(n), gamma) if is_dominating(inst, c))
        assert witness == best, (n, inst.connection)
        checked += 1


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


@pytest.mark.parametrize("els,period,block", [
    ([-9, 3], 60, (0, 1, 2, 6, 7, 8)),  # 24 vertices, {0,1,2,6,7,8} + 15k
    ([1, 10], 110, (0, 2, 5, 8)),  # 40 vertices, {0,2,5,8} + 11k
])
def test_period_identity_past_cross_check_cap(els, period, block):
    # the first periods above verify-paper's cross-check cap of 56; without
    # the failed-state table these solves took 10-25 s each.  The witness is
    # the one found before the table: it skips only subtrees with no cover
    s = GeneratorSet(els)
    cert = domination_ratio(s)
    assert cert.period == period
    gamma, witness = domination_number(residues(s, period), n_max=period)
    assert gamma == cert.ratio * period
    step = period * len(block) // gamma
    assert witness == tuple(sorted(x + k for x in block for k in range(0, period, step)))


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    """`code` run under python -O against this tree's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_search_failure_raises_under_optimize_flag():
    # k = n always dominates, so a search finding nothing is an internal
    # error; it must say so under python -O too, not fail later on None,
    # on the witness path and on the scan's gamma-only path alike.  The
    # scanned set is one wider than the window DP's rule, so the scan runs
    # the branch and bound
    out = _run_optimized("""
from domrat import circulant
from domrat.core import GeneratorSet
circulant._exists_cover = lambda *args: None
wide = circulant._WINDOW_MAX_C + 1
for solve in (lambda: circulant.domination_number(circulant.CirculantInstance(5, [1])),
              lambda: circulant.oracle_scan(GeneratorSet([1, wide]), wide + 1)):
    try:
        solve()
    except AssertionError as err:
        print("raised", err)
""")
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised") for line in lines), out.stderr


def test_scan_certificate_refuses_bad_lift_under_optimize_flag():
    # {-6,6}, c = 12, is scanned by the branch and bound.  It first splits
    # at n = 8 (C = {2,6}, g = 2); a lift that drops the coset 2Z_8 has too
    # few vertices, and a lift to gamma consecutive vertices has the right
    # size but leaves Z_7 undominated
    assert GeneratorSet([-6, 6]).c > circulant._WINDOW_MAX_C
    out = _run_optimized("""
from domrat import circulant
from domrat.core import GeneratorSet
from domrat.errors import CertificateError
lift = circulant._lift_cover
for bad in (lambda found, g: {v for v in lift(found, g) if g == 1 or v % g},
            lambda found, g: set(range(g * (len(found) + 1)))):
    circulant._lift_cover = bad
    try:
        circulant.oracle_scan(GeneratorSet([-6, 6]), 27, n_max=27)
    except CertificateError as err:
        print("raised", err)
""")
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised") for line in lines), out.stderr
    assert "of Z_8 " in lines[0] and "of Z_7 " in lines[1], lines


def test_window_scan_certificate_refuses_bad_cover_under_optimize_flag():
    # a DP that drops one member of one cover or of every cover, or that
    # understates gamma with or without a member less, must not get its
    # gamma through: the size check and the domination check each catch one
    out = _run_optimized("""
from domrat import circulant
from domrat.core import GeneratorSet
from domrat.errors import CertificateError
scan = circulant._window_scan
def drop_at(at):
    return lambda s, n_limit: [(n, g, cover[1:] if n in at else cover)
                               for n, g, cover in scan(s, n_limit)]
def understate(drop):
    return lambda s, n_limit: [(n, g - 1, cover[drop:]) for n, g, cover in scan(s, n_limit)]
for bad in (drop_at({11}), drop_at(range(28)), understate(1), understate(0)):
    circulant._window_scan = bad
    try:
        circulant.oracle_scan(GeneratorSet([-3, 2]), 27, n_max=27)
    except CertificateError as err:
        print("raised", err)
""")
    lines = out.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("raised") for line in lines), out.stderr
    assert "of Z_11 " in lines[0] and all("of Z_4 " in line for line in lines[1:]), lines


def _table_entries(monkeypatch, inst) -> tuple[int, tuple]:
    """Entries of the failed-state table at the end of domination_number,
    and its answer."""
    tables = []
    search = circulant._exists_cover

    def spy(*args):
        tables.append(args[5])
        return search(*args)

    monkeypatch.setattr(circulant, "_exists_cover", spy)
    answer = domination_number(inst)
    monkeypatch.setattr(circulant, "_exists_cover", search)
    assert all(t is tables[0] for t in tables)  # one table per solve
    return len(tables[0]), answer


def test_failed_state_table_budget(monkeypatch):
    # a solve whose table ends with exactly the budget answers; one entry
    # less and it is refused, on the witness path and on the scan's branch
    # and bound alike
    inst = CirculantInstance(20, [1, 3])
    entries, answer = _table_entries(monkeypatch, inst)
    assert entries > 10
    monkeypatch.setattr(circulant, "_FAILED_STATES_MAX", entries)
    assert domination_number(inst) == answer
    monkeypatch.setattr(circulant, "_FAILED_STATES_MAX", entries - 1)
    with pytest.raises(CapExceededError) as err:
        domination_number(inst)
    assert (err.value.what, err.value.value, err.value.cap) == (
        "failed states", entries, entries - 1)
    monkeypatch.setattr(circulant, "_FAILED_STATES_MAX", 3)
    with pytest.raises(CapExceededError) as err:
        oracle_scan(GeneratorSet([-5, 6]), 20, n_max=20)
    assert str(err.value) == "failed states=4 exceeds cap 3"


def test_witness_self_check(monkeypatch):
    # with every vertex claimed to cover all of Z_n, vertex 0 alone passes
    # the search; the check that does not read the masks must refuse it
    monkeypatch.setattr(circulant, "_cover_masks",
                        lambda inst: [(1 << inst.n) - 1] * inst.n)
    with pytest.raises(CertificateError):
        domination_number(CirculantInstance(8, [1, 2]))
