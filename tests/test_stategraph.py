import functools
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrat import stategraph
from domrat.circulant import domination_number, ratio_oracle, residues
from domrat.core import GeneratorSet, PeriodicSet, coverage_counts, verify_dominating
from domrat.errors import CapExceededError, CertificateError, InputError
from domrat.formulas import cong_family, eds_predicted
from domrat.stategraph import (
    StateGraph,
    build_state_graph,
    domination_ratio,
    eds_exists,
    min_mean_cycle,
    state_elements,
    state_of,
)

from oracles import (
    all_transitions_naive,
    brute_canonical_cycle,
    brute_small_period_exact_cover,
    exact_transitions_naive,
    first_closed_walk,
    first_exact_cycle_naive,
    full_state,
    hits_no_position_twice,
    is_edge,
    is_transition,
    karp_min_mean,
    pointer_cycles,
    pred_cycle_mean_naive,
    same_set_as,
    scale,
    states,
    submask_min_naive,
    subset_reduce_per_bit,
    successors,
    supermask_max_naive,
    tight_cycle_nodes_naive,
    value_iteration_naive,
)


def test_state_helpers():
    assert state_elements(0b1011) == (1, 2, 4)
    assert state_of([1, 2, 4]) == 0b1011
    assert state_of([]) == 0


def test_is_transition_examples():
    s = GeneratorSet([1, 2])
    assert is_transition(state_of([1]), state_of([2]), s)
    assert not is_transition(0, 0, s)
    with pytest.raises(InputError):
        is_transition(0, 1 << 5, s)  # stray bits above c=2
    with pytest.raises(InputError):
        is_transition(0, 0, GeneratorSet([]))


@pytest.mark.parametrize("els", [[1], [1, 2], [1, -2], [2, 3], [1, 5],
                                 [-2, -3], [1, 2, -3], [3, -3], [2, -4],
                                 [1, -5], [4, 4 - 8]])
def test_full_state_always_a_successor(els):
    s = GeneratorSet(els)
    full = (1 << s.c) - 1
    for t in range(1 << s.c):
        assert is_transition(t, full, s)


@pytest.mark.parametrize("els", [[1], [2], [1, 2], [1, -2], [2, -3], [1, 5],
                                 [2, 3, -1], [3, -3]])
def test_graph_edges_match_naive_definition(els):
    s = GeneratorSet(els)
    g = build_state_graph(s)
    naive = all_transitions_naive(g, is_transition, s)
    implicit = {(t, u) for t in states(g) for u in successors(g, t)}
    assert implicit == naive
    for t in states(g):
        for u in states(g):
            assert is_edge(g, t, u) == ((t, u) in naive)


def test_build_graph_examples():
    g = build_state_graph(GeneratorSet([1, 2]))
    assert g.n_states == 4
    assert 0 in successors(g, full_state(g))  # full may be followed by empty

    g1 = build_state_graph(GeneratorSet([1]))
    assert g1.n_states == 2
    edges = {(t, u) for t in states(g1) for u in successors(g1, t)}
    assert edges == {(1, 1), (1, 0), (0, 1)}

    with pytest.raises(InputError):
        build_state_graph(GeneratorSet([]))


def test_build_graph_cap():
    with pytest.raises(CapExceededError) as err:
        build_state_graph(GeneratorSet([1, 9]), c_max=8)
    assert "c=9" in str(err.value) and "8" in str(err.value)


def test_min_mean_cycle_examples():
    mean, cycle = min_mean_cycle(build_state_graph(GeneratorSet([1, 2])))
    assert mean == Fraction(2, 3)
    assert cycle == (0, 1, 2)  # empty, {1}, {2}
    assert sum(bin(t).count("1") for t in cycle) == 2

    mean, cycle = min_mean_cycle(build_state_graph(GeneratorSet([1])))
    assert mean == Fraction(1, 2)
    assert cycle == (0, 1)


def _self_loop_graph():
    # doctored graph: every state points only at the full state, so the
    # unique cycle is the full-state self-loop of mean c = 2
    uncovered = np.full(4, 3, dtype=np.int64)
    covers = np.array([0, 0, 0, 3], dtype=np.int64)
    weights = np.array([0, 1, 1, 2], dtype=np.int64)
    return StateGraph(2, uncovered, covers, weights)


def test_min_mean_cycle_self_loop_fixture():
    mean, cycle = min_mean_cycle(_self_loop_graph())
    assert mean == Fraction(2)
    assert cycle == (3,)


def test_min_mean_cycle_rejects_acyclic_fixture():
    uncovered = np.full(4, 3, dtype=np.int64)
    covers = np.zeros(4, dtype=np.int64)
    weights = np.array([0, 1, 1, 2], dtype=np.int64)
    with pytest.raises(InputError):
        min_mean_cycle(StateGraph(2, uncovered, covers, weights))


# ---------------------------------------------------------------------------
# Howard's policy iteration (below 2^14 states) against the threshold tests


def _count_calls(monkeypatch, name):
    """A list that gains an entry at every call of stategraph.<name>."""
    calls = []
    fn = getattr(stategraph, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(stategraph, name, counted)
    return calls


def _howard_and_threshold(monkeypatch, g):
    """min_mean_cycle of g by Howard's policy iteration and by the threshold
    tests, each chosen through the dispatch's size."""
    howard = _count_calls(monkeypatch, "_howard")
    tests = _count_calls(monkeypatch, "_test_threshold")
    with monkeypatch.context() as m:
        m.setattr(stategraph, "_SPARSE_MIN_STATES", g.n_states + 1)
        got = min_mean_cycle(g)
    assert (len(howard), len(tests)) == (1, 0)
    with monkeypatch.context() as m:
        m.setattr(stategraph, "_SPARSE_MIN_STATES", 0)
        want = min_mean_cycle(g)
    assert len(howard) == 1 and tests
    return got, want


def test_min_mean_cycle_dispatch(monkeypatch):
    # Howard below 2^14 states, the threshold tests from there on
    for els, howard_runs in [([1, 13], 1), ([-12, 1], 1), ([1, 14], 0), ([2, -12], 0)]:
        howard = _count_calls(monkeypatch, "_howard")
        tests = _count_calls(monkeypatch, "_test_threshold")
        min_mean_cycle(build_state_graph(GeneratorSet(els), c_max=14))
        assert (len(howard), bool(tests)) == (howard_runs, not howard_runs)
        monkeypatch.undo()


def _swarm_sets():
    """perfbench's ratio_swarm sets, each with its negation: 1-3 elements
    from +-8 with c <= 12 (its 572 solves, less 6 sets equal to their
    negation)."""
    pool = [x for x in range(-8, 9) if x]
    return [GeneratorSet(els) for k in (1, 2, 3) for els in combinations(pool, k)
            if GeneratorSet(els).c <= 12]


def test_howard_matches_threshold_tests_on_swarm_sets(monkeypatch):
    # the graphs of S itself, so the 89 sets with gcd > 1 tie many cycles
    sets = _swarm_sets()
    assert len(sets) == 566 and sum(math.gcd(*s) > 1 for s in sets) == 89
    for s in sets:
        got, want = _howard_and_threshold(monkeypatch, build_state_graph(s, c_max=12))
        assert got == want, s


def _random_sets(seed, count, c_max):
    """count seeded sets of 1-4 elements with c <= c_max, a third of them
    scaled by 2 or 3 (gcd > 1)."""
    rng = np.random.default_rng(seed)
    pool = [x for x in range(-c_max, c_max + 1) if x]
    out = []
    while len(out) < count:
        els = rng.choice(pool, int(rng.integers(1, 5)), replace=False).tolist()
        if len(out) % 3 == 2:
            k = int(rng.integers(2, 4))
            els = [k * x for x in els]
        if GeneratorSet(els).c <= c_max:
            out.append(GeneratorSet(els))
    return out


@pytest.mark.parametrize("els", [[-7, 1, 3], [5, 15], [-8, 8], [13], [1, 12], [-1, 12],
                                 [2, -11], [-6, 3, 7], [4, -9], [1, 16]])
def test_howard_matches_threshold_tests_on_tie_heavy_and_wide_sets(monkeypatch, els):
    # sets whose many minimizing cycles tie, the largest graphs Howard
    # solves as shipped (c = 13), and two past them
    g = build_state_graph(GeneratorSet(els), c_max=16)
    got, want = _howard_and_threshold(monkeypatch, g)
    assert got == want


def test_howard_matches_threshold_tests_on_random_sets(monkeypatch):
    sets = _random_sets(2811, 60, 13)
    assert any(math.gcd(*s) > 1 for s in sets) and max(s.c for s in sets) == 13
    for s in sets:
        got, want = _howard_and_threshold(monkeypatch, build_state_graph(s, c_max=13))
        assert got == want, s


@pytest.mark.parametrize("els", [[1], [2], [1, 2], [1, -2], [2, -3], [2, 3, -1], [3, -3],
                                 [1, 2, -3], [1, -5]])
def test_howard_potentials_are_feasible(els):
    # y(v) <= y(u) + q*w(v) - p on every edge, tight on a cycle of mean mu,
    # and t is the packed transform of y, as the prune reads it
    g = build_state_graph(GeneratorSet(els))
    t = np.empty(g.n_states, dtype=np.int64)
    mu, y = stategraph._howard(g, t, stategraph._transform_plan(t, g.c))
    assert mu == karp_min_mean(g)
    wq = mu.denominator * g.weights - mu.numerator
    slack = {(u, v): int(y[u] + wq[v] - y[v]) for u in states(g) for v in successors(g, u)}
    assert min(slack.values()) == 0
    _, cycle = min_mean_cycle(g)
    assert all(slack[u, v] == 0 for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    raw = np.full(g.n_states, stategraph._INF, dtype=np.int64)
    np.minimum.at(raw, g.uncovered, (y << g.c) | np.arange(g.n_states))
    assert np.array_equal(t, submask_min_naive(raw))


def _naive_policy_evaluation(pred, weights):
    """(mu, y) or (None, rank) as _evaluate_policy defines them, by walking
    each state's pointers."""
    n = len(pred)
    reach = []
    for v in range(n):
        path, seen = [v], {v: 0}
        while (u := int(pred[path[-1]])) not in seen:
            seen[u] = len(path)
            path.append(u)
        cycle = path[seen[u]:]
        reach.append((path[:path.index(min(cycle))], min(cycle), cycle))
    means = [Fraction(int(weights[cyc].sum()), len(cyc)) for *_, cyc in reach]
    if len(set(means)) > 1:
        rank = sorted(set(means))
        return None, [rank.index(m) for m in means]
    mu = means[0]
    wq = [mu.denominator * int(w) - mu.numerator for w in weights]
    return mu, [sum(wq[x] for x in path) for path, *_ in reach]


def test_evaluate_policy_matches_naive_walk():
    rng = np.random.default_rng(2812)
    uniform = 0
    for _ in range(300):
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, n, n)
        if rng.random() < 0.3:
            pred = np.minimum(np.arange(n) + 1, n - 1)  # one chain into a self-loop
            pred[rng.random(n) < 0.05] = 0
        weights = rng.integers(0, 2, n) if rng.random() < 0.5 else np.zeros(n, dtype=np.int64)
        scratch = [np.empty(n, dtype=np.int64) for _ in range(2)]
        mu, val = stategraph._evaluate_policy(pred, weights, *scratch)
        want_mu, want = _naive_policy_evaluation(pred, weights)
        assert mu == want_mu and val.tolist() == want
        uniform += mu is not None
    assert 50 < uniform < 250, uniform  # both outcomes are exercised


@pytest.mark.parametrize("c", range(1, 17))
def test_full_state_is_a_hub(c):
    # what Howard's dispatch checks: the full state has an edge to and from
    # every state, on every graph build_state_graph makes
    sets = [[c], [-c]] + [[a, a - c] for a in range(1, c)]
    sets += [[1, 2, c], [-1, -2, -c], [-1, 1, c - 1]] if c >= 3 else []
    for els in sets:
        g = build_state_graph(GeneratorSet(els), c_max=16)
        assert g.c == c
        assert g.uncovered[-1] == 0 and g.covers[-1] == g.n_states - 1


def test_doctored_fixtures_take_threshold_tests(monkeypatch):
    # neither fixture's full state is a hub, so both keep the threshold tests
    howard = _count_calls(monkeypatch, "_howard")
    tests = _count_calls(monkeypatch, "_test_threshold")
    assert min_mean_cycle(_self_loop_graph()) == (Fraction(2), (3,))
    uncovered = np.full(4, 3, dtype=np.int64)
    covers = np.zeros(4, dtype=np.int64)
    weights = np.array([0, 1, 1, 2], dtype=np.int64)
    with pytest.raises(InputError):
        min_mean_cycle(StateGraph(2, uncovered, covers, weights))
    assert not howard and tests


def test_howard_fault_raises_on_stuck_means(monkeypatch):
    # an evaluation whose means differ though no state has a predecessor of
    # lower rank cannot happen on a hub graph; it must not loop or answer
    monkeypatch.setattr(stategraph, "_evaluate_policy",
                        lambda pred, *_: (None, np.zeros(len(pred), dtype=np.int64)))
    with pytest.raises(AssertionError, match="no state has a predecessor of lower mean"):
        min_mean_cycle(build_state_graph(GeneratorSet([1, 2])))


def test_howard_fault_raises_past_iteration_bound(monkeypatch):
    # an evaluation that never takes in the switches: y stays 0 at mu = 2,
    # so every state lighter than 2 switches again in every round
    monkeypatch.setattr(stategraph, "_evaluate_policy",
                        lambda pred, *_: (Fraction(2), np.zeros(len(pred), dtype=np.int64)))
    with pytest.raises(AssertionError, match="passed 5 iterations"):
        min_mean_cycle(build_state_graph(GeneratorSet([1, 2])))


def test_howard_faults_survive_optimize_flag():
    # the two tests above, rerun with asserts stripped
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_stategraph.py", "-k", "howard_fault_raises"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and "2 passed" in out.stdout, out.stdout + out.stderr


def _scan(pred, weights):
    pred = np.asarray(pred, dtype=np.int64)
    scratch = [np.empty(len(pred), dtype=np.int64) for _ in range(2)]
    return stategraph._scan_pred_cycles(
        pred, np.asarray(weights, dtype=np.int64), *scratch)


# (pred, the nodes the last round improved, weights, a threshold mu above
# every pointer cycle's mean, as in _test_threshold, smallest mean)
_SCAN_FIXTURES = [
    # walks end at nodes without a pointer: no cycle
    ([-1, 0, 1, -1], [2, 3], [0, 0, 0, 0], Fraction(5), None),
    # self-loop of weight 1 and a 2-cycle of the same mean, plus mean 3/2
    ([0, 2, 1, 4, 3], [0, 1, 3], [1, 1, 1, 1, 2], Fraction(5), Fraction(1)),
    # a 40-node tail from node 0 into the pointer cycle 40 -> 41 -> 42 -> 40
    (list(range(1, 41)) + [41, 42, 40], [0], [0] * 40 + [1, 0, 1],
     Fraction(5), Fraction(2, 3)),
    # the mean-0 cycle {0, 1} holds no improved node and is still found
    ([1, 0, 3, 2, 2], [4], [0, 0, 2, 1, 0], Fraction(5), Fraction(0)),
    # a 40-node chain from node 0 that ends at a node without a pointer
    (list(range(1, 40)) + [-1], [0], [1] * 40, Fraction(5), None),
    # a self-loop, though nothing improved
    ([0], [], [0], Fraction(1), Fraction(0)),
    # every walk ends at one of two nodes without a pointer
    ([-1, 0, 1, 2, -1, 4, 5, 1], [3, 6, 7], [0] * 8, Fraction(5), None),
    # a real self-loop at node 2; every other walk ends at a node without one
    ([-1, 0, 2, 2, 0, -1, 5], [1, 3, 6], [0, 0, 1, 0, 0, 0, 0], Fraction(5),
     Fraction(1)),
    # the same self-loop, reached from no improved node
    ([-1, 0, 2, 2, 0, -1, 5], [1, 4, 6], [0, 0, 1, 0, 0, 0, 0], Fraction(5),
     Fraction(1)),
    # tails of exactly 8 and 9 nodes from node 0 into a 2-cycle of mean 1/2:
    # the image of the pointer map keeps a tail node for 7 and 8 steps
    (list(range(1, 9)) + [9, 8], [0], [0] * 8 + [1, 0], Fraction(5), Fraction(1, 2)),
    (list(range(1, 10)) + [10, 9], [0], [0] * 9 + [1, 0], Fraction(5),
     Fraction(1, 2)),
]


def _pointer_cycle_mean(pred, weights, node):
    """Mean of the pointer cycle through node, or None if the pointer walk
    from node never returns to it."""
    cycle, v = [node], int(pred[node])
    while v >= 0 and v != node and len(cycle) <= len(pred):
        cycle.append(v)
        v = int(pred[v])
    if v != node:
        return None
    return Fraction(sum(int(weights[x]) for x in cycle), len(cycle))


def _check_scan(pred, weights, want):
    """The scan returns the smallest mean, want, with the oracle's node, a
    node on a pointer cycle of exactly that mean."""
    got = _scan(pred, weights)
    assert got == pred_cycle_mean_naive(pred, weights)
    if want is None:
        assert got is None
        return got
    mean, node = got
    assert mean == want
    assert _pointer_cycle_mean(pred, weights, node) == want
    return got


def _every_cycle_improved(pred, improved) -> bool:
    return all(np.asarray(improved)[cyc].any() for cyc in pointer_cycles(pred))


@pytest.mark.parametrize("pred,starts,weights,mu,want", _SCAN_FIXTURES)
def test_pred_cycle_scan_fixtures(pred, starts, weights, mu, want):
    got = _check_scan(pred, weights, want)
    assert pred_cycle_mean_naive(pred, weights, mu) == got
    # when every cycle holds an improved node, as in _test_threshold, the
    # walks from the improved nodes alone find the same
    improved = np.zeros(len(pred), dtype=bool)
    improved[starts] = True
    if _every_cycle_improved(pred, improved):
        assert pred_cycle_mean_naive(pred, weights, mu, starts) == got


def test_pred_cycle_scan_matches_naive_walk():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n = int(rng.integers(1, 70))
        pred = rng.integers(0, n, n)
        pred[rng.random(n) < rng.random() * 0.3] = -1
        weights = rng.integers(0, 4, n)
        want = pred_cycle_mean_naive(pred, weights)
        _check_scan(pred, weights, None if want is None else want[0])


def test_pred_cycle_scan_long_tails():
    # mostly short forward steps, so walks run long tails into few cycles
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        pred = np.minimum(np.arange(n) + rng.integers(1, 3, n), n - 1)
        back = rng.random(n) < 0.02
        pred[back] = rng.integers(0, n, int(back.sum()))
        pred[rng.random(n) < 0.01] = -1
        weights = rng.integers(0, 4, n)
        want = pred_cycle_mean_naive(pred, weights)
        _check_scan(pred, weights, None if want is None else want[0])


def test_pointer_cycle_nodes_on_partial_injections():
    # eds_exists's successor map is a partial injection (see
    # test_exact_transitions_are_a_function), and its witness is the orbit
    # of the least cycle node: the cycle a walk from each node in turn
    # closes first, since no walk from off a cycle runs onto one
    rng = np.random.default_rng(2026)
    closed = 0
    for _ in range(400):
        n = int(rng.integers(1, 80))
        f = rng.permutation(n)
        f[rng.random(n) < rng.random()] = -1
        scratch = [np.empty(n, dtype=np.int64) for _ in range(2)]
        nodes = stategraph._pointer_cycle_nodes(f, *scratch)
        assert nodes.tolist() == sorted(v for cyc in pointer_cycles(f) for v in cyc)
        want = first_closed_walk(f.tolist())
        assert (stategraph._orbit(f, int(nodes[0])) if nodes.size else None) == want
        closed += want is not None
    assert 100 < closed < 390, closed  # both outcomes are exercised


def _threshold_test(g, mu, seed=None):
    """_test_threshold on a fresh buffer and its plan, as min_mean_cycle
    builds them."""
    t = np.empty(g.n_states, dtype=np.int64)
    return stategraph._test_threshold(g, t, stategraph._transform_plan(t, g.c), mu, seed)


def _threshold_calls(g):
    """min_mean_cycle's schedule as the (mu, seed) of each threshold test,
    checking each cycle a test returns; the last test certifies."""
    calls = [(Fraction(g.c + 1), None)]
    while True:
        r = _threshold_test(g, *calls[-1])
        if r.converged:
            return calls
        assert all(is_edge(g, u, v) for u, v in zip(r.cycle, r.cycle[1:] + r.cycle[:1]))
        assert Fraction(int(g.weights[r.cycle].sum()), len(r.cycle)) == r.mean < calls[-1][0]
        calls.append((r.mean, r.cycle))


def _threshold_schedule(g):
    """The final mu and the cycle the last non-certifying test found."""
    return _threshold_calls(g)[-1]


def _assert_seeded_matches_unseeded(g):
    mu, found = _threshold_schedule(g)
    plain = _threshold_test(g, mu)
    assert plain.converged
    for seed in (found, list(min_mean_cycle(g)[1])):
        seeded = _threshold_test(g, mu, seed)
        assert seeded.converged and np.array_equal(seeded.y, plain.y)


# sets of size 1-3 from +-6 with c <= 10, and two with c = 12
_SMALL_SETS = [GeneratorSet(els) for k in (1, 2, 3)
               for els in combinations([x for x in range(-6, 7) if x], k)]
_SMALL_SETS = [s for s in _SMALL_SETS if s.c <= 10]
_SMALL_SETS += [GeneratorSet([1, -11]), GeneratorSet([2, -5, 7])]


def test_seeded_threshold_matches_unseeded():
    # the certifying test's potentials must not depend on the seed, since
    # the canonical cycle is read off them
    for s in _SMALL_SETS:
        _assert_seeded_matches_unseeded(build_state_graph(s, c_max=12))


def test_seeded_threshold_self_loop_fixture():
    # the first test finds the full-state self-loop (L = 1) and seeds the second
    g = _self_loop_graph()
    assert _threshold_schedule(g) == (Fraction(2), [3])
    _assert_seeded_matches_unseeded(g)


# the sparse-tail switch as _SPARSE_SHARE: as shipped, every round after the
# first, and never (a round improves at least one state)
_TAIL_DEFAULT = stategraph._SPARSE_SHARE
_TAIL_FORCED = 0
_TAIL_OFF = 1 << 32  # above every n the tests use, with no int64 overflow


def _set_tail(monkeypatch, share):
    monkeypatch.setattr(stategraph, "_SPARSE_SHARE", share)


def _count_sparse_rounds(monkeypatch):
    """The sparse threshold rounds run from now on, one entry each."""
    return _count_calls(monkeypatch, "_lower_supermasks")


@pytest.fixture
def sparse_rounds(monkeypatch):
    """The sparse threshold rounds run during the test, one entry each."""
    return _count_sparse_rounds(monkeypatch)


def _compare_tail(monkeypatch, g, calls, tail=_TAIL_FORCED):
    """Each threshold test (mu, seed) in calls returns the same with the
    sparse tail switched by `tail` as with it off."""
    for mu, seed in calls:
        _set_tail(monkeypatch, tail)
        on = _threshold_test(g, mu, seed)
        _set_tail(monkeypatch, _TAIL_OFF)
        off = _threshold_test(g, mu, seed)
        assert (on.converged, on.mean, on.cycle) == (off.converged, off.mean, off.cycle)
        assert (on.y is None) == (off.y is None)
        assert off.y is None or np.array_equal(on.y, off.y)


def _schedule_and_unseeded(g):
    calls = _threshold_calls(g)
    return calls + [(calls[-1][0], None)]


@pytest.mark.parametrize("c", range(1, 11))
def test_lower_supermasks_matches_transform(c):
    # lowering a transform at the supermasks of some (mask, key) pairs is
    # the transform of the raw minima lowered at those masks
    rng = np.random.default_rng(100 + c)
    n = 1 << c
    raw = rng.integers(0, 1 << 40, n)
    raw[rng.random(n) < 0.3] = stategraph._INF
    t = raw.copy()
    stategraph._subset_transform(stategraph._transform_plan(t, c), np.minimum)
    masks = rng.integers(0, n, int(rng.integers(0, 2 * n)))
    keys = rng.integers(0, 1 << 40, len(masks))
    np.minimum.at(raw, masks, keys)
    want = raw.copy()
    stategraph._subset_transform(stategraph._transform_plan(want, c), np.minimum)
    before = t.copy()
    fell = stategraph._lower_supermasks(t, masks, keys, c)
    assert np.array_equal(t, want)
    assert set(fell.tolist()) == set(np.flatnonzero(want < before).tolist())


def test_sparse_tail_matches_dense_small_c(monkeypatch, sparse_rounds):
    # every round after the first sparse, against none: every test of the
    # schedule, and the certifying test unseeded
    # {1,12}'s certifying test runs 26 rounds
    for s in _SMALL_SETS + [GeneratorSet([1, 12])]:
        g = build_state_graph(s, c_max=12)
        _compare_tail(monkeypatch, g, _schedule_and_unseeded(g))
    assert len(sparse_rounds) > 1000


@pytest.mark.parametrize("els", [[1, 16], [1, 18], [-1, 17]])
def test_sparse_tail_matches_dense_wide(monkeypatch, sparse_rounds, els):
    # the shipped rule, against the tail off, where the benchmark runs it
    g = build_state_graph(GeneratorSet(els), c_max=18)
    _compare_tail(monkeypatch, g, _schedule_and_unseeded(g), _TAIL_DEFAULT)
    assert sparse_rounds


def _threshold_frame():
    """Locals of the innermost _test_threshold call on the stack, or None."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not stategraph._test_threshold.__code__:
        frame = frame.f_back
    return None if frame is None else frame.f_locals


def _record_scans(monkeypatch):
    """Every _scan_pred_cycles call from _test_threshold from now on, as
    (pred, improved, weights, mu, result): improved marks the nodes whose y
    fell in the round the scan ends, and mu is the test's threshold.  y is
    copied as each round starts, when its transform or supermask lowering
    runs."""
    scans, start = [], {}

    def at_round_start(fn):
        def wrapped(*args):
            if (local := _threshold_frame()) is not None:
                start["y"] = local["y"].copy()
            return fn(*args)
        return wrapped

    for name in ("_subset_transform", "_lower_supermasks"):
        monkeypatch.setattr(stategraph, name, at_round_start(getattr(stategraph, name)))
    scan = stategraph._scan_pred_cycles

    def recorded(pred, weights, *scratch):
        local = _threshold_frame()
        improved = local["y"] < start["y"]
        got = scan(pred, weights, *scratch)
        scans.append((pred.copy(), improved, weights, local["mu"], got))
        return got

    monkeypatch.setattr(stategraph, "_scan_pred_cycles", recorded)
    return scans


@pytest.fixture(scope="module")
def small_c_scans():
    """The scans of every threshold test of the schedule, plus the
    certifying test unseeded, with the sparse tail forced and off."""
    with pytest.MonkeyPatch.context() as mp:
        sparse = _count_sparse_rounds(mp)
        scans = _record_scans(mp)
        for s in _SMALL_SETS + [GeneratorSet([1, 12])]:
            g = build_state_graph(s, c_max=12)
            _compare_tail(mp, g, _schedule_and_unseeded(g))
    assert len(sparse) > 1000
    assert any(r is None for *_, r in scans) and any(r is not None for *_, r in scans)
    return scans


def test_every_pointer_cycle_holds_an_improved_node(small_c_scans):
    # what lets the scan look at every cycle: each pointer cycle alive after
    # a round holds a node that round improved
    for pred, improved, *_ in small_c_scans:
        assert _every_cycle_improved(pred, improved)


def test_every_pointer_cycle_is_below_mu(small_c_scans):
    # what lets the scan take every pointer cycle's mean without comparing
    # it to mu: pointers are set only on strict improvement
    for pred, _, weights, mu, _ in small_c_scans:
        for cyc in pointer_cycles(pred):
            assert Fraction(int(weights[cyc].sum()), len(cyc)) < mu


def test_scan_matches_walks_from_improved_nodes(small_c_scans):
    # the scan over all cycles returns what walking the pointers from the
    # improved nodes alone finds below mu
    for pred, improved, weights, mu, got in small_c_scans:
        assert got == pred_cycle_mean_naive(pred, weights, mu, np.flatnonzero(improved))


# {1,-2} at mu = 121/100, unseeded: y's minimum falls in round 1 and again
# in round 6, and the test runs 8 rounds before its scan finds a cycle
_FIXTURE = (GeneratorSet([1, -2]), Fraction(121, 100))


def test_sparse_tail_rebase_fixture(monkeypatch, sparse_rounds):
    # with the tail forced, round 7 is sparse: y's minimum fell in round 6,
    # and the keys kept from earlier rounds must stay exact across that fall
    s, mu = _FIXTURE
    g = build_state_graph(s)
    minima = [min(y) for y in value_iteration_naive(g, mu)]
    assert minima[6] < minima[5] == minima[1] < minima[0]
    _compare_tail(monkeypatch, g, [(mu, None)])
    assert len(sparse_rounds) == 7  # rounds 2-8


def test_sparse_tail_span_guard_fixture(monkeypatch, sparse_rounds):
    # the sentinel shrunk to the span round 7 checks (after the fall in
    # round 6), above every earlier span: a sparse round 7 must raise
    s, mu = _FIXTURE
    g = build_state_graph(s)
    spans = [(max(y) - min(y) + 1) * g.n_states for y in value_iteration_naive(g, mu)]
    assert max(spans[:6]) < spans[6]
    monkeypatch.setattr(stategraph, "_INF", np.int64(spans[6]))
    for tail in (_TAIL_FORCED, _TAIL_OFF):
        _set_tail(monkeypatch, tail)
        with pytest.raises(CapExceededError):
            _threshold_test(g, mu)
    assert len(sparse_rounds) == 5  # rounds 2-6, with the tail forced


def test_sparse_tail_converges_in_sparse_round(monkeypatch, sparse_rounds):
    # {1,-2}'s certifying test unseeded changes y in rounds 1-4 only, so
    # with the tail forced round 5 is sparse and detects convergence
    g = build_state_graph(GeneratorSet([1, -2]))
    mu = min_mean_cycle(g)[0]
    assert len(value_iteration_naive(g, mu)) == 5
    _compare_tail(monkeypatch, g, [(mu, None)])
    assert len(sparse_rounds) == 4  # rounds 2-5


def _count_transforms(monkeypatch):
    """A list that gains an entry at every _subset_transform call."""
    return _count_calls(monkeypatch, "_subset_transform")


def test_sparse_tail_transform_count(monkeypatch):
    # a count, not a timing: {1,18}'s certifying test runs 38 rounds, so
    # with every round dense min_mean_cycle runs 42 transforms (1 + 38
    # rounds, 3 in _cycle_nodes, which reuses the certifying round's); the
    # tail leaves 9
    calls = _count_transforms(monkeypatch)
    g = build_state_graph(GeneratorSet([1, 18]), c_max=18)
    assert min_mean_cycle(g)[0] == Fraction(216, 35)
    assert len(calls) <= 9


@pytest.mark.parametrize("els", [[1, -2], [2, -5, 7], [-7, -6, 5], [1, 16]])
def test_two_transform_plans_per_solve(monkeypatch, els):
    # every policy iteration or threshold test and the prune run the two
    # plans min_mean_cycle builds, one on its buffer and one on its
    # reversal; {-7,-6,5} (c = 12) runs Howard, {1,16} a sparse tail
    built = _count_calls(monkeypatch, "_transform_plan")
    min_mean_cycle(build_state_graph(GeneratorSet(els), c_max=16))
    assert len(built) == 2


def _cycle_nodes_inputs(g):
    """The graph, converged y, tgt and packed transform t that min_mean_cycle
    hands _cycle_nodes, with t's two plans; t is a copy, since the prune
    overwrites its own, and the plans are built on the copy."""
    seen = []
    cycle_nodes = stategraph._cycle_nodes

    def recorded(g, y, tgt, t, *plans):
        seen.append((g, y, tgt, t.copy()))
        return cycle_nodes(g, y, tgt, t, *plans)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stategraph, "_cycle_nodes", recorded)
        min_mean_cycle(g)
    ((g, y, tgt, t),) = seen
    plan = stategraph._transform_plan
    return g, y, tgt, t, plan(t, g.c), plan(t[::-1], g.c)


def _assert_cycle_nodes_match_naive(g):
    args = _cycle_nodes_inputs(g)
    nodes = stategraph._cycle_nodes(*args)
    want_nodes, want_edges = tight_cycle_nodes_naive(*args[:3])
    assert nodes.tolist() == want_nodes
    preds = stategraph._TightPreds(*args[:3], nodes)
    edges = [(int(nodes[u]), int(nodes[v])) for v in range(len(nodes)) for u in preds[v]]
    assert sorted(edges) == want_edges


def test_cycle_nodes_match_naive_small_c():
    for s in _SMALL_SETS:
        if s.c <= 10:
            _assert_cycle_nodes_match_naive(build_state_graph(s))


@pytest.mark.parametrize("els,dense", [([1, 16], 2), ([-18, -1], 1)])
def test_cycle_nodes_match_naive_wide(monkeypatch, els, dense):
    # the prune goes sparse after `dense` iterations of two transforms each,
    # less the first iteration's predecessor half, read off the certifying
    # round's transform
    g = build_state_graph(GeneratorSet(els), c_max=18)
    args = _cycle_nodes_inputs(g)
    calls = _count_transforms(monkeypatch)
    stategraph._cycle_nodes(*args)
    assert len(calls) == 2 * dense - 1
    _assert_cycle_nodes_match_naive(g)


def test_cycle_nodes_transform_count(monkeypatch):
    # a count, not a timing: with every iteration dense, {1,16}'s prune runs
    # 13 iterations, 25 transforms
    g = build_state_graph(GeneratorSet([1, 16]), c_max=16)
    args = _cycle_nodes_inputs(g)
    calls = _count_transforms(monkeypatch)
    stategraph._cycle_nodes(*args)
    assert len(calls) <= 4


def _transform_input(c):
    """2^c random keys, with sentinels as the engine uses them."""
    rng = np.random.default_rng(c)
    n = 1 << c
    t = rng.integers(-(1 << 62), 1 << 62, n)
    t[rng.random(n) < 0.3] = stategraph._INF
    t[rng.random(n) < 0.1] = -stategraph._INF
    return t


@functools.cache
def _transform_wants(c):
    """_transform_input(c), its submask minima and its supermask maxima."""
    t = _transform_input(c)
    if c <= 14:
        return t, submask_min_naive(t), supermask_max_naive(t)
    return t, subset_reduce_per_bit(t, np.minimum), subset_reduce_per_bit(t, np.maximum, up=True)


def _assert_subset_transforms(t, c, want_low, want_high):
    """_subset_transform gives want_low for submask minima and, on the
    reversed view, want_high for supermask maxima, and leaves numpy's ufunc
    buffer size as it found it."""
    bufsize = np.getbufsize()
    low = t.copy()
    stategraph._subset_transform(stategraph._transform_plan(low, c), np.minimum)
    assert np.array_equal(low, want_low)
    high = t.copy()
    stategraph._subset_transform(stategraph._transform_plan(high[::-1], c), np.maximum)
    assert np.array_equal(high, want_high)
    assert np.getbufsize() == bufsize


@pytest.mark.parametrize("c", range(1, 15))
def test_subset_transform_matches_naive(monkeypatch, c):
    # c = 1..14 runs bit 0, the column form of bits 1-3 and the block form
    # of bits >= 4 at several sizes: the plain loop to c = 12, the small
    # buffer from c = 13.  For c <= 12 the buffered path runs again with
    # blocks of 2^2, 2^3 and 2^4 entries, so that several blocks run
    # before the higher bits
    t, want_low, want_high = _transform_wants(c)
    _assert_subset_transforms(t, c, want_low, want_high)
    if c <= 12:
        monkeypatch.setattr(stategraph, "_UNBUFFERED_MIN_C", 1)
        for block_bits in (2, 3, 4):
            monkeypatch.setattr(stategraph, "_BLOCK_BITS", block_bits)
            _assert_subset_transforms(t, c, want_low, want_high)


@pytest.mark.parametrize("c", [18, 19])
def test_subset_transform_matches_per_bit_wide(c):
    # two and four blocks of the shipped 2^17 entries, then the higher bits
    # over the whole array, against the plain one-bit-at-a-time form
    assert stategraph._BLOCK_BITS == 17
    t, want_low, want_high = _transform_wants(c)
    _assert_subset_transforms(t, c, want_low, want_high)


@pytest.mark.parametrize("c", [*range(1, 15), 18])
def test_transform_plan_aliases_its_buffer(monkeypatch, c):
    # a reshape that silently copied would give a transform that writes
    # nowhere: every operand of both plans must be a view of the buffer,
    # and one plan must serve a refilled buffer again, as every threshold
    # test of a solve reuses it.  For c <= 12 the blocked settings of
    # test_subset_transform_matches_naive run too
    t0, want_low, want_high = _transform_wants(c)
    settings = [(stategraph._UNBUFFERED_MIN_C, stategraph._BLOCK_BITS)]
    if c <= 12:
        settings += [(1, block_bits) for block_bits in (2, 3, 4)]
    t = np.empty_like(t0)
    for unbuffered_min_c, block_bits in settings:
        monkeypatch.setattr(stategraph, "_UNBUFFERED_MIN_C", unbuffered_min_c)
        monkeypatch.setattr(stategraph, "_BLOCK_BITS", block_bits)
        for view, ufunc, want in ((t, np.minimum, want_low), (t[::-1], np.maximum, want_high)):
            plan = stategraph._transform_plan(view, c)
            for out, other, _ in plan[1]:
                assert np.shares_memory(out, t) and np.shares_memory(other, t)
            for _ in range(2):
                t[:] = t0
                stategraph._subset_transform(plan, ufunc)
                assert np.array_equal(t, want)


@pytest.mark.parametrize("els,want", [
    ([1, 2], Fraction(1, 3)),
    ([1, 4], Fraction(2, 5)),
    ([1, -2], Fraction(2, 5)),
    ([3], Fraction(1, 2)),
])
def test_domination_ratio_known_values(els, want):
    assert domination_ratio(GeneratorSet(els)).ratio == want


def test_domination_ratio_against_circulant_oracle():
    s = GeneratorSet([2, 3])
    cert = domination_ratio(s)
    bound = ratio_oracle(s, max(cert.period, 4), n_max=40)
    assert bound == cert.ratio
    gamma, _ = domination_number(residues(s, cert.period), n_max=40)
    assert gamma == cert.ratio * cert.period


@pytest.mark.parametrize("els", [[1, 2], [1, 4], [2, 3], [1, -2], [2, -3],
                                 [1, 2, 3], [3, -3], [1, -5]])
def test_certificate_invariants(els):
    s = GeneratorSet(els)
    cert = domination_ratio(s)
    assert cert.ratio == Fraction(sum(bin(t).count("1") for t in cert.cycle),
                                  cert.period)
    assert cert.period == len(cert.cycle) * s.c
    assert cert.period <= s.c * (1 << s.c)
    assert cert.witness.period == cert.period
    assert cert.witness.density == cert.ratio
    assert verify_dominating(cert.witness, s)
    # witness residues are exactly the cycle states laid side by side
    expect = set()
    for i, t in enumerate(cert.cycle):
        expect.update(e + i * s.c for e in state_elements(t))
    assert cert.witness.residues == frozenset(expect)


@pytest.mark.parametrize("els", [[1], [2], [-1], [1, 2], [1, -1], [2, 3],
                                 [1, -2], [2, -3], [-2, -3], [1, 2, 3],
                                 [2, -4], [1, 5], [3, -3], [2, 4], [1, 2, -3],
                                 [1, -5], [6], [2, 3, -1], [1, 4], [1, -4],
                                 [3, 4, -2], [5]])
def test_min_mean_cycle_matches_independent_oracle(els):
    s = GeneratorSet(els)
    assert s.c <= 6
    g = build_state_graph(s)
    mean, cycle = min_mean_cycle(g)
    want_mean = karp_min_mean(g)
    assert mean == want_mean
    assert cycle == brute_canonical_cycle(g, want_mean)


@pytest.mark.parametrize("els,want", [
    ([13], (0, 8191)),
    ([14], (0, 16383)),
    ([-8, 8], (0, 255, 65280)),
    ([5, 15], (0, 1023, 31744, 31, 32736)),
])
def test_canonical_cycle_among_many_ties(els, want):
    # gcd > 1 ties many minimizing cycles on S's own graph: for S = {c}
    # every state is on one, so the prune ends at its dense fixpoint with no
    # edge listed, and the search reads every state's tight predecessors.
    # domination_ratio solves S/gcd(S) instead and must lift the same cycle
    s = GeneratorSet(els)
    _, cycle = min_mean_cycle(build_state_graph(s, c_max=16))
    assert cycle == want
    assert domination_ratio(s, c_max=16).cycle == want


@pytest.mark.parametrize("els", [[1, 3], [2, 5], [1, -4], [2, 3, -1], [7]])
def test_negation_symmetry(els):
    s = GeneratorSet(els)
    assert domination_ratio(s).ratio == domination_ratio(s.negate()).ratio


def test_subset_monotonicity():
    for els, extra in [([1, 4], 2), ([2, 3], -1), ([1, -2], 5), ([3], 1)]:
        s = GeneratorSet(els)
        bigger = GeneratorSet(els + [extra])
        assert domination_ratio(bigger).ratio <= domination_ratio(s).ratio


def test_ratio_bounds():
    for els in [[1], [1, 2], [2, 5], [1, -2, 4], [3, 4, -2]]:
        r = domination_ratio(GeneratorSet(els)).ratio
        assert Fraction(1, len(els) + 1) <= r <= Fraction(1, 2)


def _unrolled(cycle, c):
    return PeriodicSet(len(cycle) * c, (e + i * c for i, t in enumerate(cycle)
                                        for e in state_elements(t)))


def _assert_lift_matches_unreduced(s):
    # domination_ratio and eds_exists solve S/gcd(S); min_mean_cycle on S's
    # own graph gives the certificate the ratio must lift to, field by
    # field, and the first exact cycle of the walk over S's own states, from
    # the direct window count, the perfect witness
    g = build_state_graph(s)
    mean, cycle = min_mean_cycle(g)
    cert = domination_ratio(s)
    assert cert.ratio == mean / s.c, s
    assert cert.cycle == cycle, s
    assert cert.witness == _unrolled(cycle, s.c), s
    assert cert.period == len(cycle) * s.c, s
    if s.c <= 12:  # the oracle enumerates pairs of windows
        cycle = first_exact_cycle_naive(s, g.covers)
        exists, witness = eds_exists(s)
        assert exists == (cycle is not None), s
        assert cycle is None or witness == _unrolled(cycle, s.c), s


# the gcd > 1 sets of perfbench's ratio_swarm: elements from +-8, one to
# three of them, c <= 12, S and -S (89 sets, five their own negation)
_SWARM_GCD_SETS = [GeneratorSet(els) for k in (1, 2, 3)
                   for els in combinations([x for x in range(-8, 9) if x], k)
                   if math.gcd(*els) > 1 and GeneratorSet(els).c <= 12]


@pytest.mark.parametrize("d", range(2, 9))
def test_scale_invariance(d):
    bases = [GeneratorSet(els) for els in ([1, 2], [1, -2], [2, 3])]
    bases += [GeneratorSet(x // d for x in s) for s in _SWARM_GCD_SETS
              if math.gcd(*s) == d]
    for s in bases:
        if s.c * d <= 16:
            assert domination_ratio(scale(s, d)).ratio == domination_ratio(s).ratio
            _assert_lift_matches_unreduced(scale(s, d))


def test_lifted_answers_never_build_own_graph(monkeypatch):
    # eds_exists builds no state graph at all; domination_ratio solves
    # {2,28} as {1,14}: a graph above c = 14 would be S's own 2^28 states,
    # which this test must never allocate
    build = stategraph.build_state_graph

    def refused(s, c_max=stategraph.DEFAULT_C_MAX):
        raise AssertionError(f"eds_exists built the graph of {s}")

    def capped(s, c_max=stategraph.DEFAULT_C_MAX):
        if s.c > 14:
            raise AssertionError(f"built the graph of {s}")
        return build(s, c_max)

    monkeypatch.setattr(stategraph, "build_state_graph", refused)
    for els, c_max, period in (([2, 28], 28, 84), ([1, 20], 20, 60)):
        exists, witness = eds_exists(GeneratorSet(els), c_max=c_max)
        assert exists and witness.period == period, els
    monkeypatch.setattr(stategraph, "build_state_graph", capped)
    cert = domination_ratio(GeneratorSet([2, 28]), c_max=28)
    assert cert.ratio == Fraction(1, 3) and cert.period == 84


def test_cap_applies_to_own_c():
    # the lift solves {1} for {16}, but the cap is still checked on c = 16
    for solve in (domination_ratio, eds_exists):
        with pytest.raises(CapExceededError) as err:
            solve(GeneratorSet([16]), c_max=15)
        assert "c=16" in str(err.value)
        with pytest.raises(CapExceededError) as err:
            solve(GeneratorSet([2, 40]), c_max=40)
        assert "c=40" in str(err.value) and "28" in str(err.value)


def test_congruence_families_have_efficient_sets():
    cases = [(1, (0,)), (1, (-1,)), (2, (0, 0)), (2, (1, -1)), (3, (0, 0, 0)),
             (3, (1, 0, -1)), (4, (0, 0, 0, 0)), (4, (1, 0, 0, -1)),
             (4, (-1, 1, 0, 0)), (4, (0, -1, 2, 0))]
    for size, offsets in cases:
        s = cong_family(size, offsets)
        if s.c > 16:
            continue
        assert domination_ratio(s).ratio == Fraction(1, size + 1)
        exists, witness = eds_exists(s)
        assert exists
        assert all(k == 1 for k in coverage_counts(witness, s))


def test_eds_examples():
    s = GeneratorSet([1, 5])
    exists, witness = eds_exists(s)
    assert exists
    # the witness is a translate of the multiples-of-3 pattern
    assert witness.density == Fraction(1, 3)
    assert same_set_as(witness, PeriodicSet(3, {witness.sorted_residues()[0] % 3 or 3}))

    assert eds_exists(GeneratorSet([1, 4])) == (False, None)

    exists, witness = eds_exists(GeneratorSet([2, 4]))
    assert exists
    assert all(k == 1 for k in coverage_counts(witness, GeneratorSet([2, 4])))


@pytest.mark.parametrize("els, period, residues", [
    ([1, 5], 15, {3, 6, 9, 12, 15}),
    ([2, 4], 12, {5, 6, 11, 12}),
    ([-7, -4, 5], 24, {6, 8, 14, 16, 22, 24}),
])
def test_eds_witness_is_the_first_cycle_in_covers_order(els, period, residues):
    # the witness unrolls the first walk, in ascending-covers order of its
    # start, that closes a cycle
    exists, witness = eds_exists(GeneratorSet(els))
    assert exists and witness == PeriodicSet(period, residues)


def test_eds_ratio_link():
    # an exact cover forces the ratio down to 1/(|S|+1)
    for els in [[1, 5], [2, 4], [1, 2], [1, -1]]:
        s = GeneratorSet(els)
        exists, _ = eds_exists(s)
        assert exists
        assert domination_ratio(s).ratio == Fraction(1, len(els) + 1)


@pytest.mark.parametrize("els", [[1, 2], [1, 4], [1, 5], [2, 4], [2, 3],
                                 [1, 3], [1, -2], [3], [1, 2, 3], [2, 3, 4],
                                 [1, -4], [2, -4]])
def test_eds_agrees_with_small_period_brute_force(els):
    s = GeneratorSet(els)
    engine, witness = eds_exists(s)
    brute, _ = brute_small_period_exact_cover(s, coverage_counts, PeriodicSet)
    if brute:
        assert engine
    if engine and witness.period <= 10:
        assert brute


def _has_cycle(edges):
    """Whether a finite edge set holds a directed cycle: drop edges into
    sinks until nothing changes."""
    live = set(edges)
    while True:
        tails = {t for t, _ in live}
        kept = {(t, u) for t, u in live if u in tails}
        if kept == live:
            return bool(live)
        live = kept


@pytest.fixture(scope="module")
def small_exact_transitions():
    """Every set from +-5 with c <= 6, with its exact transitions."""
    pool = [x for x in range(-5, 6) if x]
    sets = [GeneratorSet(els) for k in range(1, len(pool) + 1)
            for els in combinations(pool, k)]
    return [(s, set(exact_transitions_naive(s))) for s in sets if s.c <= 6]


def test_exact_transitions_are_a_function(small_exact_transitions):
    # the lemma eds_exists rests on, checked on the direct window definition:
    # no state has two exact successors, nor (its mirror) two exact
    # predecessors, so a walk that closes starts on its cycle
    assert len(small_exact_transitions) == 191
    for s, exact in small_exact_transitions:
        tails = [t for t, _ in exact]
        assert len(tails) == len(set(tails)), s
        heads = [u for _, u in exact]
        assert len(heads) == len(set(heads)), s


def test_single_coverage_by_differences(small_exact_transitions):
    # a state hits no position twice iff no two of its members differ by
    # an element of Delta = {d' - d : d < d' in S u {0}}, and
    # _single_states lists exactly those states, ascending
    for s, _ in small_exact_transitions:
        delta = {e - d for d in (0, *s) for e in (0, *s) if e > d}
        single = []
        for t in range(1 << s.c):
            apart = all(y - x not in delta for x, y in combinations(state_elements(t), 2))
            assert apart == hits_no_position_twice(t, s), (s, t)
            if apart:
                single.append(t)
        assert stategraph._single_states(s).tolist() == single, s


@pytest.mark.parametrize("t", [*range(17, 29), *range(-16, -28, -1)])
def test_eds_follows_the_paper_law_to_c_limit(t):
    # {1, t} has a perfect witness iff t = 2 mod 3, at c = 17..28, where
    # eds_exists lists the single states alone; each witness tiles Z with
    # period 3c
    s = GeneratorSet([1, t])
    exists, witness = eds_exists(s, c_max=s.c)
    assert exists == eds_predicted(1, t)
    if exists:
        assert witness.period == 3 * s.c
        assert all(k == 1 for k in coverage_counts(witness, s))


def test_eds_matches_naive_exact_transitions(small_exact_transitions):
    for s, exact in small_exact_transitions:
        exists, witness = eds_exists(s)
        assert exists == _has_cycle(exact), s
        if exists:
            c, n = s.c, witness.period // s.c
            states = [sum(1 << (r - 1 - i * c) for r in witness.residues
                          if i * c < r <= (i + 1) * c) for i in range(n)]
            assert all((states[i], states[(i + 1) % n]) in exact
                       for i in range(n)), s


def _lift_changed(change):
    """stategraph._lift with its witness passed through change(witness, c)."""
    lift = stategraph._lift

    def lifted(cycle, g, c):
        cycle, witness = lift(cycle, g, c)
        return cycle, change(witness, c)
    return lifted


def _one_residue_dropped(u, c):
    return PeriodicSet(u.period, u.sorted_residues()[1:])


def _period_past_bound(u, c):
    # the residues repeated k times: the density holds, the period does not
    k = (c << c) // u.period + 1
    return PeriodicSet(k * u.period, [r + i * u.period for i in range(k) for r in u.residues])


def test_ratio_self_check_raises(monkeypatch):
    # each check on its own: a witness that does not dominate, one of the
    # wrong density, and one whose period passes c*2^c
    for name, patch, message in [
            ("verify_dominating", lambda u, s: False, "does not dominate"),
            ("_lift", _lift_changed(_one_residue_dropped), "witness density"),
            ("_lift", _lift_changed(_period_past_bound), "exceeds c*2^c")]:
        with monkeypatch.context() as m:
            m.setattr(stategraph, name, patch)
            with pytest.raises(CertificateError, match=re.escape(message)):
                domination_ratio(GeneratorSet([1, 2]))


def test_eds_self_check_raises(monkeypatch):
    monkeypatch.setattr(stategraph, "coverage_counts", lambda u, s: [2])
    with pytest.raises(CertificateError):
        eds_exists(GeneratorSet([1, 2]))


def test_self_checks_survive_optimize_flag():
    # the self-check tests above, rerun with asserts stripped
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_stategraph.py", "-k", "self_check_raises"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and "2 passed" in out.stdout, out.stdout + out.stderr


def test_no_predecessor_never_improves():
    # a state with no predecessor reads the sentinel as its key: the value
    # (_INF >> c) + q*w - p is then positive, since q <= 2^c and
    # p <= (c+1)q, so it never falls below y <= 0
    for c in range(1, stategraph.C_LIMIT + 1):
        assert (int(stategraph._INF) >> c) > (c + 1) << c


def test_packing_span_guard_raises(monkeypatch):
    # a (value, node) span at or past the sentinel must stop the search, not
    # wrap; c <= 18 never gets there, so shrink the sentinel to just above
    # the first round's span (n = 4 states, all values 0)
    monkeypatch.setattr(stategraph, "_INF", np.int64(5))
    with pytest.raises(CapExceededError):
        domination_ratio(GeneratorSet([1, 2]))


@given(st.sets(st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
               min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_cap_edges(els):
    s = GeneratorSet(els)
    assert domination_ratio(s, c_max=s.c).period <= s.c * (1 << s.c)
    with pytest.raises(CapExceededError):
        domination_ratio(s, c_max=s.c - 1)
    with pytest.raises(CapExceededError):
        eds_exists(s, c_max=s.c - 1)
    with pytest.raises(InputError):
        domination_ratio(GeneratorSet([]), c_max=s.c)


@given(st.integers(min_value=1, max_value=12), st.sampled_from([1, -1]))
@settings(max_examples=30, deadline=None)
def test_single_generator_ratio_is_half(step, sign):
    assert domination_ratio(GeneratorSet([sign * step]), c_max=12).ratio == Fraction(1, 2)


def test_c_limit_raises_before_allocating():
    # 2^40 states would need terabytes; the limit must refuse first
    assert stategraph.C_LIMIT == 28
    with pytest.raises(CapExceededError) as err:
        build_state_graph(GeneratorSet([1, 40]), c_max=40)
    assert "c=40" in str(err.value) and "28" in str(err.value)


def test_eds_exists_cap_and_empty():
    with pytest.raises(CapExceededError):
        eds_exists(GeneratorSet([1, 9]), c_max=8)
    with pytest.raises(InputError):
        eds_exists(GeneratorSet([]))


def test_deterministic_output():
    a = domination_ratio(GeneratorSet([2, -3]))
    b = domination_ratio(GeneratorSet([2, -3]))
    assert a.cycle == b.cycle and a.witness == b.witness


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeat_calls_reuse_freed_arrays():
    # in a fresh process the first pass sets the peak, and later passes fault
    # in almost no fresh pages; with glibc's dynamic thresholds each pass
    # faulted in about 28 000 (110 MB)
    script = (
        "import resource\n"
        "from domrat import GeneratorSet, domination_ratio, eds_exists\n"
        "for _ in range(3):\n"
        "    for els in [(1, -17), (1, 16), (-1, 17)]:\n"
        "        domination_ratio(GeneratorSet(els), c_max=18)\n"
        "        eds_exists(GeneratorSet(els), c_max=18)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stategraph.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    faults = [int(b) - int(a) for a, b in zip(out, out[1:])]
    assert max(faults) < 1024, faults
