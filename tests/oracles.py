"""Independent reference computations used only by the tests.

These deliberately share no code with the engine: the cycle mean comes from
a dynamic program over walk lengths, the canonical cycle from plain
depth-first enumeration, and the tight subgraph from a trim over pairs
checked one at a time."""

import math
from fractions import Fraction

import numpy as np

from domrat.core import GeneratorSet, PeriodicSet
from domrat.errors import InputError


def scale(s, d):
    """The generator set {d*x : x in s}."""
    return GeneratorSet(d * x for x in s)


def translate(u, k):
    """The periodic set u shifted by k (residues move cyclically)."""
    p = u.period
    return PeriodicSet(p, ((r - 1 + k) % p + 1 for r in u.residues))


def same_set_as(u, v):
    """Whether two periodic sets describe the same subset of Z; the periods
    may differ (one can be a multiple of the other's true period)."""
    q = math.lcm(u.period, v.period)
    return all((j in u) == (j in v) for j in range(1, q + 1))


def states(g):
    return range(g.n_states)


def full_state(g):
    return g.n_states - 1


def successors(g, t):
    """States t may be followed by, ascending: uncovered[t] within covers."""
    u = g.uncovered[t]
    return tuple(np.flatnonzero((g.covers & u) == u).tolist())


def weight(g, t):
    return int(g.weights[t])


def is_edge(g, t, t_prime):
    return (int(g.uncovered[t]) & ~int(g.covers[t_prime])) == 0


def is_transition(t, t_prime, s):
    """Direct window check for consistency of adjacent window contents.

    Positions of t live on [1, c], positions of t_prime on [c+1, 2c]; every
    j in [a+1, c+a] must be a member or have a member at j - step.
    """
    a, c = s.a, s.c
    if c < 1:
        raise InputError("generator set must be nonempty")
    if not 0 <= t < (1 << c) or not 0 <= t_prime < (1 << c):
        raise InputError("state mask out of range")
    members = {i + 1 for i in range(c) if t >> i & 1}
    members |= {i + 1 + c for i in range(c) if t_prime >> i & 1}
    return all(j in members or any(j - step in members for step in s)
               for j in range(a + 1, c + a + 1))


def submask_min_naive(t):
    """out[m] = min of t over every submask of m, one mask at a time."""
    idx = np.arange(len(t))
    return np.array([t[(idx & m) == idx].min() for m in idx])


def supermask_max_naive(t):
    """out[m] = max of t over every supermask of m, one mask at a time."""
    idx = np.arange(len(t))
    return np.array([t[(idx & m) == m].max() for m in idx])


def subset_reduce_per_bit(t, ufunc, up=False):
    """out[m] = ufunc of t over every submask of m (up: every supermask),
    one bit at a time over the whole array, by index arithmetic."""
    t = np.array(t)
    idx = np.arange(len(t))
    for i in range(len(t).bit_length() - 1):
        dst = idx[((idx >> i & 1) == 1) != up]  # up: dst lacks bit i
        t[dst] = ufunc(t[dst], t[dst ^ (1 << i)])
    return t


def _closure(marks, c, up):
    """marks[m] set wherever marks is set at a submask of m (up) or at a
    supermask of m (not up), one bit at a time."""
    marks = marks.copy()
    for i in range(c):
        pairs = marks.reshape(-1, 2, 1 << i)  # [:, 0] lacks bit i, [:, 1] has it
        if up:
            pairs[:, 1] |= pairs[:, 0]
        else:
            pairs[:, 0] |= pairs[:, 1]
    return marks


def tight_cycle_nodes_naive(g, y, tgt):
    """States on a two-way infinite walk of tight edges, and the tight edges
    among them: sorted states, and sorted (u, v) state pairs.

    Edge u -> v is tight when y[u] == tgt[v].  A state stays while it has a
    tight predecessor and a tight successor among the states left.  The
    first step asks that of every state, one value at a time: a state v has
    a tight predecessor iff some u with y[u] == tgt[v] has uncovered[u]
    inside covers[v], an OR over the submasks of covers[v].  Every later
    step checks is_edge on the pairs of states left with equal values.
    """
    n, c = g.n_states, g.c
    has_pred = np.zeros(n, dtype=bool)
    has_succ = np.zeros(n, dtype=bool)
    for val in set(y.tolist()) & set(tgt.tolist()):
        marks = np.zeros(n, dtype=bool)
        marks[g.uncovered[y == val]] = True
        has_pred |= (tgt == val) & _closure(marks, c, up=True)[g.covers]
        marks = np.zeros(n, dtype=bool)
        marks[g.covers[tgt == val]] = True
        has_succ |= (y == val) & _closure(marks, c, up=False)[g.uncovered]
    alive = set(np.flatnonzero(has_pred & has_succ).tolist())
    heads = {}
    for v in alive:
        heads.setdefault(int(tgt[v]), []).append(v)
    edges = {(u, v) for u in alive for v in heads.get(int(y[u]), ())
             if is_edge(g, u, v)}
    while True:
        keep = {u for u, _ in edges} & {v for _, v in edges}
        if keep == alive:
            return sorted(alive), sorted(edges)
        alive = keep
        edges = {(u, v) for u, v in edges if u in alive and v in alive}


def karp_min_mean(g):
    """Exact minimum cycle mean by the classic walk-length recurrence,
    rooted at the full state (which reaches everything)."""
    n = g.n_states
    succ = {u: successors(g, u) for u in states(g)}
    d = [[None] * n for _ in range(n + 1)]
    d[0][full_state(g)] = 0
    for k in range(1, n + 1):
        dk, dk1 = d[k], d[k - 1]
        for u in range(n):
            du = dk1[u]
            if du is None:
                continue
            for v in succ[u]:
                w = du + weight(g, v)
                if dk[v] is None or w < dk[v]:
                    dk[v] = w
    best = None
    for v in range(n):
        if d[n][v] is None:
            continue
        m = max(Fraction(d[n][v] - d[k][v], n - k)
                for k in range(n) if d[k][v] is not None)
        if best is None or m < best:
            best = m
    return best


def value_iteration_naive(g, mu):
    """Potentials after each round of y(v) <- min(y(v), q*w(v) - p + min
    over predecessors u of y(u)) from y = 0, edge by edge: y after round 0,
    1, ... up to the first round that changes nothing, or n + 1 rounds."""
    p, q = mu.numerator, mu.denominator
    n = g.n_states
    preds = [[] for _ in range(n)]
    for u in states(g):
        for v in successors(g, u):
            preds[v].append(u)
    y = [0] * n
    history = [y]
    for _ in range(n + 1):
        new = [min([y[v]] + [y[u] + q * weight(g, v) - p for u in preds[v]])
               for v in range(n)]
        if new == y:
            break
        y = new
        history.append(y)
    return history


def pointer_cycles(pred, starts=None):
    """The predecessor-pointer cycles, each a list of nodes, that the pointer
    walks from `starts` (every node by default) run into.

    Walks node by node, colouring nodes as new, on the current walk or
    finished; a walk that meets its own path has found a cycle."""
    n = len(pred)
    color = [0] * n  # 0 new, 1 on walk, 2 finished
    cycles = []
    for v in (range(n) if starts is None else starts):
        if color[v]:
            continue
        path = []
        while v >= 0 and color[v] == 0:
            color[v] = 1
            path.append(v)
            v = int(pred[v])
        if v >= 0 and color[v] == 1:
            cycles.append(path[path.index(v):])
        for x in path:
            color[x] = 2
    return cycles


def first_closed_walk(succ):
    """The cycle that walks along the pointer map succ (-1: no pointer),
    started from node 0, 1, ... in turn, close first, listed from the node
    where its walk re-enters itself; or None if no walk closes.

    Each node keeps the start of the first walk that reached it, so a walk
    that meets its own start's mark has closed a cycle."""
    walk = [-1] * len(succ)
    for start in range(len(succ)):
        u = start
        while u >= 0 and walk[u] < 0:
            walk[u] = start
            u = succ[u]
        if u >= 0 and walk[u] == start:
            break
    else:
        return None
    cycle = [u]
    while (u := succ[u]) != cycle[0]:
        cycle.append(u)
    return cycle


def pred_cycle_mean_naive(pred, weights, mu=None, starts=None):
    """Smallest mean among the pointer cycles reached from `starts` (every
    node by default), below mu if given, with the smallest node of the
    shortest such cycle whose smallest node is least; or None."""
    best = None
    for cyc in pointer_cycles(pred, starts):
        mean = Fraction(sum(int(weights[x]) for x in cyc), len(cyc))
        if mu is None or mean < mu:
            key = (mean, len(cyc), min(cyc))
            best = key if best is None else min(best, key)
    return None if best is None else (best[0], best[2])


def brute_canonical_cycle(g, mu):
    """Shortest cycle of mean mu; ties resolved to the lexicographically
    smallest sequence starting from the cycle's smallest state.

    Enumerates lengths upward and, per candidate start, searches greedily in
    state order.  Pruned by an exact reachable-weight-sum table (walks, not
    paths, so it never cuts a real solution).
    """
    n, c = g.n_states, g.c
    succ = {u: successors(g, u) for u in states(g)}
    for length in range(1, n + 1):
        target = mu * length
        if target.denominator != 1:
            continue
        target = target.numerator
        for start in range(n):
            if length == 1:
                if start in succ[start] and weight(g, start) == target:
                    return (start,)
                continue
            found = _search_from(g, succ, start, length, target)
            if found:
                return tuple(found)
    return None


def _search_from(g, succ, start, length, target):
    n = g.n_states
    # reach[r][v]: bitmask of weight sums of length-r walks v -> start
    # through states larger than start (repeats allowed)
    full_bits = (1 << (target + 1)) - 1
    reach = [{start: 1}]
    for _ in range(1, length):
        prev, cur = reach[-1], {}
        for v in range(n):
            if v != start and v <= start:
                continue
            acc = 0
            for x in succ[v]:
                m = prev.get(x)
                if m:
                    acc |= (m << weight(g, x)) & full_bits
            if acc:
                cur[v] = acc
        reach.append(cur)

    path = [start]
    used = {start}

    def extend(cur, total, depth):
        rem = length - depth
        if rem == 1:
            return start in succ[cur] and total + weight(g, start) == target
        for v in succ[cur]:
            if v <= start or v in used:
                continue
            tw = total + weight(g, v)
            if tw > target:
                continue
            m = reach[rem - 1].get(v)
            if not m or not (m >> (target - tw)) & 1:
                continue
            used.add(v)
            path.append(v)
            if extend(v, tw, depth + 1):
                return True
            path.pop()
            used.remove(v)
        return False

    if extend(start, 0, 0):
        return path
    return None


def all_transitions_naive(g, is_transition, s):
    """Edge set recomputed pairwise from the direct window definition."""
    return {(t, u) for t in states(g) for u in states(g)
            if is_transition(t, u, s)}


def brute_small_period_exact_cover(s, coverage_counts, periodic_set, max_period=10):
    """Search every residue subset of every period up to max_period for a
    set that dominates each integer exactly once."""
    from itertools import combinations

    for p in range(1, max_period + 1):
        for size in range(1, p + 1):
            for combo in combinations(range(1, p + 1), size):
                u = periodic_set(p, combo)
                if all(k == 1 for k in coverage_counts(u, s)):
                    return True, u
    return False, None


def exact_transitions_naive(s):
    """Pairs (T, T') of c-bit window contents that together dominate every
    j in [a+1, c+a] exactly once, counted directly on the two windows.

    Bit j-1 of a line is position j, with T on [1, c] and T' on [c+1, 2c].
    For each d in {0} u S the line shifted by d marks the positions hit by
    step d; every window position is hit exactly once iff those marks
    number c in the window and miss none of it.  Two prunings skip only
    pairs that fail: a T hitting a window position twice on its own, and a
    T' with a member x whose x + a T already hits (that member, at x + c,
    hits x + c - b = x + a by step -b, or step 0 when b = 0).
    """
    a, c = s.a, s.c
    full, window = (1 << c) - 1, ((1 << c) - 1) << a

    def marks(line):
        """The window positions hit, counted with repeats, and their union."""
        count, union = 0, 0
        for d in (0, *s):
            m = (line << d if d >= 0 else line >> -d) & window
            count, union = count + m.bit_count(), union | m
        return count, union

    for t in range(1 << c):
        count, union = marks(t)
        if count != union.bit_count():
            continue
        free = ~(union >> a) & full
        u = free
        while True:  # the submasks of free, descending
            if marks(t | u << c) == (c, window):
                yield t, u
            if not u:
                break
            u = (u - 1) & free


def first_exact_cycle_naive(s, covers):
    """The exact cycle a walk over S's own states meets first, started
    where its walk re-enters itself; None if no walk closes.

    Each state hitting no position twice starts a walk, in ascending order
    of covers[state], that follows exact_transitions_naive until a state
    has no exact successor or was reached before.
    """
    succ = {}
    for t, u in exact_transitions_naive(s):
        if succ.setdefault(t, u) != u:
            raise AssertionError(f"state {t} of {s} has two exact successors")
    seen = set()
    for start in sorted((t for t in range(1 << s.c) if hits_no_position_twice(t, s)),
                        key=lambda t: int(covers[t])):
        path, t = [], start
        while t is not None and t not in seen:
            seen.add(t)
            path.append(t)
            t = succ.get(t)
        if t in path:
            return path[path.index(t):]
    return None


def hits_no_position_twice(t, s):
    """Whether the members of state t (bit i for element i+1 of [1, c]) and
    their steps hit every integer at most once, counted position by
    position over [1-b, a+c], where every member x and step d lands."""
    members = [i + 1 for i in range(s.c) if t >> i & 1]
    return all(sum(j - d in members for d in (0, *s)) <= 1
               for j in range(1 - s.b, s.a + s.c + 1))
