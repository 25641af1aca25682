"""Exact domination numbers of circulant digraphs.

A circulant digraph on Z_n with connection set C (least positive residues)
has an edge u -> u+r mod n for every r in C.  Two exact solvers, each small
enough to serve as an independent cross-check for the infinite-graph
engine: a branch-and-bound over bitmask coverage for one Z_n, and a
closed-walk DP on the window graph that `oracle_scan` uses to answer every
n up to a limit at once for sets of small window width.  A search of the
branch and bound branches on vertices from candidate groups precomputed
per call and returns the cover it finds, from which the witness is built.

Failed-state table.  All searches on one Z_n share a dict `failed`, where
failed[m] = b means that no b vertices >= the call's min_vertex cover the
uncovered mask m.  A level of the search whose candidates all fail records
its mask with one more than the budget left below it: a cover must hold a
dominator of the branching vertex, every such dominator >= min_vertex was
tried, and each subtree below is exhausted, cut off by counting (at most
per_vertex vertices covered per vertex chosen) or refuted by the table.  A
mask is expanded only if the table does not refute it with its budget.
The table skips only subtrees that hold no cover, so the depth-first order
and the first cover found are unchanged.  An entry proven with candidates
>= m holds for any later call whose min_vertex is >= m, and within one
`domination_number` min_vertex never falls: it is 0 for every level of
the iterative deepening, then v + 1 for ascending v while the witness
grows.  So one table serves the whole solve, and no mask is refuted twice
with the same budget.

The table holds at most _FAILED_STATES_MAX entries; a search that would
pass it raises CapExceededError instead of growing without bound.

Coset lemma.  Let g = gcd(n, C).  The subgroup of Z_n generated by C is
gZ_n, so every edge u -> u+r stays in u's coset, and x -> a + g*x maps
Z_{n/g} with C/g isomorphically onto the coset a + gZ_n.  A set dominates
a disjoint union iff it dominates each part, so a minimum dominating set of
Z_n is the union of minimum ones of the cosets: gamma = g*gamma(Z_{n/g}, C/g).

`oracle_scan` needs gamma alone, so it solves one coset and checks the
lifted cover on the whole of Z_n.  `domination_number` is deliberately not
split: its witness and the period identities of verify-paper compare this
solver with the state-graph engine, which already lifts gcd > 1 sets by the
same lemma, so they keep a solve of the whole Z_n that does not rest on it.

Window DP.  For n > max|x| no step is 0 mod n, and an n-periodic subset D
of Z dominates Z under S iff its residues dominate Z_n under S mod n: j is
dominated iff some j - x with x in S or 0 is a member, which reads the
same mod n.  Read D as a word of membership bits, with a = max(S, 0),
b = max(-S, 0) and c = a + b.  A state is the last c bits, the oldest at
bit 0, and a step appends one bit at bit c-1, so the predecessors of s'
are 2r and 2r+1 for r = s' mod 2^(c-1): a DP step is two strided slices
and a minimum.  The dropped bit and the c bits after it are the whole
window of dominators [j - a, j + b] of one position j, so the step is
allowed iff that window holds a dominator of j.  The oldest position
dominates j through a and the newest through -b, so only the step that
drops a 0 and appends a 0 can be barred, and it is barred iff no middle
bit dominates j.  A closed walk of length n is then an n-periodic word
with every position dominated, and the bits it appends are one period, so
gamma(Z_n, S mod n) is the least number of 1s a closed walk of length n
appends.  For n < c the walk is closed only from a start state that is
itself n-periodic, so small n need no special case.  Every dominating set
has a member and its rotations dominate too, so only walks from states
whose newest bit is 1 are needed: 2^(c-1) starts, all run in one sweep of
n_limit steps that reads gamma for every n on the way.  The DP shares no
code with the branch and bound or the state-graph engine and does not use
the coset lemma.  Each gamma comes with the walk found by backtracking
the stored choices, and `oracle_scan` checks that walk's set against the
connection set, raising CertificateError when it fails.  The DP costs
about n_limit * 4^c / 2 cell updates for any S, so it serves sets with
c <= _WINDOW_MAX_C, where it is faster; the measurements are at the
constant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .core import GeneratorSet
from .errors import CapExceededError, CertificateError, InputError, ZeroResidueError

DEFAULT_N_MAX = 30

# The failed-state table of one solve holds at most _FAILED_STATES_MAX
# entries, about 125 bytes each, and the search raises CapExceededError past
# it.  Entries at the end of a domination_number solve (2 vCPU, Python
# 3.11.7): {-9,3} on Z_60 650 587 (87 MB), {1,10} and {-9,1} on Z_110
# 197 570 and 255 853, {1,12} and {-11,1} on Z_276 2 243 380 and 2 347 063
# (285-291 MB, 11 s).  {1,13} and {-12,1} on Z_182 held 0.9-1.0 GB before
# they finished; {1,13} now stops at the cap after 10 s, at 467 MB.
_FAILED_STATES_MAX = 3_000_000

# oracle_scan solves a set with c <= _WINDOW_MAX_C by _window_scan, and a
# wider one modulus by modulus with _scan_gamma.  The DP's cost is about
# n_limit * 4^c / 2 cell updates whatever S is; the branch and bound's
# grows with n instead.  Milliseconds per set, DP with its checks against
# _scan_gamma, best of 3-7 in one process (2 vCPU, Python 3.11.7, numpy
# 2.4.6): the circulant_scan sets (c <= 8 from +-6) to n_limit 27, at
# c = 4, 6, 8: 0.70, 0.76, 1.31 against 1.54, 2.57, 3.03, and 93 against
# 263 ms for all 106; twelve sets from +-10 at c = 9, 10, 11, to n_limit 27:
# 2.98, 10.1, 46.9 against 5.00, 4.36, 5.18, and to n_limit 36: 4.27, 14.4,
# 65.1 against 26.5, 32.3, 35.7.
_WINDOW_MAX_C = 9


@dataclass(frozen=True)
class CirculantInstance:
    """A circulant digraph: modulus n and connection residues in [1, n]."""

    n: int
    connection: frozenset[int]

    def __init__(self, n: int, connection: Iterable[int]):
        if n < 1:
            raise InputError(f"modulus must be positive, got {n}")
        conn = frozenset(connection)
        for r in conn:
            if not 1 <= r <= n:
                raise InputError(f"residue {r} outside [1,{n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "connection", conn)


def residues(s: GeneratorSet, n: int) -> CirculantInstance:
    """Least positive residues of the generators mod n, duplicates merged.

    Elements divisible by n are rejected: they would turn into loop edges,
    which the infinite graph does not have.
    """
    if n < 1:
        raise InputError(f"modulus must be positive, got {n}")
    conn = set()
    for x in s:
        r = x % n
        if r == 0:
            raise ZeroResidueError(x, n)
        conn.add(r)
    return CirculantInstance(n, conn)


def is_dominating(inst: CirculantInstance, vertices: Iterable[int]) -> bool:
    """Check a vertex set of [0, n-1] against the domination requirement."""
    n = inst.n
    chosen = set(v % n for v in vertices)
    covered = set(chosen)
    for u in chosen:
        for r in inst.connection:
            covered.add((u + r) % n)
    return len(covered) == n


def _cover_masks(inst: CirculantInstance) -> list[int]:
    n = inst.n
    masks = []
    for u in range(n):
        m = 1 << u
        for r in inst.connection:
            m |= 1 << ((u + r) % n)
        masks.append(m)
    return masks


def _dominator_lists(inst: CirculantInstance) -> list[list[int]]:
    n = inst.n
    doms: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        doms[j].add(j)
        for r in inst.connection:
            doms[j].add((j - r) % n)
    return [sorted(d) for d in doms]


def _exists_cover(uncovered: int, budget: int, cover: list[int],
                  doms: list[list[int]], per_vertex: int, failed: dict[int, int],
                  min_vertex: int = 0) -> list[int] | None:
    """At most `budget` distinct vertices, all >= min_vertex, that cover the
    uncovered mask; None if there are none.

    Depth-first, on an explicit stack with one (uncovered, budget left,
    untried candidates) entry per level, so that the depth, up to budget,
    never meets Python's recursion limit.  Each node branches on the lowest
    uncovered vertex of the first group, by count of candidates >= min_vertex,
    that meets the mask.  A mask the table `failed` refutes with its budget
    is not expanded, and a level whose candidates all fail is added to it
    (the module docstring gives the table's meaning and why it is sound).
    Raises CapExceededError once a write takes the table past
    _FAILED_STATES_MAX entries."""
    if not uncovered:
        return []
    if (budget <= 0 or uncovered.bit_count() > budget * per_vertex
            or failed.get(uncovered, -1) >= budget):
        return None
    by_count: dict[int, int] = {}
    for j, d in enumerate(doms):
        k = len(d) - bisect_left(d, min_vertex)
        by_count[k] = by_count.get(k, 0) | 1 << j
    groups = [by_count[k] for k in sorted(by_count)]
    chosen = [0] * budget  # chosen[b]: the candidate tried at the level with b left
    stack = []
    while True:
        for g in groups:
            if g & uncovered:
                g &= uncovered
                d = doms[(g & -g).bit_length() - 1]
                break
        stack.append((uncovered, budget - 1, iter(d[bisect_left(d, min_vertex):])))
        while stack:  # the next candidate not cut off, deepest level first
            level, budget, untried = stack[-1]
            for v in untried:
                chosen[budget] = v
                uncovered = level & ~cover[v]
                if not uncovered:
                    return chosen[budget:]
                if (budget > 0 and uncovered.bit_count() <= budget * per_vertex
                        and failed.get(uncovered, -1) < budget):
                    break
            else:
                # no budget + 1 vertices cover the level; the table held less
                # for it, or it would not have been expanded
                stack.pop()
                failed[level] = budget + 1
                if len(failed) > _FAILED_STATES_MAX:
                    raise CapExceededError("failed states", len(failed),
                                           _FAILED_STATES_MAX)
                continue
            break
        else:
            return None


def _search_gamma(n: int, cover: list[int], doms: list[list[int]],
                  failed: dict[int, int]) -> tuple[int, list[int]]:
    """Domination number of Z_n and the vertices besides 0 of a minimum
    dominating set, from the cover masks and dominator lists.

    Iterative deepening from the counting lower bound; vertex 0 is forced
    into the set, which is sound because rotating any dominating set keeps
    it dominating.  Every level searches with the failed-state table
    `failed`, so a level starts from the refutations of the levels below.
    """
    per_vertex = len(doms[0])
    full = (1 << n) - 1
    lower = -(-n // per_vertex)  # ceil
    for gamma in range(max(lower, 1), n + 1):
        found = _exists_cover(full & ~cover[0], gamma - 1, cover, doms, per_vertex,
                             failed)
        if found is not None:
            return gamma, found
    # k = n always works
    raise AssertionError(f"no dominating set of size <= {n} found")


def domination_number(inst: CirculantInstance,
                      n_max: int = DEFAULT_N_MAX) -> tuple[int, tuple[int, ...]]:
    """Exact domination number and the lexicographically least witness.

    Solves the whole Z_n, whatever gcd(n, C) is (see the module docstring).
    The witness is re-checked against the connection set, without the cover
    masks, before it is returned.
    """
    n = inst.n
    if n > n_max:
        raise CapExceededError("n", n, n_max)
    cover = _cover_masks(inst)
    doms = _dominator_lists(inst)
    per_vertex = len(doms[0])
    failed: dict[int, int] = {}  # shared by the deepening and the witness growth
    gamma, found = _search_gamma(n, cover, doms, failed)

    # grow the witness smallest-vertex-first; each prefix must keep a
    # feasible completion among strictly larger vertices.  `completion` is
    # one such completion: by minimality of gamma its smallest vertex covers
    # something new and is feasible, so only smaller vertices need a search
    witness = [0]
    completion = sorted(found)
    uncovered = ((1 << n) - 1) & ~cover[0]
    budget = gamma - 1
    while completion:
        for v in range(witness[-1] + 1, completion[0]):
            if not (cover[v] & uncovered):
                continue
            found = _exists_cover(uncovered & ~cover[v], budget - 1, cover, doms,
                                  per_vertex, failed, v + 1)
            if found is not None:
                completion = [v] + sorted(found)
                break
        v = completion.pop(0)
        witness.append(v)
        uncovered &= ~cover[v]
        budget -= 1
    _check_cover(inst, witness, gamma)  # strictly increasing: no vertex repeats
    return gamma, tuple(witness)


def _lift_cover(found: list[int], g: int) -> set[int]:
    """The cover {0} + found of Z_{n/g}, copied to every coset of gZ_n."""
    return {a + g * x for x in (0, *found) for a in range(g)}


def _check_cover(inst: CirculantInstance, cover: Iterable[int], gamma: int) -> None:
    """Raise CertificateError unless `cover` is gamma vertices of Z_n that
    dominate it; a raise, not an assert, so python -O checks it too."""
    cover = {v % inst.n for v in cover}
    if len(cover) != gamma or not is_dominating(inst, cover):
        raise CertificateError(
            f"cover {sorted(cover)} of Z_{inst.n} does not dominate with {gamma} vertices")


def _scan_gamma(inst: CirculantInstance) -> int:
    """Domination number of Z_n, solved on Z_{n/g} with C/g for
    g = gcd(n, C) and certified by the lifted cover on the whole Z_n."""
    n = inst.n
    g = gcd(n, *inst.connection)
    coset = CirculantInstance(n // g, [r // g for r in inst.connection])
    gamma, found = _search_gamma(coset.n, _cover_masks(coset), _dominator_lists(coset),
                                 {})
    gamma *= g
    _check_cover(inst, _lift_cover(found, g), gamma)
    return gamma


def _window_scan(s: GeneratorSet, n_limit: int) -> list[tuple[int, int, list[int]]]:
    """(n, gamma(Z_n, S mod n), a minimum dominating set of Z_n) for every n
    from max|x| + 1 to n_limit, by one closed-walk DP on the window graph
    (the module docstring gives the graph and why the DP is exact).

    cost[state, k] is the least weight of a walk of the current length from
    start state 2^(c-1) + k.  Bit (t-1) % 8 of took_odd[(t-1) // 8, r, k]
    records whether the walk to the states r and 2^(c-1) + r at length t
    came from 2r + 1: n_limit * 4^(c-1) / 8 bytes, packed because unpacked
    they were the DP's largest array.  The sets are backtracked from
    took_odd and returned unchecked; oracle_scan checks each one.
    """
    # Imported here, not at the top: numpy then loaded before formulas and
    # stategraph, and `import domrat` left 29.6 MB resident instead of
    # 27.9 MB (2 vCPU, Python 3.11.7, numpy 2.4.6)
    import numpy as np

    a, c = s.a, s.c
    start = max(abs(x) for x in s) + 1
    half = 1 << (c - 1)
    # bit a - x is set for each x in S and 0: the window offsets, counted from
    # the dropped bit, of the dominators of the position the step completes
    dom = 0
    for x in (0, *s):
        dom |= 1 << (a - x)
    # the step 2r -> r drops a 0 and appends a 0; it is barred iff none of
    # the middle bits r dominates
    barred = (np.arange(half) & (dom >> 1)) == 0
    # costs up to n_limit are weights; n_limit + 1 and above mark walks that
    # do not exist, and stay below 2 * n_limit + 2 over n_limit steps
    dtype = np.min_scalar_type(2 * n_limit + 2)
    cost = np.full((2 * half, half), n_limit + 1, dtype)
    np.fill_diagonal(cost[half:], 0)
    new = np.empty_like(cost)
    took_odd = np.zeros((-(-n_limit // 8), half, half), dtype=np.uint8)
    less = np.empty((half, half), dtype=np.uint8)
    closed = np.empty((n_limit + 1, half), dtype)  # closed[t, k]: back at start k
    for t in range(1, n_limit + 1):
        even, odd = cost[0::2], cost[1::2]  # the predecessors 2r and 2r + 1
        lo, hi = new[:half], new[half:]  # r and 2^(c-1) + r: new bit 0 and 1
        np.less(odd, even, out=less)
        less <<= (t - 1) & 7
        took_odd[(t - 1) >> 3] |= less
        np.minimum(even, odd, out=hi)
        np.copyto(lo, hi)
        np.copyto(lo, odd, where=barred[:, None])
        hi += 1
        np.copyto(closed[t], hi.diagonal())
        cost, new = new, cost

    # walk back from the best start of every n at once; row i is n = start + i
    ks = closed[start:].argmin(axis=1)
    gammas = closed[start:].min(axis=1).tolist()
    state = ks + half
    bits = np.zeros((len(gammas), n_limit + 1), dtype=bool)  # bits[i, t]: bit appended at t
    for t in range(n_limit, 0, -1):
        i = max(t - start, 0)  # the walks of length n >= t
        at = state[i:]
        top = at >= half
        bits[i:, t] = top
        r = at & (half - 1)
        from_odd = (took_odd[(t - 1) >> 3, r, ks[i:]] & (1 << ((t - 1) & 7))) != 0
        state[i:] = 2 * r + (from_odd | (~top & barred[r]))
    return [(n, gamma, ((np.flatnonzero(row[1:n + 1]) + 1) % n).tolist())
            for n, gamma, row in zip(range(start, n_limit + 1), gammas, bits)]


def oracle_scan(s: GeneratorSet, n_limit: int,
                n_max: int = DEFAULT_N_MAX) -> list[tuple[int, int]]:
    """Domination numbers gamma(Z_n, S mod n) for every usable n up to n_limit.

    Only gamma is returned, no witness, but every gamma is certified by a
    cover of Z_n checked to dominate it with exactly gamma vertices.  A set
    with c <= _WINDOW_MAX_C is solved for every n in one sweep of the
    window-graph DP (_window_scan), which gives one minimum walk, so one
    cover, per n; every dominating set has a member, so the walks start only
    at states whose newest bit is 1.  A wider set is solved modulus by
    modulus with the branch and bound, each Z_n on one coset of the subgroup
    its connection set generates (the module docstring's lemma), and the
    cover found is copied to every coset.  The module docstring gives both
    arguments, and the comment at _WINDOW_MAX_C the measurements behind the
    rule.  The cap applies to Z_n's own n and is checked before any search.
    """
    if not s.elements:
        raise InputError("generator set must be nonempty")
    start = max(abs(x) for x in s) + 1
    if n_limit < start:
        raise InputError(f"n_limit {n_limit} below smallest usable modulus {start}")
    if n_limit > n_max:
        raise CapExceededError("n", max(start, n_max + 1), n_max)
    # n > max|x|, so no generator is 0 mod n
    if s.c > _WINDOW_MAX_C:
        return [(n, _scan_gamma(residues(s, n))) for n in range(start, n_limit + 1)]
    scan = []
    for n, gamma, cover in _window_scan(s, n_limit):
        _check_cover(residues(s, n), cover, gamma)
        scan.append((n, gamma))
    return scan


def ratio_oracle(s: GeneratorSet, n_limit: int,
                 n_max: int = DEFAULT_N_MAX) -> Fraction:
    """Least gamma(Z_n, S mod n)/n over n up to n_limit, from `oracle_scan`.

    Always an upper bound for the infinite-graph domination ratio; equal to
    it once n_limit reaches the period of an optimal periodic dominating
    set.  Like the scan, it refuses an n_limit above n_max before solving.
    """
    scan = oracle_scan(s, n_limit, n_max=n_max)
    return min(Fraction(gamma, n) for n, gamma in scan)
