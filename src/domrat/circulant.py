"""Exact domination numbers of circulant digraphs.

A circulant digraph on Z_n with connection set C (least positive residues)
has an edge u -> u+r mod n for every r in C.  The solver is a plain exact
branch-and-bound over bitmask coverage, small enough to serve as an
independent cross-check for the infinite-graph engine.  A search branches
on vertices from candidate groups precomputed per call and returns the
cover it finds, from which the witness is built.

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
    (the module docstring gives the table's meaning and why it is sound)."""
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
    if len(witness) != gamma or not is_dominating(inst, witness):
        raise CertificateError(
            f"witness {witness} of Z_{n} does not dominate with {gamma} vertices")
    return gamma, tuple(witness)


def _lift_cover(found: list[int], g: int) -> set[int]:
    """The cover {0} + found of Z_{n/g}, copied to every coset of gZ_n."""
    return {a + g * x for x in (0, *found) for a in range(g)}


def _scan_gamma(inst: CirculantInstance) -> int:
    """Domination number of Z_n, solved on Z_{n/g} with C/g for
    g = gcd(n, C) and certified by the lifted cover on the whole Z_n."""
    n = inst.n
    g = gcd(n, *inst.connection)
    coset = CirculantInstance(n // g, [r // g for r in inst.connection])
    gamma, found = _search_gamma(coset.n, _cover_masks(coset), _dominator_lists(coset),
                                 {})
    gamma *= g
    lifted = _lift_cover(found, g)
    if len(lifted) != gamma or not is_dominating(inst, lifted):
        raise CertificateError(
            f"cover {sorted(lifted)} of Z_{n} does not dominate with {gamma} vertices")
    return gamma


def oracle_scan(s: GeneratorSet, n_limit: int,
                n_max: int = DEFAULT_N_MAX) -> list[tuple[int, int]]:
    """Domination numbers gamma(Z_n, S mod n) for every usable n up to n_limit.

    Only gamma is computed, no witness.  Each Z_n is solved on one coset of
    the subgroup its connection set generates (the module docstring's
    lemma), and the cover found, copied to every coset, is checked to
    dominate Z_n with exactly gamma vertices.  The cap applies to Z_n's own
    n and is checked before any search.
    """
    if not s.elements:
        raise InputError("generator set must be nonempty")
    start = max(abs(x) for x in s) + 1
    if n_limit < start:
        raise InputError(f"n_limit {n_limit} below smallest usable modulus {start}")
    if n_limit > n_max:
        raise CapExceededError("n", max(start, n_max + 1), n_max)
    # n > max|x|, so no generator is 0 mod n
    return [(n, _scan_gamma(residues(s, n))) for n in range(start, n_limit + 1)]


def ratio_oracle(s: GeneratorSet, n_limit: int,
                 n_max: int = DEFAULT_N_MAX) -> Fraction:
    """Least gamma(Z_n, S mod n)/n over n up to n_limit, from `oracle_scan`.

    Always an upper bound for the infinite-graph domination ratio; equal to
    it once n_limit reaches the period of an optimal periodic dominating
    set.  Like the scan, it refuses an n_limit above n_max before solving.
    """
    scan = oracle_scan(s, n_limit, n_max=n_max)
    return min(Fraction(gamma, n) for n, gamma in scan)
