"""Exact domination numbers of circulant digraphs.

A circulant digraph on Z_n with connection set C (least positive residues)
has an edge u -> u+r mod n for every r in C.  The solver is a plain exact
branch-and-bound over bitmask coverage, small enough to serve as an
independent cross-check for the infinite-graph engine.  A search branches
on vertices from candidate groups precomputed per call and returns the
cover it finds, from which the witness is built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
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
                  doms: list[list[int]], per_vertex: int,
                  min_vertex: int = 0) -> list[int] | None:
    """At most `budget` distinct vertices, all >= min_vertex, that cover the
    uncovered mask; None if there are none.

    Depth-first, on an explicit stack with one (uncovered, budget left,
    untried candidates) entry per level, so that the depth, up to budget,
    never meets Python's recursion limit.  Each node branches on the lowest
    uncovered vertex of the first group, by count of candidates >= min_vertex,
    that meets the mask."""
    if not uncovered:
        return []
    if budget <= 0 or uncovered.bit_count() > budget * per_vertex:
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
        cands = d[bisect_left(d, min_vertex):]
        if cands:  # none: no vertex can cover it, and the branch fails
            stack.append((uncovered, budget - 1, iter(cands)))
        while stack:  # the next candidate not cut off, deepest level first
            level, budget, untried = stack[-1]
            for v in untried:
                chosen[budget] = v
                uncovered = level & ~cover[v]
                if not uncovered:
                    return chosen[budget:]
                if budget > 0 and uncovered.bit_count() <= budget * per_vertex:
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return None


def domination_number(inst: CirculantInstance,
                      n_max: int = DEFAULT_N_MAX) -> tuple[int, tuple[int, ...]]:
    """Exact domination number and the lexicographically least witness.

    Iterative deepening from the counting lower bound; vertex 0 is forced
    into the set, which is sound because rotating any dominating set keeps
    it dominating.  The witness is re-checked against the connection set,
    without the cover masks, before it is returned.
    """
    n = inst.n
    if n > n_max:
        raise CapExceededError("n", n, n_max)
    cover = _cover_masks(inst)
    doms = _dominator_lists(inst)
    per_vertex = len(doms[0])
    full = (1 << n) - 1

    lower = -(-n // per_vertex)  # ceil
    for gamma in range(max(lower, 1), n + 1):
        found = _exists_cover(full & ~cover[0], gamma - 1, cover, doms, per_vertex)
        if found is not None:
            break
    else:  # k = n always works
        raise AssertionError(f"no dominating set of size <= {n} found")

    # grow the witness smallest-vertex-first; each prefix must keep a
    # feasible completion among strictly larger vertices.  `completion` is
    # one such completion: by minimality of gamma its smallest vertex covers
    # something new and is feasible, so only smaller vertices need a search
    witness = [0]
    completion = sorted(found)
    uncovered = full & ~cover[0]
    budget = gamma - 1
    while completion:
        for v in range(witness[-1] + 1, completion[0]):
            if not (cover[v] & uncovered):
                continue
            found = _exists_cover(uncovered & ~cover[v], budget - 1, cover, doms,
                                  per_vertex, v + 1)
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


def oracle_scan(s: GeneratorSet, n_limit: int,
                n_max: int = DEFAULT_N_MAX) -> list[tuple[int, int]]:
    """Domination numbers gamma(Z_n, S mod n) for every usable n up to n_limit."""
    if not s.elements:
        raise InputError("generator set must be nonempty")
    start = max(abs(x) for x in s) + 1
    if n_limit < start:
        raise InputError(f"n_limit {n_limit} below smallest usable modulus {start}")
    out = []
    for n in range(start, n_limit + 1):  # n > max|x|, so no generator is 0 mod n
        gamma, _ = domination_number(residues(s, n), n_max=n_max)
        out.append((n, gamma))
    return out


def ratio_oracle(s: GeneratorSet, n_limit: int,
                 n_max: int = DEFAULT_N_MAX) -> Fraction:
    """Least gamma(Z_n, S mod n)/n over n up to n_limit.

    Always an upper bound for the infinite-graph domination ratio; equal to
    it once n_limit reaches the period of an optimal periodic dominating
    set.
    """
    scan = oracle_scan(s, n_limit, n_max=n_max)
    return min(Fraction(gamma, n) for n, gamma in scan)
