"""Exact domination numbers of circulant digraphs.

A circulant digraph on Z_n with connection set C (least positive residues)
has an edge u -> u+r mod n for every r in C.  The solver is a plain exact
branch-and-bound over bitmask coverage, small enough to serve as an
independent cross-check for the infinite-graph engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import GeneratorSet
from .errors import CapExceededError, InputError, ZeroResidueError

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
                  doms: list[list[int]], per_vertex: int, min_vertex: int = 0) -> bool:
    """Can `budget` vertices (all >= min_vertex) cover the uncovered mask?

    Depth-first, on an explicit stack with one (uncovered, budget left,
    untried candidates) entry per level, so that the depth, up to budget,
    never meets Python's recursion limit."""
    if not uncovered:
        return True
    if budget <= 0 or uncovered.bit_count() > budget * per_vertex:
        return False
    stack = []
    while True:
        # branch on the least-coverable uncovered vertex; with a fixed
        # connection set all vertices tie, so this is the lowest one
        best = None
        u = uncovered
        while u:
            j = (u & -u).bit_length() - 1
            cands = [v for v in doms[j] if v >= min_vertex]
            if best is None or len(cands) < len(best):
                best = cands
                if len(cands) <= 1:  # forced; or none, and the branch fails
                    break
            u &= u - 1
        if best:
            stack.append((uncovered, budget - 1, iter(best)))
        while stack:  # the next candidate not cut off, deepest level first
            level, budget, untried = stack[-1]
            for v in untried:
                uncovered = level & ~cover[v]
                if not uncovered:
                    return True
                if budget > 0 and uncovered.bit_count() <= budget * per_vertex:
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return False


def domination_number(inst: CirculantInstance,
                      n_max: int = DEFAULT_N_MAX) -> tuple[int, tuple[int, ...]]:
    """Exact domination number and the lexicographically least witness.

    Iterative deepening from the counting lower bound; vertex 0 is forced
    into the set, which is sound because rotating any dominating set keeps
    it dominating.
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
        if _exists_cover(full & ~cover[0], gamma - 1, cover, doms, per_vertex):
            break
    else:  # k = n always works
        raise AssertionError(f"no dominating set of size <= {n} found")

    # grow the witness smallest-vertex-first; each prefix must keep a
    # feasible completion among strictly larger vertices
    witness = [0]
    uncovered = full & ~cover[0]
    budget = gamma - 1
    min_next = 1
    while uncovered:
        for v in range(min_next, n):
            if not (cover[v] & uncovered):
                continue
            if _exists_cover(uncovered & ~cover[v], budget - 1, cover, doms,
                             per_vertex, v + 1):
                witness.append(v)
                uncovered &= ~cover[v]
                budget -= 1
                min_next = v + 1
                break
        else:
            raise AssertionError("witness reconstruction failed")
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
    for n in range(start, n_limit + 1):
        if any(x % n == 0 for x in s):
            continue
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
