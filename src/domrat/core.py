"""Domain types for domination in integer distance digraphs.

The digraph on the integers generated by a finite set S of nonzero steps has
an edge g -> g+s for every s in S, so a vertex u dominates v exactly when
v - u lies in S union {0}.  Everything here is exact: densities and ratios
are `fractions.Fraction`, sets of integers are finite descriptions of
periodic subsets of Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InputError


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of nonzero integer steps, kept sorted.

    The derived bounds `a` (largest forward step, at least 0), `b` (largest
    backward step, at least 0) and `c = a + b` control the window width used
    by the state-graph engine.
    """

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int] = ()):
        elems = []
        for x in elements:
            if not _is_int(x):
                raise InputError(f"generator {x!r} is not an integer")
            if x == 0:
                raise InputError("0 is not allowed as a generator")
            elems.append(x)
        if len(set(elems)) != len(elems):
            raise InputError(f"duplicate generators in {elems}")
        object.__setattr__(self, "elements", tuple(sorted(elems)))

    @property
    def a(self) -> int:
        return max(0, *self.elements) if self.elements else 0

    @property
    def b(self) -> int:
        return -min(0, *self.elements) if self.elements else 0

    @property
    def c(self) -> int:
        return self.a + self.b

    def negate(self) -> "GeneratorSet":
        return GeneratorSet(-x for x in self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class PeriodicSet:
    """A periodic subset of Z given by its period and residues in [1, period].

    The described set is { r + k*period : r in residues, k in Z }.
    """

    period: int
    residues: frozenset[int]

    def __init__(self, period: int, residues: Iterable[int]):
        if not _is_int(period) or period < 1:
            raise InputError(f"period {period!r} is not a positive integer")
        res = tuple(residues)
        for r in res:
            if not _is_int(r) or not 1 <= r <= period:
                raise InputError(f"residue {r!r} is not an integer in [1,{period}]")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", frozenset(res))

    def __contains__(self, x: int) -> bool:
        return (x - 1) % self.period + 1 in self.residues

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.period)

    def sorted_residues(self) -> tuple[int, ...]:
        return tuple(sorted(self.residues))


@dataclass(frozen=True)
class BlockStructure:
    """Sizes of the gaps between consecutive members of a periodic set.

    The sequence is implicitly repeated two-way infinitely, so two rotations
    of the same sizes describe translates of the same set; equality and
    hashing are therefore rotation-invariant.  Use `.sizes` directly when
    exact sequence identity matters.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        sz = tuple(sizes)
        if not sz:
            raise InputError("block structure needs at least one block")
        for v in sz:
            if not _is_int(v) or v < 1:
                raise InputError(f"block size {v!r} is not a positive integer")
        object.__setattr__(self, "sizes", sz)

    @property
    def period(self) -> int:
        return sum(self.sizes)

    def canonical_rotation(self) -> tuple[int, ...]:
        """Lexicographically least rotation of the sizes sequence."""
        s = self.sizes
        return min(s[i:] + s[:i] for i in range(len(s)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockStructure):
            return NotImplemented
        return self.canonical_rotation() == other.canonical_rotation()

    def __hash__(self) -> int:
        return hash(self.canonical_rotation())


def blocks_to_periodic(bs: BlockStructure) -> PeriodicSet:
    """Periodic set whose members are 1 and the partial sums of the sizes.

    The result has one residue per block and period equal to the sum of
    the sizes.
    """
    acc = 1
    residues = []
    for size in bs.sizes:
        residues.append(acc)
        acc += size
    return PeriodicSet(bs.period, residues)


def periodic_to_blocks(u: PeriodicSet) -> BlockStructure:
    """Gap sequence of a nonempty periodic set, starting at its least residue."""
    if not u.residues:
        raise InputError("empty periodic set has no block structure")
    rs = u.sorted_residues()
    sizes = [rs[i + 1] - rs[i] for i in range(len(rs) - 1)]
    sizes.append(rs[0] + u.period - rs[-1])
    return BlockStructure(sizes)


def verify_dominating(u: PeriodicSet, s: GeneratorSet) -> bool:
    """Decide whether the periodic set dominates the digraph generated by s.

    By periodicity it is enough that the positions the residues dominate,
    r + step for step in {0} union S taken mod p, fill all p residues.  Each
    residue dominates at most |S| + 1 of them, so a longer period fails at
    once, and the cost follows the number of residues, not the period.
    """
    p = u.period
    if p > len(u.residues) * (len(s) + 1):
        return False
    return len({(r + d) % p for r in u.residues for d in (0, *s)}) == p


def coverage_counts(u: PeriodicSet, s: GeneratorSet) -> list[int]:
    """How many members of the set dominate each j in [1, period].

    Each shift in {0} union S contributes a distinct potential dominator
    j - shift, so counting shifts counts dominating vertices.
    """
    p = u.period
    counts = []
    for j in range(1, p + 1):
        n = 1 if j in u.residues else 0
        n += sum(1 for step in s if (j - step - 1) % p + 1 in u.residues)
        counts.append(n)
    return counts
