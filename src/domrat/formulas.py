"""Closed-form domination values for special generator families.

These are pure lookups used as ground truth in tests and for fast answers
without running the state-graph engine.  Case dispatch on negative
arguments is done with exact integer arithmetic on the family parameter k,
never with language-level remainders of possibly surprising sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .core import GeneratorSet
from .errors import InputError


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def ratio_one_s(s: int) -> Fraction:
    """Domination ratio of the digraph generated by {1, s}, s not in {0, 1}.

    Five mutually exclusive cases cover every such s:
      s = 3k+2 (any k)        -> 1/3
      s = 3k+1 or s = -3k, k >= 1 -> (k+1)/(3k+2)
      s = 3k   or s = -3k+1, k >= 1 -> 2k/(6k-1)
    """
    if s in (0, 1):
        raise InputError(f"s={s} outside the {{1,s}} family domain")
    if s % 3 == 2:
        return Fraction(1, 3)
    if s > 0 and s % 3 == 1:
        k = (s - 1) // 3
        return Fraction(k + 1, 3 * k + 2)
    if s < 0 and s % 3 == 0:
        k = -s // 3
        return Fraction(k + 1, 3 * k + 2)
    if s > 0 and s % 3 == 0:
        k = s // 3
        return Fraction(2 * k, 6 * k - 1)
    # remaining case: s < 0 with s = -3k+1
    k = (1 - s) // 3
    return Fraction(2 * k, 6 * k - 1)


def _check_dividing_pair(s: int, t: int) -> int:
    if s == 0 or t == 0:
        raise InputError("pair elements must be nonzero")
    if s == t:
        raise InputError("pair elements must be distinct")
    if t % s != 0:
        raise InputError(f"{s} does not divide {t}")
    return t // s


def ratio_pair_dividing(s: int, t: int) -> Fraction:
    """Domination ratio for {s, t} with s dividing t: scaling by s reduces
    the digraph to |s| disjoint copies of the one generated by {1, t/s}."""
    return ratio_one_s(_check_dividing_pair(s, t))


def eds_predicted(s: int, t: int) -> bool:
    """Whether {s, t} with s | t admits a set dominating everything exactly
    once: true iff t/s is congruent to 2 mod 3."""
    return _check_dividing_pair(s, t) % 3 == 2


def circulant_consecutive(n: int, s: int) -> int:
    """gamma(Z_n, {1, ..., s}) = ceil(n/(s+1)) for 1 <= s <= n-1."""
    if not 1 <= s <= n - 1:
        raise InputError(f"consecutive family needs 1 <= s <= n-1, got n={n}, s={s}")
    return _ceil_div(n, s + 1)


def circulant_pm13(n: int) -> int:
    """gamma(Z_n, {+-1, +-3}) for n >= 7: ceil(n/5), plus 1 when n = 4 mod 5."""
    if n < 7:
        raise InputError(f"undirected {{1,3}} family needs n >= 7, got {n}")
    return _ceil_div(n, 5) + (1 if n % 5 == 4 else 0)


def circulant_one_s(n: int, s: int) -> Optional[int]:
    """gamma(Z_n, {1, s}) for 1 < s < n where it is known exactly: 2k at
    n = 6k-1, s = 3k.  None where only bounds are known (see
    circulant_bounds_one_s)."""
    if not 1 < s < n:
        raise InputError(f"{{1,s}} family needs 1 < s < n, got n={n}, s={s}")
    if s % 3 == 0 and n == 2 * s - 1:
        return 2 * (s // 3)
    return None


def circulant_bounds_one_s(n: int, s: int) -> tuple[int, int]:
    """Bounds ceil(n/3) <= gamma(Z_n, {1, s}) <= ceil(n/2) for 1 < s < n."""
    if not 1 < s < n:
        raise InputError(f"needs 1 < s < n, got n={n}, s={s}")
    return _ceil_div(n, 3), _ceil_div(n, 2)


def circulant_bounds_pm_one_s(n: int, s: int) -> tuple[int, int]:
    """Bounds ceil(n/5) <= gamma(Z_n, {+-1, +-s}) <= ceil(n/3)."""
    if not 1 < s < _ceil_div(n, 2):
        raise InputError(f"needs 1 < s < ceil(n/2), got n={n}, s={s}")
    return _ceil_div(n, 5), _ceil_div(n, 3)


def circulant_pm1s_eds(n: int, s: int) -> bool:
    """Whether the undirected circulant with steps 1 and s has a set
    dominating everything exactly once: true iff 5 | n and s = +-2 mod 5."""
    if not 1 < s < _ceil_div(n, 2):
        raise InputError(f"needs 1 < s < ceil(n/2), got n={n}, s={s}")
    return n % 5 == 0 and s % 5 in (2, 3)


def cong_family(s: int, offsets: Sequence[int]) -> GeneratorSet:
    """Generator set { offsets[r-1]*(s+1) + r : r = 1..s }.

    One element in each nonzero residue class mod s+1, so the multiples of
    s+1 dominate everything exactly once and the ratio is 1/(s+1).
    """
    if s < 0:
        raise InputError(f"family size must be nonnegative, got {s}")
    if len(offsets) != s:
        raise InputError(f"expected {s} offsets, got {len(offsets)}")
    return GeneratorSet(offsets[r - 1] * (s + 1) + r for r in range(1, s + 1))
