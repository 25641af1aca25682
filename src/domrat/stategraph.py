"""State-graph engine for exact domination ratios of integer distance digraphs.

With a = largest forward step, b = largest backward step and c = a + b, the
integers split into consecutive length-c windows, and the intersection of a
dominating set with one window (a "state", stored as a c-bit mask, bit i for
element i+1 of [1, c]) interacts only with its two neighbours.  A pair
(T, T') of adjacent window contents is consistent exactly when every j in
[a+1, c+a] is in or dominated by T together with T' shifted right by c;
nothing outside those two windows can reach j.

Doubly infinite walks in the digraph of consistent pairs correspond to
dominating sets, the minimum density equals the minimum cycle mean of state
weights divided by c, and repeating the minimizing cycle yields a periodic
witness of period (cycle length) * c <= c * 2^c.

The consistency test factors through two per-state masks over the window:

    uncovered(T) = window positions not dominated by T alone
    covers(T')   = window positions dominated by T' shifted right by c

    (T, T') consistent  <=>  uncovered(T) is a subset of covers(T')

so the whole edge relation is two arrays of 2^c masks, never a 2^c x 2^c
table.  Potentials feasible at a mean mu = p/q are integers y with
y(v) <= y(u) + q*w(v) - p on every edge u -> v.  Round a cycle those
slacks sum to q*(its weight) - p*(its length), so with mu the minimum mean
the minimizing cycles are exactly the cycles of tight (zero-slack) edges,
whichever feasible y is read.  Both ways of finding mu below end with such
a y, and the canonical cycle is read off it; so it cannot depend on which
way found mu.  Each way packs (value, state) into one int64 as
value << c | state, so a single subset-minimum transform carries both the
least value over a state's predecessors and its argmin.

Below 2^14 states mu is found by Howard's policy iteration (Cochet-Terrasson
et al. 1998; Dasdan 2004; see _howard).  A policy gives each state one
predecessor.  Its cycles are labelled by pointer doubling, and pointer
jumping to a root on each cycle gives every state its cycle's mean and a
potential; one transform per iteration switches states to better
predecessors, until a round switches none and the potentials are feasible.
This rests on a hub.  The full state [1, c] dominates its whole window
(the positions above c by step a), and so does its copy shifted right by c
(the positions up to c by step -b): uncovered(full) is empty and
covers(full) is everything, so the full state has an edge to and from
every state.  The graph is then strongly connected: while the policy
cycles' means differ, some state has a predecessor of lower mean.

From 2^14 states on, where Howard is not yet faster on every set (see
_SPARSE_MIN_STATES), mu is found by testing candidate means exactly:
subtracting p from q-scaled weights makes cycles below mu negative, and a
vectorized Bellman-Ford pass either certifies none exist or yields a
strictly better cycle from its predecessor pointers.  Those pointer cycles,
like the policy's, are the states left once the image of the pointer map
stops shrinking under squaring, at a cost that follows that image, not
2^c.  Each test after the first starts its values on the cycle the previous
test found, not at zero: that reaches the same fixpoint, often in far fewer
rounds.  Once a round improves only a few states, later rounds keep the
transform and lower it just at the supermasks of those states' masks,
re-evaluating only the states whose predecessor minimum fell.

The transform runs bit by bit, each pass one ufunc call on views of one
buffer that are made once per solve, since on small graphs making them
cost half as much as the calls; on large arrays it runs with a small ufunc
buffer, its low bits block by cache-sized block (see _subset_transform).
The canonical cycle is read off the tight edges of the final potentials: a
prune by subset transforms (finished on explicit edges once few pairs are
left) keeps the states on tight cycles, its first predecessor test read
off the last round's transform, and the shortest-cycle search looks up a
state's tight predecessors among them when it first needs them.  All
arithmetic is integer/Fraction; no floating point anywhere.

Sets dominating every integer exactly once use the same masks.  A pair
covers each window position exactly once iff neither side covers any
position twice on its own and

    uncovered(T) == covers(T')

(the ratio path needs only the subset).  Member x with step d and member
y with step d' hit the same position iff x - y = d' - d, so a state is
single (covers no position twice, on either side) iff no two of its
members differ by an element of Delta = {d' - d : d < d' in S u {0}}.
For such a state covers(T) determines T (see eds_exists), so each state
has at most one exact successor: exact transitions form a pointer map,
and a periodic witness is one of its cycles, found as the threshold tests
find the cycles of their predecessor pointers.

A set whose steps share a factor g = gcd(S) > 1 is solved on S/g, with
c' = c/g, and its canonical cycle is lifted.  Window position g(x-1) + r,
for r in [1, g], is position x of residue class r, and a position and all
its dominators lie in one class, with differences g times those of S/g;
the ranges [1, c] and [a+1, a+c] map to [1, c'] and [a'+1, a'+c'].  So a
state T of S is g states T_r of S/g, with bit k of T_r at bit g*k + r-1
of T, (T, U) is consistent iff every (T_r, U_r) is, and |T| is the sum of
the |T_r|: S's state graph is the g-fold product of that of S/g.  Hence:

  * A product cycle of length L projects to a closed walk of length L in
    each factor.  Each walk weighs at least L*mu', mu' the factor's minimum
    mean, so mu = g*mu', and the diagonal of a factor cycle attains it.
  * On a minimizing product cycle every projection weighs exactly L*mu', so
    it splits into minimizing factor cycles, one of them at most L long;
    the shortest minimizing product cycle has the factor's shortest length
    L'.  A projection of length L' is then one such cycle, rotated.
  * If T_r <= U_r in every factor, with one strict, then T < U: the highest
    bit where T and U differ is the highest differing bit of some factor.
    The factor's canonical cycle w, started at its least state, is
    lexicographically at most every rotation of every shortest minimizing
    cycle.  So at the first index where a shortest minimizing product
    cycle P leaves the diagonal of w, each factor of P is at least w's
    state there and one is larger: the diagonal wins, factor by factor.

So S's canonical cycle spreads bit k of each state of the canonical cycle
of S/g to bits g*k ... g*k+g-1, its ratio is mu'/c', and its witness is
{g(x-1) + r : x in W', 1 <= r <= g} with period g*p'.  With g = 1 the
spread is the identity.

The perfect witness of S is the same spread of that of S/g:

  * A state of S is single iff each of its g factors is: Delta(S) =
    g*Delta(S/g), so two members at a Delta(S) difference lie in one
    residue class, as members of one factor at a Delta(S/g) difference.
    Interleaving is a bijection on masks, so covers(U) == uncovered(T)
    iff that holds in every factor: S's exact successor is the product of
    those of S/g, factor by factor.
  * So a product state lies on an exact cycle iff every factor does: L
    steps return it iff they return each factor, and factor cycles of
    lengths L_r all close after lcm(L_r) steps.
  * Covers are distinct among single states, and interleaved masks are
    ordered factor by factor (as above), so the product cycle state of
    least covers is the diagonal of S/g's, and so is its cycle.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GeneratorSet, PeriodicSet, coverage_counts, verify_dominating
from .errors import CapExceededError, CertificateError, InputError

# Freed arrays stay mapped: with glibc's dynamic thresholds a call at c >= 16
# faulted its 25-75 MB afresh or not by where small blocks sat (see README).
with contextlib.suppress(AttributeError, OSError, TypeError):  # no mallopt
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's upper limit: c <= 22
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD

DEFAULT_C_MAX = 16
# largest c the engine represents, whatever c_max says: threshold rounds pack
# (value, state) into one int64 under the key _INF = 2^61, and a state with
# no predecessor stays above every value only for c <= 28 (see _INF)
C_LIMIT = 28


def state_elements(t: int) -> tuple[int, ...]:
    """Members of [1, c] present in a state bitmask."""
    # tuple() of a list, not of a generator: that one is built by resizing,
    # and CPython files the freed tuple in the free list of a size it was not
    # taken from, so per-call tuples pile up there until a full collection
    # (ru_maxrss crept about 0.1 MB a pass over perfbench's ratio_swarm sets)
    return tuple([i + 1 for i in range(t.bit_length()) if t >> i & 1])


def state_of(elements) -> int:
    """Bitmask for a collection of elements of [1, c]."""
    m = 0
    for e in elements:
        if e < 1:
            raise InputError(f"state element {e} out of range")
        m |= 1 << (e - 1)
    return m


@dataclass(frozen=True, eq=False)
class StateGraph:
    """All 2^c states with the consistency relation as per-state masks.

    Adjacency is implicit: state u has an edge to v iff uncovered[u] is a
    subset of covers[v].
    """

    c: int
    uncovered: np.ndarray
    covers: np.ndarray
    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return 1 << self.c


def _check_c(s: GeneratorSet, c_max: int) -> None:
    """Refuse an empty set, or one with c above min(c_max, C_LIMIT)."""
    if s.c < 1:
        raise InputError("generator set must be nonempty")
    cap = min(c_max, C_LIMIT)
    if s.c > cap:
        raise CapExceededError("c", s.c, cap)


def _masks(s: GeneratorSet, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uncovered and covers (see the module docstring) of int64 states of s."""
    c, a = s.c, s.a

    def coverage(line: np.ndarray) -> np.ndarray:
        # line bit i is position i+1; a member at x dominates x + step
        cov = line.copy()
        for step in s:
            cov |= (line << step) if step > 0 else (line >> -step)
        return cov

    window = np.int64(((1 << c) - 1) << a)  # line bits of positions [a+1, a+c]
    return (~coverage(states) & window) >> a, (coverage(states << c) & window) >> a


def build_state_graph(s: GeneratorSet, c_max: int = DEFAULT_C_MAX) -> StateGraph:
    """Construct the state graph for a nonempty generator set with
    c <= min(c_max, C_LIMIT), checked before anything is allocated."""
    _check_c(s, c_max)
    v = np.arange(1 << s.c, dtype=np.int64)
    return StateGraph(s.c, *_masks(s, v), np.bitwise_count(v).astype(np.int64))


# ---------------------------------------------------------------------------
# minimum mean cycle


# _subset_transform at c >= _UNBUFFERED_MIN_C runs its bit passes with a
# ufunc buffer of _BUFSIZE entries, and bits below _BLOCK_BITS block by block
# of 2^_BLOCK_BITS entries (1 MB).  Best of 6-400 interleaved runs on a
# 2-core x86-64 machine, numpy 2.4: at c = 13, 14, 16, 18, 20 and 22 the
# transform took 146, 185, 554 us, 2.77, 15.3 and 67.6 ms as the plain loop
# and 116, 113, 371 us, 1.56, 7.31 and 36.1 ms so.  At c = 12 it took 79
# against 81-86 us, as close as two runs of the plain loop came, so small
# graphs keep the plain loop and skip the 3 us of entering np.errstate.
# Blocks of 2^16 were 6-8% slower than 2^17 at c = 18..22, of 2^18 5-27%
# and of 2^12 twice as slow; buffers of 128 to 512 entries were within 5%
# of one another, 1024 3-10% slower and numpy's default 8192 27-41%.
_UNBUFFERED_MIN_C = 13
_BLOCK_BITS = 17
_BUFSIZE = 512


def _transform_plan(t: np.ndarray, c: int) -> tuple[bool, list]:
    """The passes of a subset transform of t, 2^c entries, built once.

    A plan is (buffered, passes): each pass is (out, in, order), views of t
    that _subset_transform hands a ufunc as is.  For supermasks build it on
    t[::-1]: index m of the reversed view is the complement of m.  Bit i
    combines each block of 2^i entries with the block below it, and the bits
    can run in any order.  For 2-, 4- and 8-entry blocks the inner loop is
    too short, so those bits run over the transposed view with C iteration
    order, whose inner loops are the long strided columns; measured for
    c = 1..18, that form was never slower.  From c = _UNBUFFERED_MIN_C on,
    bits 0 .. _BLOCK_BITS-1 run block by block (see _subset_transform).
    """
    k = min(c, _BLOCK_BITS) if c >= _UNBUFFERED_MIN_C else 0
    parts = [(block, range(k)) for block in t.reshape(-1, 1 << k)] if k else []
    passes = []
    for part, bits in parts + [(t, range(k, c))]:
        for i in bits:
            s = 1 << i
            if 1 <= i <= 3:
                cols = part.reshape(-1, 2 * s).T
                passes.append((cols[s:], cols[:s], "C"))
            else:
                tt = part.reshape(-1, 2, s)
                passes.append((tt[:, 1, :], tt[:, 0, :], "K"))
    return c >= _UNBUFFERED_MIN_C, passes


def _subset_transform(plan: tuple[bool, list], ufunc: np.ufunc) -> None:
    """In place on the plan's buffer t (see _transform_plan): t[m] becomes
    ufunc reduced over t at all submasks of m.

    min_mean_cycle builds its plans once, for every policy iteration or
    threshold round and every prune iteration: at c <= 12 each pass is one
    short ufunc call, and making its views afresh at every call cost about
    half as much again.

    From c = _UNBUFFERED_MIN_C on, two things make the passes cheaper.
    numpy buffers a ufunc's strided 2-D operands whose inner runs are short,
    in chunks of 8192 entries by default, and that copying made bits 4-11
    cost 2-5 times what a bit >= 12 costs at c = 18; a buffer of _BUFSIZE
    entries, set inside np.errstate (which restores it on exit), takes most
    of that away.  And an array of 2^18 entries or more does not fit the
    per-core L2 cache, so bits 0 .. _BLOCK_BITS-1 run block by block over
    2^_BLOCK_BITS entries, each block finished while it is cached, before
    the higher bits run over the whole array.  Below that c the passes run
    with no extra numpy call.
    """
    buffered, passes = plan
    if not buffered:
        for out, other, order in passes:
            ufunc(out, other, out=out, order=order)
        return
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        for out, other, order in passes:
            ufunc(out, other, out=out, order=order)


# Above every packed key.  Read as a key, it gives a state with no
# predecessor the value (_INF >> c) + q*w - p >= 2^(61-c) - (c+1)2^c > 0 >= y
# for c <= C_LIMIT = 28 (q <= 2^c, p <= (c+1)q), so such a state never improves
_INF = np.int64(1) << np.int64(61)

# min_mean_cycle runs Howard's policy iteration (_howard) on hub graphs of
# fewer than _SPARSE_MIN_STATES states, and threshold tests on the rest.  Best
# of 5 in-process runs each (2 vCPU, numpy 2.4), Howard against the threshold
# tests: {1,16}, {1,17}, {1,18} took 24, 31, 76 ms against 25, 15, 55 ms,
# most of the loss its pointer jumping over all 2^c states at each iteration;
# six random 3-element sets at c = 15..17 took 0.19-1.29 times as long, median
# 0.73.  A scratch prototype of the same method took 3.24 s against 3.81 s
# on {-19,3} at c = 22, and 1.13 s against 0.73 s on {1,21}, one run each.
# A threshold round is sparse (see _test_threshold) when the masks of the
# states the last round improved have fewer than n / _SPARSE_SHARE
# supermasks in all.  A sparse round makes some 10c small numpy calls
# whatever n is, and wins from c = 14 on (6 ms a round at c = 18).  The
# share caps the supermasks a sparse round can enumerate; any share from 1
# to 64 timed the same on the c = 16..18 sets.
_SPARSE_MIN_STATES = 1 << 14
_SPARSE_SHARE = 8


@dataclass
class _ThresholdResult:
    converged: bool
    y: np.ndarray | None = None
    mean: Fraction | None = None
    cycle: list[int] | None = None  # a cycle of that mean, in edge order


def _pointer_cycle_nodes(f: np.ndarray, nxt: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Nodes on cycles of the pointer map f (f[v] == -1: none), ascending.

    The cycle nodes are the fixpoint image of the pointer map, nodes without
    a pointer being sinks.  D starts as the image of f over the nodes with
    a pointer; each step squares nxt on D, so that nxt[v] is 2^k steps along
    v's walk, and sets D to nxt[D] less the sinks.  D only shrinks, and once
    a step keeps its size nxt permutes D: D is then exactly the cycle nodes.
    nxt and pos are int64 scratch arrays of length n, overwritten.
    """
    n = f.shape[0]
    mark = pos.view(np.bool_)[:n + 1]  # n + 1 of its 8n bytes, for n >= 1
    mark.fill(False)
    mark[f] = True  # a missing pointer (-1) marks the spare slot mark[n]
    d = np.flatnonzero(mark[:n])
    d = d[f[d] >= 0]  # ascending, and stays so
    walk, size = f, -1
    while d.size != size:
        size = d.size
        ahead = walk[d]
        ahead = np.where(f[ahead] < 0, ahead, walk[ahead])
        nxt[d] = ahead
        walk = nxt
        mark[d] = False
        mark[ahead] = True
        d = d[mark[d]]
    return d


def _orbit(f: np.ndarray, v: int) -> list[int]:
    """v, f[v], f[f[v]], ...: the cycle of the pointer map f through v."""
    cycle = [v]
    while (u := int(f[cycle[-1]])) != v:
        cycle.append(u)
    return cycle


def _label_cycles(f: np.ndarray, weights: np.ndarray, nxt: np.ndarray,
                  pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cycles of the pointer map f (f[v] == -1: none), each as its
    smallest node, ascending, with its length and total weight.

    Pointer doubling among the cycle nodes (_pointer_cycle_nodes) labels
    each cycle by its smallest node until a doubling lowers none; nxt and
    pos are scratch.
    """
    d = _pointer_cycle_nodes(f, nxt, pos)
    m = d.size
    lo = np.arange(m)
    pos[d] = lo
    step = pos[f[d]]
    while not np.array_equal(lower := np.minimum(lo, lo[step]), lo):
        lo, step = lower, step[step]

    # length and total weight of each cycle, at its label
    length = np.bincount(lo, minlength=m)
    heads = np.flatnonzero(length)  # ascending, as their smallest nodes
    total = np.zeros(m, dtype=np.int64)
    np.add.at(total, lo, weights[d])
    return d[heads], length[heads], total[heads]


def _scan_pred_cycles(pred: np.ndarray, weights: np.ndarray,
                      nxt: np.ndarray, pos: np.ndarray) -> tuple[Fraction, int] | None:
    """Smallest mean among the predecessor-pointer cycles, with the smallest
    node of the shortest such cycle whose smallest node is least; or None
    when there is no pointer cycle.

    Predecessor edges are real graph edges, so any pointer cycle is a real
    cycle; pointers are only (re)assigned on strict improvement, which makes
    every pointer cycle strictly negative for the current threshold, so
    every mean found is below it (_test_threshold checks that).  The cycles
    come from _label_cycles; nxt and pos are scratch.
    """
    heads, length, total = _label_cycles(pred, weights, nxt, pos)
    if not heads.size:
        return None  # every walk ends at a node without a pointer

    # smallest total per cycle length; disjoint cycles have fewer than
    # sqrt(2m) distinct lengths, m the cycle nodes, so few Fractions are built
    by_length = np.full(int(length.max()) + 1, _INF, dtype=np.int64)  # totals stay below c*2^c
    np.minimum.at(by_length, length, total)
    best, k = min((Fraction(int(by_length[k]), k), k)
                  for k in np.flatnonzero(by_length < _INF).tolist())
    return best, int(heads[np.argmax((length == k) & (total == by_length[k]))])


def _lower_supermasks(t: np.ndarray, masks: np.ndarray, keys: np.ndarray,
                      c: int) -> np.ndarray:
    """In place: t[m] becomes min(t[m], key) for every supermask m of each
    (mask, key) pair; returns the masks where t fell, with repeats.

    t must already be a subset-minimum transform, so t[m'] <= t[m] for every
    supermask m' of m: a key not below t[m] lowers no supermask of m either.
    Each pair's supermasks are enumerated one bit at a time, in ascending bit
    order, so each is reached through a chain of its own submasks and the
    enumeration can drop a pair wherever it stops lowering t.
    """
    keep = keys < t[masks]
    masks, keys = masks[keep], keys[keep]
    for i in range(c):
        up = (masks & (1 << i)) == 0
        up_masks = masks[up] | (1 << i)
        up_keys = keys[up]
        keep = up_keys < t[up_masks]
        masks = np.concatenate((masks, up_masks[keep]))
        keys = np.concatenate((keys, up_keys[keep]))
    np.minimum.at(t, masks, keys)
    return masks


def _supermask_count(masks: np.ndarray, c: int) -> int:
    """Number of c-bit supermasks of the given masks, with repeats."""
    return int(np.left_shift(1, c - np.bitwise_count(masks).astype(np.int64)).sum())


def _test_threshold(g: StateGraph, t: np.ndarray, plan: tuple[bool, list],
                    mu: Fraction, seed: list[int] | None = None) -> _ThresholdResult:
    """Decide whether some cycle has mean < mu.

    Runs value iteration y(v) <- min(y(v), q*w(v) - p + min over consistent
    predecessors u of y(u)), the inner min taken through a subset-minimum
    transform keyed by the uncovered masks.  Convergence certifies that no
    cycle beats mu; otherwise a strictly better cycle is found in the
    predecessor pointers (guaranteed to exist by round n+1).

    y starts at 0, except on `seed`, a cycle of mean exactly mu in edge
    order: there y(v) is the weight of the stretch of the cycle from its
    highest prefix sum to v.  That is the weight of a real walk ending at
    v, so y starts between the fixpoint and 0 and iterates to the same
    potentials, usually in fewer rounds.

    Once few states improve per round (see _SPARSE_SHARE), the
    transform is kept from round to round instead of rebuilt: values only
    fall, so only the supermasks of the improved states' masks can fall,
    and only states whose covers mask fell can improve.  Those sparse
    rounds give the same y and pred as full rounds, ties included.  Either
    kind of round leaves t the transform of the packed y it started from,
    so a round that improves nothing leaves t exact for the final y.  t,
    2^c entries, is scratch for the test, and plan its minimum transform
    (_transform_plan).
    """
    uncovered, covers, weights, c, n = g.uncovered, g.covers, g.weights, g.c, g.n_states
    p, q = np.int64(mu.numerator), np.int64(mu.denominator)
    wq = q * weights - p
    y = np.zeros(n, dtype=np.int64)
    if seed is not None:
        phi = np.cumsum(wq[seed])  # closes at 0: the cycle's mean is mu
        y[seed] = phi - phi.max()
    pred = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    gval = np.empty(n, dtype=np.int64)
    cand = np.empty(n, dtype=np.int64)
    front = None  # the states the last round improved, while t is kept
    y_min = int(y.min())  # kept up to date, not recomputed at each round
    for rnd in range(1, n + 2):
        span = (1 - y_min) * n
        if span >= int(_INF):
            # y stays <= 0, so the keys y << c | node lie in [n - span, n).
            # mu = p/q has q <= n (a cycle length, or 1) and p <= (c+1)q, the
            # seed starts at most L*p <= n*p below 0, each round lowers min y
            # by at most p, and the check sees at most n rounds, so
            # span <= 2(c+1)n^3 + n < 2^61 for c <= 18
            raise CapExceededError("packed (value, node) span", span, int(_INF))
        if front is None:
            # pack (value, node) as y << c | node, so one transform yields
            # min value and its argmin; n == 1 << c, so the node is the low c
            # bits.  This loop sets the engine's peak memory, hence the
            # in-place updates and freeing `packed` before the next temporaries
            packed = y << c
            packed |= idx
            t.fill(_INF)
            np.minimum.at(t, uncovered, packed)
            del packed
            _subset_transform(plan, np.minimum)
            np.take(t, covers, out=gval, mode="clip")
            np.right_shift(gval, c, out=cand)
            cand += wq
            improved = cand < y
            if not improved.any():
                return _ThresholdResult(converged=True, y=y)
            np.copyto(y, cand, where=improved)
            y_min = int(y.min())
            np.bitwise_and(gval, n - 1, out=cand)
            np.copyto(pred, cand, where=improved)
            if np.count_nonzero(improved) * _SPARSE_SHARE < n:
                front = np.flatnonzero(improved)
            del improved  # n bytes, not to be alive through the cycle scan
        else:
            keys = y[front] << c
            keys |= front
            fell = np.zeros(n, dtype=bool)
            fell[_lower_supermasks(t, uncovered[front], keys, c)] = True
            front = np.flatnonzero(fell[covers])
            del fell
            best = t[covers[front]]
            val = (best >> c) + wq[front]
            better = val < y[front]
            front = front[better]
            if not front.size:
                return _ThresholdResult(converged=True, y=y)
            y[front] = val[better]
            y_min = min(y_min, int(val.min()))  # the rest of val is >= y
            pred[front] = best[better] & (n - 1)
        if (front is not None
                and _supermask_count(uncovered[front], c) * _SPARSE_SHARE >= n):
            front = None  # too many supermasks could fall: the next round is full
        if rnd & (rnd - 1) == 0 or rnd == n + 1:
            # gval and cand are dead until the next round
            found = _scan_pred_cycles(pred, weights, gval, cand)
            if found is not None:
                mean, node = found
                if mean >= mu:  # not an assert: it must hold under python -O
                    raise AssertionError(f"pointer cycle of mean {mean} not below {mu}")
                cycle = _orbit(pred, node)[::-1]  # pred points backwards
                return _ThresholdResult(converged=False, mean=mean, cycle=cycle)
            if rnd == n + 1:
                raise AssertionError("value iteration passed round n+1 without a cycle")
    raise AssertionError("unreachable")


def _evaluate_policy(pred: np.ndarray, weights: np.ndarray, nxt: np.ndarray,
                     pos: np.ndarray) -> tuple[Fraction | None, np.ndarray]:
    """Each state's cycle under the predecessor policy pred: (mu, y) when
    every policy cycle has mean mu = p/q, else (None, rank).

    rank(v) numbers the mean of the cycle v's pointers reach among the
    distinct cycle means, from 0 up.  y(v) is the weight of the policy path
    from that cycle's root, its smallest node, to v, each step into a state
    x weighing q*w(x) - p: y is 0 at the root and y(v) = y(pred(v)) +
    q*w(v) - p at every other state, also around the cycle, whose steps
    sum to 0.  Both follow the pointers to the root by pointer jumping,
    with each root pointing at itself.  nxt and pos are scratch (see
    _label_cycles).
    """
    roots, length, total = _label_cycles(pred, weights, nxt, pos)
    uniform = bool((total * length[0] == total[0] * length).all())
    np.copyto(nxt, pred)
    anc = nxt
    anc[roots] = roots
    if uniform:
        mu = Fraction(int(total[0]), int(length[0]))
        y = np.int64(mu.denominator) * weights - np.int64(mu.numerator)
        y[roots] = 0
    while not np.array_equal(up := anc[anc], anc):
        if uniform:
            y += y[anc]
        anc = up
    if uniform:
        return mu, y
    means = [Fraction(w, k) for w, k in zip(total.tolist(), length.tolist())]
    rank = {m: r for r, m in enumerate(sorted(set(means)))}
    pos[roots] = [rank[m] for m in means]
    return None, pos[anc]


def _howard(g: StateGraph, t: np.ndarray, plan: tuple[bool, list]) -> tuple[Fraction, np.ndarray]:
    """Minimum cycle mean mu and potentials y feasible at mu, by Howard's
    policy iteration, for a graph whose full state is a hub (see
    min_mean_cycle).  t, 2^c entries, is left the packed transform of the
    final y, as _test_threshold's certifying round leaves it; plan is its
    minimum transform.

    A policy gives each state one predecessor, at first its smallest.  Each
    iteration evaluates the policy (_evaluate_policy) and improves it with
    one subset-minimum transform, packed as in _test_threshold:
      * while the policy cycles' means differ, keyed rank << c | u, each
        state switches to its predecessor of least rank if that is below
        its own.  Ranks fall along switched pointers and hold along the
        rest, so every cycle of the new policy is an old one: no mean rises
        and the switched states' fall;
      * once they are all mu = p/q, keyed y << c | u, each state switches
        to its predecessor u of least y when y(u) + q*w(v) - p < y(v).  A
        new cycle through a switched state then has mean below mu, and
        otherwise y falls at every switched state and rises nowhere, since
        an unchanged cycle keeps its root.
    So no policy repeats.  A round that switches nothing leaves y(v) <=
    y(u) + q*w(v) - p on every edge u -> v: y is feasible at mu, which is
    the mean of a cycle, so mu is the minimum.  The hub has an edge to and
    from every state, so the graph is strongly connected: while the means
    differ, an edge leaves the states of the least one, and the mean round
    switches the state it enters.  No polynomial bound on the number of iterations is
    known; 1446 graphs with c <= 13, reduced or not, took at most 24, and
    at most 12 at c <= 8, so passing n + 1 is taken for a fault.
    """
    uncovered, covers, weights, c, n = g.uncovered, g.covers, g.weights, g.c, g.n_states
    idx = np.arange(n, dtype=np.int64)
    best = np.empty(n, dtype=np.int64)
    nxt, pos = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)

    def lowest(val: np.ndarray) -> np.ndarray:
        # best[v]: the least val(u) << c | u over the predecessors u of v; the
        # hub is one, so none reads the sentinel.  val spans 0, the roots' y
        # and the least rank, so the keys lie strictly between -span and span
        span = (int(val.max()) - int(val.min()) + 1) * n
        if span >= int(_INF):
            raise CapExceededError("packed (value, node) span", span, int(_INF))
        packed = val << c
        packed |= idx
        t.fill(_INF)
        np.minimum.at(t, uncovered, packed)
        del packed
        _subset_transform(plan, np.minimum)
        return np.take(t, covers, out=best)

    pred = lowest(np.zeros(n, dtype=np.int64)) & (n - 1)
    for _ in range(n + 1):
        mu, val = _evaluate_policy(pred, weights, nxt, pos)
        key = lowest(val) >> c
        if mu is not None:
            key += np.int64(mu.denominator) * weights - np.int64(mu.numerator)
        better = key < val
        if not better.any():
            if mu is None:  # not an assert: it must hold under python -O
                raise AssertionError("policy cycle means differ, but no state has a "
                                     "predecessor of lower mean")
            return mu, val
        np.copyto(pred, best & (n - 1), where=better)
    raise AssertionError(f"policy iteration passed {n + 1} iterations")


def _cycle_nodes(g: StateGraph, y: np.ndarray, tgt: np.ndarray, t: np.ndarray,
                 low: tuple[bool, list], high: tuple[bool, list]) -> np.ndarray:
    """States that can lie on a cycle of tight edges, ascending.

    Edge u -> v is tight when y(u) == tgt(v) (and u -> v is an edge); with
    converged potentials every minimizing cycle is all-tight and every
    all-tight cycle is minimizing.  Iteratively drop states lacking a tight
    successor or predecessor among the survivors.

    Converged y has tgt(v) <= y(u) on every edge, so "the minimum of y over
    v's surviving predecessors is tgt(v)" says "v has a tight predecessor",
    and likewise for successors with the maximum of tgt.  A dense iteration
    tests every state that way with two subset transforms over all n = 2^c
    masks, however few survive; one that drops nothing ends the prune.  The
    first needs only one: t is the certifying round's packed transform of
    y (_test_threshold), whose values t >> c are the predecessor minima
    over all states.  t is then the prune's scratch, overwritten, with low
    and high its minimum and maximum (on t[::-1]) transform plans.
    Otherwise the survivor pairs with y(u) == tgt(v) are counted by one
    sort and two searchsorted calls, and once they number at most n those
    pairs are expanded, the tight edges among them kept, and a state
    without a live in- or out-edge dropped until none is.  Both trims reach
    the same greatest fixpoint from any superset of it, so the switch
    cannot change the result.
    """
    uncovered, covers, c, n = g.uncovered, g.covers, g.c, g.n_states
    active = np.ones(n, dtype=bool)
    in_ok = (t[covers] >> c) == tgt  # _INF >> c is above every tgt (see _INF)
    for _ in range(n + 1):
        t.fill(-_INF)
        np.maximum.at(t, covers[active], tgt[active])
        _subset_transform(high, np.maximum)
        new_active = active & in_ok & (t[uncovered] == y)
        if np.array_equal(new_active, active):
            return np.flatnonzero(active)  # empty only if broken
        active = new_active
        nodes = np.flatnonzero(active)
        order = np.argsort(tgt[nodes])
        ts, yv = tgt[nodes[order]], y[nodes]
        lo = np.searchsorted(ts, yv)
        cnt = np.searchsorted(ts, yv, side="right") - lo
        if int(cnt.sum()) <= n:
            break
        t.fill(_INF)
        np.minimum.at(t, uncovered[active], y[active])
        _subset_transform(low, np.minimum)
        in_ok = t[covers] == tgt

    # the pairs (u, order[lo[u] + k]) for k < cnt[u], at most n of them
    m = nodes.size
    src = np.repeat(np.arange(m), cnt)
    dst = order[np.arange(src.size) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    keep = (uncovered[nodes[src]] & ~covers[nodes[dst]]) == 0  # the tight edges
    while True:
        src, dst = src[keep], dst[keep]
        live = (np.bincount(src, minlength=m) > 0) & (np.bincount(dst, minlength=m) > 0)
        keep = live[src] & live[dst]
        if keep.all():
            return nodes[live]


class _TightPreds(dict):
    """preds[i]: the indices u into nodes, unordered, with nodes[u] ->
    nodes[i] a tight edge, looked up on first use.  The candidates are one
    slice of the states sorted by y; the lists share one int per index."""

    def __init__(self, g: StateGraph, y: np.ndarray, tgt: np.ndarray, nodes: np.ndarray):
        self.order = np.argsort(y[nodes])
        ys, self.unc = y[nodes[self.order]], g.uncovered[nodes[self.order]]
        self.lo = np.searchsorted(ys, tgt[nodes]).tolist()
        self.hi = np.searchsorted(ys, tgt[nodes], side="right").tolist()
        self.miss, self.ids = ~g.covers[nodes], list(range(nodes.size))

    def __missing__(self, i: int) -> list[int]:
        cand = slice(self.lo[i], self.hi[i])
        hit = self.order[cand][(self.unc[cand] & self.miss[i]) == 0]
        self[i] = found = list(map(self.ids.__getitem__, hit.tolist()))
        return found


def _canonical_cycle(g: StateGraph, mu: Fraction, y: np.ndarray, t: np.ndarray,
                     low: tuple[bool, list], high: tuple[bool, list]) -> tuple[int, ...]:
    """Shortest minimizing cycle; ties to the lexicographically smallest
    state sequence started at its smallest state.

    Every cycle has a unique smallest node v, so one backward BFS from each
    v over the nodes larger than v finds the shortest cycle whose smallest
    node is v: it closes at the first layer holding a successor of v.  The
    first v reaching the global minimum length is the canonical start, and
    its BFS layers guide the walk around the cycle.  y and t are the
    certifying test's, low and high t's plans (see _cycle_nodes).
    """
    p, q = np.int64(mu.numerator), np.int64(mu.denominator)
    tgt = y - (q * g.weights - p)
    nodes = _cycle_nodes(g, y, tgt, t, low, high)
    preds = _TightPreds(g, y, tgt, nodes)

    best_len, best_layers = nodes.size + 1, None
    for v in range(nodes.size):
        # layers[d]: the nodes u > v whose shortest path u -> v has length d
        dist, layers, d = {v: 0}, [[v]], 0
        while layers[d] and d + 1 < best_len:  # layer d closes cycles of length d+1
            closes, nxt = False, []
            for x in layers[d]:
                for u in preds[x]:
                    if u == v:
                        closes = True
                    elif u > v and u not in dist:
                        dist[u] = d + 1
                        nxt.append(u)
            if closes:
                best_len, best_layers = d + 1, layers
                break
            d += 1
            layers.append(nxt)
        if best_len == 1:
            break
    if best_layers is None:
        raise AssertionError("no cycle in the tight subgraph")

    # With best_len the minimum length, a prefix of length best_len - r
    # can only continue through a node exactly r steps from the start, and
    # every such node completes a cycle, so the smallest one is always right.
    seq = [best_layers[0][0]]
    for layer in best_layers[:0:-1]:
        seq.append(min(j for j in layer if seq[-1] in preds[j]))
    return tuple(nodes[seq].tolist())


def min_mean_cycle(g: StateGraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum cycle mean and the canonical minimizing cycle.

    Edge weight into a state is that state's population count.  A graph of
    fewer than _SPARSE_MIN_STATES states whose full state is a hub, with an
    edge to and from every state as in every graph build_state_graph makes
    (see the module docstring), is solved by Howard's policy iteration
    (_howard).  Any other is solved by threshold tests: candidate means
    decrease strictly (each is achieved by an explicit cycle) until a
    convergence certificate shows no cycle beats the last one, and each test
    after the first starts from the cycle the previous test found.  Either
    way ends with potentials feasible at the minimum, which fix the
    canonical cycle whatever they are.  Every round and the canonical cycle
    share one transform buffer t, and the plans of its minimum and maximum
    transforms are built once here.
    """
    n = g.n_states
    t = np.empty(n, dtype=np.int64)
    low, high = _transform_plan(t, g.c), _transform_plan(t[::-1], g.c)
    if n < _SPARSE_MIN_STATES and g.uncovered[-1] == 0 and g.covers[-1] == n - 1:
        mu, y = _howard(g, t, low)
    else:
        mu = Fraction(g.c + 1)  # above any cycle mean, so the first test finds a cycle
        seed = None
        while not (result := _test_threshold(g, t, low, mu, seed)).converged:
            mu, seed = result.mean, result.cycle
        if mu == Fraction(g.c + 1):
            raise InputError("state graph has no cycle")
        y = result.y
    return mu, _canonical_cycle(g, mu, y, t, low, high)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class RatioCertificate:
    """Exact domination ratio plus everything needed to recheck it."""

    ratio: Fraction
    cycle: tuple[int, ...]
    witness: PeriodicSet
    period: int


def _reduced(s: GeneratorSet, c_max: int) -> tuple[int, GeneratorSet]:
    """g = gcd(S) and S/g.  The cap is checked on S's own c, so a set is
    refused exactly when its unreduced graph would be."""
    _check_c(s, c_max)
    g = math.gcd(*s)
    return g, GeneratorSet(x // g for x in s)


def _lift(cycle, g: int, c: int) -> tuple[tuple[int, ...], PeriodicSet]:
    """A cycle of S/g as S's cycle, bit k of each state spread to bits
    g*k ... g*k+g-1 (see the module docstring), and the periodic set laying
    the spread states side by side as S's length-c windows."""
    spread = (1 << g) - 1
    # lists, not generators: see state_elements
    cycle = tuple([sum(spread << g * k for k in range(c // g) if t >> k & 1) for t in cycle])
    return cycle, PeriodicSet(len(cycle) * c, [e + i * c for i, t in enumerate(cycle)
                                               for e in state_elements(t)])


def domination_ratio(s: GeneratorSet, c_max: int = DEFAULT_C_MAX) -> RatioCertificate:
    """Exact domination ratio with a periodic witness.

    The witness concatenates the canonical cycle's states as consecutive
    length-c windows; its density equals the ratio and its period is at most
    c * 2^c.  The cap applies to S's own c.  With g = gcd(S) the cycle is
    that of S/g, c' = c/g, with bit k of each state spread to bits
    g*k ... g*k+g-1 (see the module docstring), and the ratio is the
    reduced mean over c'.  The checks run against S itself.
    """
    c = s.c
    g, r = _reduced(s, c_max)
    mean, cycle = min_mean_cycle(build_state_graph(r, c_max))
    ratio = mean / r.c
    cycle, witness = _lift(cycle, g, c)
    period = witness.period
    if witness.density != ratio:
        raise CertificateError(f"witness density {witness.density} != {ratio} for {s}")
    if period > c * (1 << c):
        raise CertificateError(f"period {period} exceeds c*2^c for {s}")
    if not verify_dominating(witness, s):
        raise CertificateError(f"witness does not dominate for {s}")
    return RatioCertificate(ratio=ratio, cycle=cycle, witness=witness, period=period)


# ---------------------------------------------------------------------------
# efficient dominating sets (exact cover)


def _single_states(s: GeneratorSet) -> np.ndarray:
    """States of s hitting no position twice, ascending: x joins each state
    so far with no member at x - delta for delta in Delta (module docstring)."""
    delta = {e - d for d in (0, *s) for e in (0, *s) if e > d}
    states = np.zeros(1, dtype=np.int64)
    for x in range(1, s.c + 1):
        near = sum(1 << (x - 1 - d) for d in delta if d < x)
        states = np.concatenate((states, states[(states & near) == 0] | (1 << (x - 1))))
    return states


def eds_exists(s: GeneratorSet,
               c_max: int = DEFAULT_C_MAX) -> tuple[bool, PeriodicSet | None]:
    """Decide whether some set dominates every integer exactly once.

    Transitions are restricted to pairs covering each window position
    exactly once; such a set exists iff the restricted relation has a
    cycle, and any cycle unrolls into a periodic witness.  The states on
    one are single (see the module docstring): _single_states lists them.

    The restricted relation is a function, as tilings of Z are forced from
    left to right (D. J. Newman, "Tesselation of integers", 1977).  Take T
    with no window position covered twice.  A member x of T (an element of
    [1, c]) sits at x + c in the shifted copy and dominates x + c - b = x + a
    (by step -b, or step 0 when b = 0), its lowest window position; so
    min covers(T) = min T + a.  Peeling that member's positions off
    covers(T) leaves covers of the rest of T, since no position is covered
    twice, and repeating recovers T.  So covers(T) determines T, and T has
    at most one exact successor: the state whose covers mask equals
    uncovered(T).  The witness is the successor map's cycle through its
    cycle state of least covers.  Mirrored, the same argument (max T + a is
    the highest window position T hits) shows that uncovered(T) determines
    T, so no state off a cycle leads onto one, and a walk from each state in
    ascending-covers order would close first at that same state.

    As in domination_ratio, the cap applies to S's own c, and the cycle of
    S/g, g = gcd(S), is spread to S's states and unrolled at S's c (see the
    module docstring); the exact cover is checked against S itself.
    """
    g, r = _reduced(s, c_max)
    states = _single_states(r)
    uncovered, covers = _masks(r, states)
    order = np.argsort(covers)  # distinct covers, see above
    states, keys, want = states[order], covers[order], uncovered[order]
    found = np.searchsorted(keys, want)
    succ = np.where(keys.take(found, mode="clip") == want, found, -1)
    on_cycle = _pointer_cycle_nodes(succ, np.empty_like(succ), np.empty_like(succ))
    if not on_cycle.size:
        return False, None
    _, witness = _lift(states[_orbit(succ, int(on_cycle[0]))].tolist(), g, s.c)
    if any(k != 1 for k in coverage_counts(witness, s)):
        raise CertificateError(f"EDS witness does not cover exactly once for {s}")
    return True, witness
