"""Whole-suite verification: every published closed form rechecked by engine.

Each criterion yields one or more rows with PASS/FAIL status; rows whose
instances exceed the configured caps are reported as SKIP.  All randomness
is drawn from a fixed seed so repeated runs are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import blockdsl
from .circulant import (
    DEFAULT_N_MAX,
    CirculantInstance,
    domination_number,
    ratio_oracle,
    residues,
)
from .core import (
    BlockStructure,
    GeneratorSet,
    coverage_counts,
    verify_dominating,
)
from .errors import CapExceededError, InputError
from .formulas import (
    circulant_consecutive,
    circulant_one_s,
    circulant_pm13,
    cong_family,
    eds_predicted,
    ratio_one_s,
    ratio_pair_dividing,
)
from .stategraph import DEFAULT_C_MAX, RatioCertificate, domination_ratio, eds_exists

RNG_SEED = 20260810

# random property-test cases drawn by criterion 9
DEFAULT_CASES = 500

DIVIDING_PAIRS = [(2, 4), (2, 8), (3, 6), (2, -6), (3, -9)]

# sets for the oracle cross-check: c <= 8 and certificate period <= 40,
# so a circulant scan can reach the period
ORACLE_SETS = [
    (1, 2), (1, -1), (1, 3), (1, -2), (1, 4), (1, -3), (1, 5), (1, -4),
    (1, 8), (1, -7), (2, 3), (2, -3), (2, 4), (2, -4), (2, 5), (2, 6),
    (3, 4), (3, 6), (3, -3), (-2, -3), (1, 2, 3), (2, 3, 5),
]


@dataclass
class Row:
    criterion: int
    label: str
    status: str  # PASS, FAIL or SKIP
    detail: str = ""


# The circulant solver's cap in the cross-checks of criteria 7 and 10.  The
# 7 period-identity rows with periods 33..56 ({-10,1}, {1,11}, {2,8}, {-6,2},
# {1,14}, {-6,1}, {1,7}) take about 0.6 s in all on the solver, so the cap is
# at least 56.  The next period, 60 for {-9,3}, takes about 46 s.
CROSS_CHECK_N_MAX = 56


@dataclass
class _Context:
    c_max: int
    n_max: int
    cases: int
    _ratio_memo: dict = field(default_factory=dict)

    @property
    def cross_n_max(self) -> int:
        return max(self.n_max, CROSS_CHECK_N_MAX)

    def ratio(self, s: GeneratorSet) -> RatioCertificate:
        if s.elements not in self._ratio_memo:
            self._ratio_memo[s.elements] = domination_ratio(s, c_max=self.c_max)
        return self._ratio_memo[s.elements]

    def ratio_within_caps(self, s: GeneratorSet) -> RatioCertificate | None:
        """ratio(s), or None when an engine cap refuses s."""
        try:
            return self.ratio(s)
        except CapExceededError:
            return None


def _row(criterion, label, ok, detail=""):
    return Row(criterion, label, "PASS" if ok else "FAIL", detail)


def _checked(criterion, label, check, *args):
    """The row of check(*args) -> (ok, detail), a SKIP when ok is None.  An
    engine that refuses the instance for a cap skips the row too, so rows
    skip at exactly the engines' caps."""
    try:
        ok, detail = check(*args)
    except CapExceededError as exc:
        ok, detail = None, f"{exc.what}={exc.value} above cap {exc.cap}"
    if ok is None:
        return Row(criterion, label, "SKIP", detail)
    return _row(criterion, label, ok, detail)


def _one_s_sets(lo, hi):
    for s in range(lo, hi + 1):
        if s in (0, 1):
            continue
        yield s, GeneratorSet([1, s])


# the sets whose certificates criteria 7 and 8 check
_PERIOD_SETS = ([gs for _, gs in _one_s_sets(-12, 14)]
                + [GeneratorSet([s, t]) for s, t in DIVIDING_PAIRS])


def _crit1(ctx):
    def check(s, gs):
        got, want = ctx.ratio(gs).ratio, ratio_one_s(s)
        return got == want, f"got {got}, formula {want}"

    for s, gs in _one_s_sets(-12, 14):
        yield _checked(1, f"ratio {{1,{s}}}", check, s, gs)


def _crit2(ctx):
    def check(s, t):
        got, want = ctx.ratio(GeneratorSet([s, t])).ratio, ratio_pair_dividing(s, t)
        return got == want, f"got {got}, formula {want}"

    for s, t in DIVIDING_PAIRS:
        yield _checked(2, f"ratio {{{s},{t}}}", check, s, t)


def _crit3(ctx):
    def check(s, t):
        gs = GeneratorSet([s, t])
        exists, witness = eds_exists(gs, c_max=ctx.c_max)
        want = eds_predicted(s, t)
        if exists != want:
            return False, f"got {exists}, predicted {want}"
        if not exists:
            return True, "no efficient dominating set, as predicted"
        ok = all(k == 1 for k in coverage_counts(witness, gs))
        return ok, f"witness period {witness.period}, all counts 1: {ok}"

    for s, t in DIVIDING_PAIRS + [(1, s) for s in range(-10, 12) if s not in (0, 1)]:
        yield _checked(3, f"eds {{{s},{t}}}", check, s, t)


def _gamma_check(ctx, inst, want):
    gamma, _ = domination_number(inst, n_max=ctx.n_max)
    return gamma == want, f"got {gamma}, expected {want}"


def _crit4(ctx):
    for k in range(1, 9):
        n = 3 * k + 2
        yield _checked(4, f"gamma(Z_{n},{{1,2}})", _gamma_check, ctx,
                       residues(GeneratorSet([1, 2]), n), circulant_consecutive(n, 2))
    for k in range(1, 5):
        n, s = 6 * k - 1, 3 * k
        yield _checked(4, f"gamma(Z_{n},{{1,{s}}})", _gamma_check, ctx,
                       residues(GeneratorSet([1, s]), n), circulant_one_s(n, s))


def _crit5(ctx):
    def check(n):
        bad = []
        for s in range(1, n):
            gamma, _ = domination_number(CirculantInstance(n, range(1, s + 1)),
                                         n_max=ctx.n_max)
            want = circulant_consecutive(n, s)
            if gamma != want:
                bad.append((s, gamma, want))
        return not bad, f"all s in [1,{n - 1}]" if not bad else str(bad)

    for n in range(2, 16):
        yield _checked(5, f"consecutive steps, n={n}", check, n)


def _crit6(ctx):
    for n in range(7, 23):
        yield _checked(6, f"gamma(Z_{n},{{+-1,+-3}})", _gamma_check, ctx,
                       residues(GeneratorSet([1, -1, 3, -3]), n),
                       circulant_pm13(n))


def _crit7(ctx):
    cap = ctx.cross_n_max

    def check(gs):
        cert = ctx.ratio(gs)
        p = cert.period
        if p > cap:
            return None, f"period {p} above circulant cap {cap}"
        gamma, _ = domination_number(residues(gs, p), n_max=cap)
        want = cert.ratio * p
        return gamma == want, f"gamma(Z_{p})={gamma}, ratio*p={want}"

    for gs in _PERIOD_SETS:
        yield _checked(7, f"period identity {gs}", check, gs)


def _crit8(ctx):
    worst = None
    count = 0
    for gs in _PERIOD_SETS:
        cert = ctx.ratio_within_caps(gs)
        if cert is None:
            continue
        bound = gs.c * (1 << gs.c)
        count += 1
        if cert.period > bound:
            yield _row(8, f"period bound {gs}", False,
                       f"period {cert.period} > {bound}")
            return
        frac = Fraction(cert.period, bound)
        if worst is None or frac > worst:
            worst = frac
    yield _row(8, "period bound c*2^c", True,
               f"{count} certificates, worst period/bound = {worst}")


def _random_sets(rng, count):
    pool = [x for x in range(-8, 9) if x != 0]
    for _ in range(count):
        size = rng.randint(1, 3)
        yield rng.sample(pool, size)


def _crit9(ctx):
    rng = random.Random(RNG_SEED)
    neg_bad = mono_bad = bounds_bad = wit_bad = 0
    checked = 0
    for els in _random_sets(rng, ctx.cases):
        gs = GeneratorSet(els)
        cert = ctx.ratio_within_caps(gs)
        if cert is None:
            continue
        checked += 1
        if ctx.ratio(gs.negate()).ratio != cert.ratio:
            neg_bad += 1
        extras = [x for x in range(-8, 9) if x != 0 and x not in els]
        sup = ctx.ratio_within_caps(GeneratorSet(els + [rng.choice(extras)]))
        if sup is not None and sup.ratio > cert.ratio:
            mono_bad += 1
        if not Fraction(1, len(els) + 1) <= cert.ratio <= Fraction(1, 2):
            bounds_bad += 1
        if not (verify_dominating(cert.witness, gs)
                and cert.witness.density == cert.ratio):
            wit_bad += 1
    yield _row(9, "negation symmetry", neg_bad == 0,
               f"{checked} random sets, {neg_bad} failures")
    yield _row(9, "superset monotonicity", mono_bad == 0,
               f"{checked} random sets, {mono_bad} failures")
    yield _row(9, "ratio within [1/(|S|+1), 1/2]", bounds_bad == 0,
               f"{checked} random sets, {bounds_bad} failures")
    yield _row(9, "witness dominates with density = ratio", wit_bad == 0,
               f"{checked} random sets, {wit_bad} failures")

    for s in (1, 2, 3):
        bad = tested = 0
        combos = [()]
        for _ in range(s):
            combos = [prev + (i,) for prev in combos for i in range(-2, 3)]
        for offs in combos:
            cert = ctx.ratio_within_caps(cong_family(s, offs))
            if cert is None:
                continue
            tested += 1
            if cert.ratio != Fraction(1, s + 1):
                bad += 1
        yield _row(9, f"congruence family size {s} has ratio 1/{s + 1}",
                   bad == 0, f"{tested} parameter choices, {bad} failures")


def _crit10(ctx):
    def check(gs):
        cert = ctx.ratio(gs)
        limit = max(cert.period, max(abs(x) for x in gs) + 1)
        got = ratio_oracle(gs, limit, n_max=ctx.cross_n_max)
        return got == cert.ratio, f"oracle {got} at n_limit {limit}, engine {cert.ratio}"

    for els in ORACLE_SETS:
        gs = GeneratorSet(els)
        yield _checked(10, f"oracle cross-check {gs}", check, gs)


def _crit11(ctx):
    rng = random.Random(RNG_SEED + 1)
    bad = 0
    trials = max(1000, ctx.cases)
    for _ in range(trials):
        length = rng.randint(1, 12)
        sizes = tuple(rng.randint(1, 9) for _ in range(length))
        bs = BlockStructure(sizes)
        back = blockdsl.flatten(blockdsl.parse(blockdsl.render(bs)))
        if back.sizes != sizes:
            bad += 1
    yield _row(11, "render/parse round trip", bad == 0,
               f"{trials} random structures, {bad} failures")

    text = "(2 3)^5 7 (3 4)^2"
    bs = blockdsl.flatten(blockdsl.parse(text))
    ok = len(bs.sizes) == 15 and bs.period == 46
    yield _row(11, "alternating-blocks example", ok,
               f"{len(bs.sizes)} blocks, sum {bs.period}")


_CRITERIA = {
    1: _crit1, 2: _crit2, 3: _crit3, 4: _crit4, 5: _crit5, 6: _crit6,
    7: _crit7, 8: _crit8, 9: _crit9, 10: _crit10, 11: _crit11,
}


def run_verification(c_max: int = DEFAULT_C_MAX, n_max: int = DEFAULT_N_MAX,
                     cases: int = DEFAULT_CASES,
                     criteria=None) -> list[Row]:
    """Run all (or selected) criteria and return their rows."""
    if cases < 1:
        raise InputError(f"cases must be at least 1, got {cases}")
    ctx = _Context(c_max=c_max, n_max=n_max, cases=cases)
    rows = []
    for number in sorted(_CRITERIA):
        if criteria is not None and number not in criteria:
            continue
        rows.extend(_CRITERIA[number](ctx))
    return rows
