"""Whole-suite verification: every published closed form rechecked by engine.

Each criterion is a generator of (label, check) cases, and one builder,
`_row`, turns every case into its row: check() returns (ok, detail), and the
row is PASS or FAIL by ok, or SKIP when ok is None or an engine refuses the
instance for a cap.  So a SKIP means one of two things: a cap refused the
instance (the detail names the cap), or a tally checked nothing (the detail
counts 0).  All randomness is drawn from a fixed seed so repeated runs are
identical.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
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
# {1,14}, {-6,1}, {1,7}) take about 0.04 s in all on the solver, so the cap is
# at least 56.  The next period, 60 for {-9,3}, takes about 1 s (2 vCPU,
# Python 3.11); a higher cap would turn SKIP rows into PASS rows.
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


def _row(criterion, label, check):
    """The row of check() -> (ok, detail): SKIP when ok is None or when an
    engine refuses the instance for a cap, so rows skip at exactly the
    engines' caps."""
    try:
        ok, detail = check()
    except CapExceededError as exc:
        ok, detail = None, f"{exc.what}={exc.value} above cap {exc.cap}"
    status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    return Row(criterion, label, status, detail)


def _agree(got, want, what):
    return got == want, f"got {got}, {what} {want}"


def _failures(count, what, bad):
    """A tally of count checks, bad of them failed; SKIP when it checked none."""
    return bad == 0 if count else None, f"{count} {what}, {bad} failures"


# s of the {1,s} sets in criteria 1, 7 and 8
_ONE_S = [s for s in range(-12, 15) if s not in (0, 1)]

# the sets whose certificates criteria 7 and 8 check
_PERIOD_SETS = ([GeneratorSet([1, s]) for s in _ONE_S]
                + [GeneratorSet([s, t]) for s, t in DIVIDING_PAIRS])

# The checks below close over their loop variables.  That is correct because
# run_verification calls each check before it resumes the criterion.


def _crit1(ctx):
    for s in _ONE_S:
        yield f"ratio {{1,{s}}}", lambda: _agree(
            ctx.ratio(GeneratorSet([1, s])).ratio, ratio_one_s(s), "formula")


def _crit2(ctx):
    for s, t in DIVIDING_PAIRS:
        yield f"ratio {{{s},{t}}}", lambda: _agree(
            ctx.ratio(GeneratorSet([s, t])).ratio, ratio_pair_dividing(s, t), "formula")


def _crit3(ctx):
    for s, t in DIVIDING_PAIRS + [(1, s) for s in range(-10, 12) if s not in (0, 1)]:
        def check():
            gs = GeneratorSet([s, t])
            exists, witness = eds_exists(gs, c_max=ctx.c_max)
            want = eds_predicted(s, t)
            if exists != want:
                return False, f"got {exists}, predicted {want}"
            if not exists:
                return True, "no efficient dominating set, as predicted"
            ok = all(k == 1 for k in coverage_counts(witness, gs))
            return ok, f"witness period {witness.period}, all counts 1: {ok}"
        yield f"eds {{{s},{t}}}", check


def _gamma_agrees(ctx, inst, want):
    return _agree(domination_number(inst, n_max=ctx.n_max)[0], want, "expected")


def _crit4(ctx):
    table = ([(3 * k + 2, 2, circulant_consecutive) for k in range(1, 9)]
             + [(6 * k - 1, 3 * k, circulant_one_s) for k in range(1, 5)])
    for n, s, formula in table:
        yield f"gamma(Z_{n},{{1,{s}}})", lambda: _gamma_agrees(
            ctx, residues(GeneratorSet([1, s]), n), formula(n, s))


def _crit5(ctx):
    for n in range(2, 16):
        def check():
            bad = []
            for s in range(1, n):
                gamma, _ = domination_number(CirculantInstance(n, range(1, s + 1)),
                                             n_max=ctx.n_max)
                want = circulant_consecutive(n, s)
                if gamma != want:
                    bad.append((s, gamma, want))
            return not bad, f"all s in [1,{n - 1}]" if not bad else str(bad)
        yield f"consecutive steps, n={n}", check


def _crit6(ctx):
    for n in range(7, 23):
        yield f"gamma(Z_{n},{{+-1,+-3}})", lambda: _gamma_agrees(
            ctx, residues(GeneratorSet([1, -1, 3, -3]), n), circulant_pm13(n))


def _crit7(ctx):
    cap = ctx.cross_n_max
    for gs in _PERIOD_SETS:
        def check():
            cert = ctx.ratio(gs)
            p = cert.period
            if p > cap:
                return None, f"period {p} above circulant cap {cap}"
            gamma, _ = domination_number(residues(gs, p), n_max=cap)
            want = cert.ratio * p
            return gamma == want, f"gamma(Z_{p})={gamma}, ratio*p={want}"
        yield f"period identity {gs}", check


def _crit8(ctx):
    worst = None
    count = 0
    for gs in _PERIOD_SETS:
        cert = ctx.ratio_within_caps(gs)
        if cert is None:
            continue
        bound = gs.c * (1 << gs.c)
        if cert.period > bound:
            yield (f"period bound {gs}",
                   lambda: (False, f"period {cert.period} > {bound}"))
            return
        count += 1
        worst = max(worst or 0, Fraction(cert.period, bound))
    yield "period bound c*2^c", lambda: (
        count > 0 or None, f"{count} certificates, worst period/bound = {worst}")


_PROPERTIES = ("negation symmetry", "superset monotonicity",
               "ratio within [1/(|S|+1), 1/2]", "witness dominates with density = ratio")


def _crit9(ctx):
    rng = random.Random(RNG_SEED)
    pool = [x for x in range(-8, 9) if x != 0]
    bad = Counter()
    checked = 0
    for _ in range(ctx.cases):
        els = rng.sample(pool, rng.randint(1, 3))
        gs = GeneratorSet(els)
        cert = ctx.ratio_within_caps(gs)
        if cert is None:
            continue
        checked += 1
        r, w = cert.ratio, cert.witness
        extra = rng.choice([x for x in pool if x not in els])
        sup = ctx.ratio_within_caps(GeneratorSet(els + [extra]))
        bad.update(label for label, failed in zip(_PROPERTIES, (
            ctx.ratio(gs.negate()).ratio != r,
            sup is not None and sup.ratio > r,
            not Fraction(1, len(els) + 1) <= r <= Fraction(1, 2),
            not (verify_dominating(w, gs) and w.density == r))) if failed)
    for label in _PROPERTIES:
        yield label, lambda: _failures(checked, "random sets", bad[label])

    for s in (1, 2, 3):
        certs = [ctx.ratio_within_caps(cong_family(s, offs))
                 for offs in itertools.product(range(-2, 3), repeat=s)]
        ratios = [cert.ratio for cert in certs if cert is not None]
        wrong = sum(r != Fraction(1, s + 1) for r in ratios)
        yield (f"congruence family size {s} has ratio 1/{s + 1}",
               lambda: _failures(len(ratios), "parameter choices", wrong))


def _crit10(ctx):
    for els in ORACLE_SETS:
        gs = GeneratorSet(els)

        def check():
            cert = ctx.ratio(gs)
            limit = max(cert.period, max(abs(x) for x in gs) + 1)
            got = ratio_oracle(gs, limit, n_max=ctx.cross_n_max)
            return (got == cert.ratio,
                    f"oracle {got} at n_limit {limit}, engine {cert.ratio}")
        yield f"oracle cross-check {gs}", check


def _crit11(ctx):
    rng = random.Random(RNG_SEED + 1)
    bad = 0
    trials = max(1000, ctx.cases)
    for _ in range(trials):
        sizes = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 12)))
        back = blockdsl.flatten(blockdsl.parse(blockdsl.render(BlockStructure(sizes))))
        bad += back.sizes != sizes
    yield "render/parse round trip", lambda: _failures(trials, "random structures", bad)

    bs = blockdsl.flatten(blockdsl.parse("(2 3)^5 7 (3 4)^2"))
    yield "alternating-blocks example", lambda: (
        len(bs.sizes) == 15 and bs.period == 46,
        f"{len(bs.sizes)} blocks, sum {bs.period}")


# criterion k is _CRITERIA_IN_ORDER[k - 1]
_CRITERIA_IN_ORDER = (_crit1, _crit2, _crit3, _crit4, _crit5, _crit6,
                      _crit7, _crit8, _crit9, _crit10, _crit11)


def run_verification(c_max: int = DEFAULT_C_MAX, n_max: int = DEFAULT_N_MAX,
                     cases: int = DEFAULT_CASES,
                     criteria=None) -> list[Row]:
    """Run all (or selected) criteria and return their rows."""
    if cases < 1:
        raise InputError(f"cases must be at least 1, got {cases}")
    numbers = range(1, len(_CRITERIA_IN_ORDER) + 1)
    if criteria is not None and not set(criteria) <= set(numbers):
        raise InputError(f"criteria lie in 1..{numbers[-1]}, got {sorted(criteria)}")
    ctx = _Context(c_max=c_max, n_max=n_max, cases=cases)
    return [_row(number, label, check)
            for number, criterion in zip(numbers, _CRITERIA_IN_ORDER)
            if criteria is None or number in criteria
            for label, check in criterion(ctx)]
