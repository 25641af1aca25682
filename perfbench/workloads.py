"""The benchmark's workloads: seeded inputs, the pipeline per instance, and checks.

An instance is one generator set passed through its workload's whole
pipeline.  Every answer is checked twice: against reference.json, which
holds the seed-commit answer for every set a workload can draw, and by
checks that use no engine code (a few-line domination count, closed forms,
symmetry, the circulant bound).  A check that fails raises WrongAnswer.

domrat functions are always read as module attributes at call time, so the
tracer's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from domrat import blockdsl, circulant, core, formulas, stategraph
from domrat.core import GeneratorSet

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# ratio_swarm takes the sets criterion 9 of verify-paper draws from:
# elements from +-8, size 1..3, kept to c <= 12 so each instance stays a
# few milliseconds.  An instance solves S and -S, so only one of each pair
# is drawn.
SWARM_POOL = tuple(x for x in range(-8, 9) if x)
SWARM_C_MAX = 12

# ratio_wide: 2^16..2^18 states, against at most 2^12 in ratio_swarm.  An
# instance costs 0.3-1 s; c=20 would cost ~2.5 s and c=21 ~14 s, too long to
# time each instance several times in one run.
WIDE_C = (16, 17, 18)
WIDE_C_MAX = max(WIDE_C)

# circulant_scan: c <= 8 from +-6, one of each pair S, -S (gamma(Z_n, S)
# equals gamma(Z_n, -S) by reflection).  The scan cost grows steeply with n:
# a pass over these sets costs ~3.5 s to n=27 and ~9 s to n=30, so n_limit
# is 27 to let one run time every set several times.
CIRC_POOL = tuple(x for x in range(-6, 7) if x)
CIRC_C_MAX = 8
CIRC_N_LIMIT = 27


class WrongAnswer(Exception):
    """An answer differs from the reference or fails an independent check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# universes: every set a workload can draw, for the reference table


def _sets(pool, c_max) -> list[tuple[int, ...]]:
    """Sets from `pool` of size 1..3 and c <= c_max, one of each pair S, -S."""
    out = []
    for size in (1, 2, 3):
        for els in itertools.combinations(pool, size):
            if GeneratorSet(els).c <= c_max and _negate(els) not in out:
                out.append(els)
    return out


def _negate(els) -> tuple[int, ...]:
    return tuple(sorted(-x for x in els))


def swarm_universe() -> list[tuple[int, ...]]:
    return _sets(SWARM_POOL, SWARM_C_MAX)


def circulant_universe() -> list[tuple[int, ...]]:
    return _sets(CIRC_POOL, CIRC_C_MAX)


def wide_universe() -> list[tuple[int, ...]]:
    out = []
    for c in WIDE_C:
        for s in (c, 1 - c):
            out += [(1, s), (-1, -s)]
    return out


# ---------------------------------------------------------------------------
# checks that use no engine code


def _coverage(period: int, residues, steps) -> list[int]:
    members = set(residues)
    return [sum((j - d - 1) % period + 1 in members for d in (0, *steps))
            for j in range(1, period + 1)]


def _gaps(residues, period) -> tuple[int, ...]:
    rs = sorted(residues)
    return tuple(b - a for a, b in zip(rs, rs[1:])) + (rs[0] + period - rs[-1],)


def _closed_form(gs: GeneratorSet) -> Fraction | None:
    """Ratio of {1,s} (or its negation) from formulas.ratio_one_s."""
    for els in (gs.elements, gs.negate().elements):
        if len(els) == 2 and 1 in els:
            return formulas.ratio_one_s(els[0] if els[1] == 1 else els[1])
    return None


def check_certificate(gs: GeneratorSet, cert, ref: dict) -> None:
    w = cert.witness
    expect(min(_coverage(w.period, w.residues, gs), default=0) >= 1,
           f"witness of {gs} does not dominate")
    expect(w.density == cert.ratio, f"witness density of {gs} != ratio")
    want = ref["ratio"].get(str(gs))
    expect(want is not None, f"no reference for {gs}")
    expect(str(cert.ratio) == want["ratio"], f"ratio of {gs} changed")
    expect(list(cert.cycle) == want["cycle"], f"canonical cycle of {gs} changed")
    expect(cert.period == want["period"], f"period of {gs} changed")
    closed = _closed_form(gs)
    expect(closed is None or closed == cert.ratio, f"ratio of {gs} != closed form")


def check_eds(gs: GeneratorSet, found: bool, witness, ratio: Fraction, ref: dict) -> None:
    # a dominating set of density 1/(|S|+1) covers everything exactly once,
    # and an exact cover has that density, so existence follows from the ratio
    expect(found == (ratio == Fraction(1, len(gs) + 1)), f"EDS existence of {gs} wrong")
    if found:
        expect(set(_coverage(witness.period, witness.residues, gs)) == {1},
               f"EDS witness of {gs} is not an exact cover")
        got = [witness.period, sorted(witness.residues)]
    else:
        got = None
    expect(got == ref["ratio"][str(gs)]["eds"], f"EDS witness of {gs} changed")


# ---------------------------------------------------------------------------
# pipelines


def solve_swarm(els, ref) -> None:
    gs = GeneratorSet(els)
    neg = gs.negate()
    cert = stategraph.domination_ratio(gs)
    neg_cert = stategraph.domination_ratio(neg)
    found, eds_witness = stategraph.eds_exists(gs)
    text = blockdsl.render(core.periodic_to_blocks(cert.witness))
    sizes = blockdsl.flatten(blockdsl.parse(text)).sizes

    check_certificate(gs, cert, ref)
    check_certificate(neg, neg_cert, ref)
    expect(neg_cert.ratio == cert.ratio, f"negation symmetry broken for {gs}")
    check_eds(gs, found, eds_witness, cert.ratio, ref)
    expect(sizes == _gaps(cert.witness.residues, cert.witness.period),
           f"block round trip of {gs} changed the witness")


def solve_wide(els, ref) -> None:
    gs = GeneratorSet(els)
    cert = stategraph.domination_ratio(gs, c_max=WIDE_C_MAX)
    found, eds_witness = stategraph.eds_exists(gs, c_max=WIDE_C_MAX)

    check_certificate(gs, cert, ref)
    check_eds(gs, found, eds_witness, cert.ratio, ref)


def solve_circulant(instance, ref) -> None:
    els, n_limit = instance
    gs = GeneratorSet(els)
    cert = stategraph.domination_ratio(gs)
    scan = circulant.oracle_scan(gs, n_limit, n_max=n_limit)

    check_certificate(gs, cert, ref)
    usable = [n for n in range(max(abs(x) for x in els) + 1, n_limit + 1)
              if all(x % n for x in els)]
    expect([n for n, _ in scan] == usable, f"scan of {gs} skipped or added moduli")
    # a dominating set of Z_n lifts to a periodic one of Z, so gamma/n >= ratio;
    # the witness folds onto Z_n whenever its period divides n
    expect(all(Fraction(g, n) >= cert.ratio for n, g in scan),
           f"circulant bound below the ratio for {gs}")
    if any(n % cert.period == 0 for n in usable):
        expect(min(Fraction(g, n) for n, g in scan) == cert.ratio,
               f"circulant minimum of {gs} misses the ratio")
    want = [tuple(row) for row in ref["scan"][str(gs)] if row[0] <= n_limit]
    expect(scan == want, f"circulant scan of {gs} changed")


# ---------------------------------------------------------------------------
# workloads


def generate_swarm(rng: random.Random) -> list:
    # every set once, in seeded order: instance costs range from 1 ms to
    # 150 ms by c, and a few thousand draws with replacement still made a
    # run's mean cost move by ~8% with the seed
    sets = swarm_universe()
    rng.shuffle(sets)
    return sets


def generate_wide(rng: random.Random) -> list:
    # S and -S for one {1,s} per c: the pair's cost varies far less with
    # the seed's choice of s than either set alone
    sets = [(1, rng.choice((c, 1 - c))) for c in WIDE_C]
    return sets + [_negate(els) for els in sets]


def generate_circulant(rng: random.Random) -> list:
    # every set once, in seeded order, all to one n_limit: a handful of
    # sets cost ten times the rest, so drawing sets or n_limit at random
    # would make a run's cost depend on the seed
    sets = circulant_universe()
    rng.shuffle(sets)
    return [(els, CIRC_N_LIMIT) for els in sets]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], list]
    solve: Callable[[object, dict], None]
    warmup: object  # a small instance solved before timing starts
    trace_sample: int  # leading instances in one traced pass


WORKLOADS = {
    w.name: w for w in (
        Workload("ratio_swarm", generate_swarm, solve_swarm,
                 warmup=(-3, 2, 5), trace_sample=150),
        Workload("ratio_wide", generate_wide, solve_wide,
                 warmup=(1, -11), trace_sample=len(WIDE_C)),
        Workload("circulant_scan", generate_circulant, solve_circulant,
                 warmup=((-3, -1), CIRC_N_LIMIT), trace_sample=60),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)
