"""The engine's answers over a fixed family of sets, against bench/answers.json.

Run from the repository root:

    python -O bench/answers.py --check    # exit 1 at the first set that differs
    python bench/answers.py --write       # only when an answer is meant to change

The family is every set of 1-2 elements from +-16 with c <= 16, every set of
3 elements from +-16 with c <= 14, and the ratio_wide sets {1,c}, {-c,-1},
{1,1-c} and {c-1,-1} for c = 16, 17, 18 (those at c = 16 are already in the
family).  For each set the file holds the domination ratio, the witness's
period, the SHA-256 of the canonical cycle (its states in decimal, joined by
commas), and whether a perfect witness exists, with its period.  --check
also prints the 10 slowest sets of this run, the slowest set at each
reduced c' = c / gcd(S) (the width of the graph the engine solves), and
every set that took more than a second.

domrat is imported from src/ next to this directory; nothing under src/ is
changed or wrapped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from domrat.core import GeneratorSet  # noqa: E402
from domrat.stategraph import domination_ratio, eds_exists  # noqa: E402

ANSWERS_PATH = Path(__file__).with_name("answers.json")
POOL = tuple(x for x in range(-16, 17) if x)
C_MAX = 18  # the ratio_wide sets; every other set has c <= 16
WIDE_C = (16, 17, 18)


def family() -> list[GeneratorSet]:
    sets = [GeneratorSet(els) for size, c_max in ((1, 16), (2, 16), (3, 14))
            for els in combinations(POOL, size) if GeneratorSet(els).c <= c_max]
    for c in WIDE_C:
        for els in ((1, c), (-c, -1), (1, 1 - c), (c - 1, -1)):
            if GeneratorSet(els) not in sets:
                sets.append(GeneratorSet(els))
    return sets


def answer(s: GeneratorSet) -> dict:
    cert = domination_ratio(s, c_max=C_MAX)
    exists, witness = eds_exists(s, c_max=C_MAX)
    cycle = ",".join(map(str, cert.cycle)).encode()
    return {"ratio": str(cert.ratio), "period": cert.period,
            "cycle_sha256": hashlib.sha256(cycle).hexdigest(),
            "eds": exists, "eds_period": witness.period if exists else None}


def timed_answers() -> tuple[dict[str, dict], dict[str, float]]:
    answers, seconds = {}, {}
    for s in family():
        start = time.perf_counter()
        answers[str(s)] = answer(s)
        seconds[str(s)] = time.perf_counter() - start
    return answers, seconds


def write(answers: dict[str, dict]) -> None:
    # one set a line, so a changed answer shows as a one-line diff
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in answers.items()]
    ANSWERS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def check(answers: dict[str, dict], seconds: dict[str, float]) -> int:
    want = json.loads(ANSWERS_PATH.read_text())
    ranked = sorted(seconds, key=seconds.get, reverse=True)
    print("slowest:", ", ".join(f"{k} {seconds[k]:.3f} s" for k in ranked[:10]))
    width = {str(s): s.c // math.gcd(*s) for s in family()}  # c' of the solved graph
    by_width: dict[int, list[str]] = {}
    for key in ranked:
        by_width.setdefault(width[key], []).append(key)
    for c, keys in sorted(by_width.items()):
        print(f"c' = {c}: {len(keys)} sets in {sum(map(seconds.get, keys)):.3f} s,"
              f" slowest {keys[0]} {seconds[keys[0]]:.3f} s")
    slow = [f"{k} {seconds[k]:.3f} s" for k in ranked if seconds[k] > 1]
    print("above 1 s:", ", ".join(slow) or "none")
    print(f"{len(answers)} sets in {sum(seconds.values()):.1f} s")
    for key in [*answers, *(k for k in want if k not in answers)]:
        if answers.get(key) != want.get(key):
            print(f"{key} differs: got {answers.get(key)}, want {want.get(key)}")
            return 1
    print("every answer matches", ANSWERS_PATH.name)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with answers.json")
    mode.add_argument("--write", action="store_true", help="regenerate answers.json")
    args = parser.parse_args(argv)
    answers, seconds = timed_answers()
    if args.write:
        write(answers)
        print(f"wrote {len(answers)} sets to {ANSWERS_PATH}")
        return 0
    return check(answers, seconds)


if __name__ == "__main__":
    sys.exit(main())
