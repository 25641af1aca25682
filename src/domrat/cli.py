"""Command-line front end.

Each command builds its answer once: a JSON payload, the lines of text
output and, for `ratio` alone, CSV rows.  `_report` prints the one that
`--format` chooses and passes the command's exit code on; `--format csv`
on any other command is refused as malformed input.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 resource cap exceeded, 4 internal error (a certificate failed its own
re-verification, or an unexpected exception), 141 standard output closed
early (as after SIGPIPE).  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

from . import blockdsl, verification
from .circulant import DEFAULT_N_MAX, domination_number, oracle_scan, residues
from .core import (
    GeneratorSet,
    blocks_to_periodic,
    periodic_to_blocks,
    verify_dominating,
)
from .errors import CapExceededError, InputError
from .stategraph import DEFAULT_C_MAX, domination_ratio, eds_exists, state_elements

TEXT, JSON, CSV = "text", "json", "csv"
# integers as the user writes them: ASCII digits, no underscores
_ASCII_INT = re.compile(r"[+-]?[0-9]+")


def parse_set_literal(text: str) -> GeneratorSet:
    """Parse "{1,-3}" (whitespace allowed, duplicates rejected).  Elements
    are ASCII integers: other scripts' digits and underscores are rejected."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise InputError(f"set literal must look like {{1,-3}}, got {text!r}")
    body = t[1:-1].strip()
    if not body:
        return GeneratorSet([])
    elements = []
    for part in body.split(","):
        part = part.strip()
        try:
            if not _ASCII_INT.fullmatch(part):
                raise ValueError
            elements.append(int(part))
        except ValueError:  # also longer than int() converts
            raise InputError(f"bad integer {part!r} in set literal") from None
    return GeneratorSet(elements)


def _ascii_int(text: str) -> int:
    """The argparse type of every numeric option, and the reading of
    DOMRAT_C_MAX: an ASCII integer, as in parse_set_literal."""
    try:
        if not _ASCII_INT.fullmatch(text.strip()):
            raise ValueError
        return int(text)
    except ValueError:  # also longer than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _decimal(args, name: str, x: Fraction, payload: dict) -> list[str]:
    """With --decimal, add x's 6-digit approximation to payload as
    `<name>_decimal` and return its text line; without, return no line."""
    if not args.decimal:
        return []
    payload[f"{name}_decimal"] = approx = f"{x.numerator / x.denominator:.6f}"
    return [f"{name} (approx): {approx}"]


def _report(args, payload, lines: list[str], rows=(), code: int = 0) -> int:
    """Print a command's answer in the --format chosen; return its exit code."""
    if args.output_format == JSON:
        print(json.dumps(payload, indent=2))
    elif args.output_format == CSV:
        csv.writer(sys.stdout).writerows(rows)
    else:
        print(*lines, sep="\n")
    return code


def cmd_ratio(args) -> int:
    payloads, lines = [], []
    rows = [["set", "a", "b", "c", "ratio_num", "ratio_den", "period", "eds"]]
    for s in map(parse_set_literal, args.set):
        cert = domination_ratio(s, c_max=args.c_max)
        r, blocks = cert.ratio, blockdsl.render(periodic_to_blocks(cert.witness))
        payload = {
            "set": list(s.elements),
            "ratio": _fraction_json(r),
            "period": cert.period,
            "witness_blocks": blocks,
            "cycle_states": [list(state_elements(t)) for t in cert.cycle],
        }
        payloads.append(payload)
        # domination_ratio raises CertificateError on a longer period
        lines += [f"set: {s}", f"ratio: {r}", *_decimal(args, "ratio", r, payload),
                  f"period: {cert.period}", f"witness: {blocks}",
                  f"cycle length: {len(cert.cycle)}",
                  f"period bound c*2^c = {s.c * (1 << s.c)}: holds"]
        # exact covers are the dominating sets of density 1/(|S|+1)
        rows.append([str(s), s.a, s.b, s.c, r.numerator, r.denominator,
                     cert.period, str(r == Fraction(1, len(s) + 1)).lower()])
    return _report(args, payloads[0] if len(payloads) == 1 else payloads, lines, rows)


def cmd_domnum(args) -> int:
    s = parse_set_literal(args.set)
    inst = residues(s, args.n)
    gamma, witness = domination_number(inst, n_max=args.n_max)
    connection = sorted(inst.connection)
    payload = {
        "n": args.n,
        "set": list(s.elements),
        "connection": connection,
        "gamma": gamma,
        "witness": list(witness),
    }
    return _report(args, payload, [f"n: {args.n}", f"connection: {connection}",
                                   f"gamma: {gamma}",
                                   f"witness: {' '.join(map(str, witness))}"])


def cmd_eds(args) -> int:
    s = parse_set_literal(args.set)
    exists, witness = eds_exists(s, c_max=args.c_max)
    blocks = blockdsl.render(periodic_to_blocks(witness)) if exists else None
    period = witness.period if exists else None
    lines = [f"set: {s}", f"exists: {str(exists).lower()}"]
    if exists:
        lines += [f"witness: {blocks}", f"period: {period}"]
    return _report(args, {"set": list(s.elements), "exists": exists,
                          "witness_blocks": blocks, "period": period}, lines)


def cmd_blocks(args) -> int:
    bs = blockdsl.flatten(blockdsl.parse(args.dsl))
    sizes = list(bs.sizes)
    if args.action == "parse":
        lines = [f"sizes: {' '.join(map(str, sizes))}", f"count: {len(sizes)}",
                 f"period: {bs.period}"]
        return _report(args, {"sizes": sizes, "count": len(sizes),
                              "period": bs.period}, lines)
    if args.action == "density":
        d = blocks_to_periodic(bs).density
        payload = {"sizes": sizes, "density": _fraction_json(d)}
        return _report(args, payload,
                       [f"density: {d}", *_decimal(args, "density", d, payload)])
    s = parse_set_literal(args.set)
    ok = verify_dominating(blocks_to_periodic(bs), s)
    return _report(args, {"sizes": sizes, "set": list(s.elements), "dominating": ok},
                   [str(ok).lower()])


def cmd_oracle(args) -> int:
    s = parse_set_literal(args.set)
    scan = oracle_scan(s, args.n_limit, n_max=args.n_max)
    best = min(Fraction(g, n) for n, g in scan)
    attained = next(n for n, g in scan if Fraction(g, n) == best)
    certified = None
    try:
        certified = args.n_limit >= domination_ratio(s, c_max=args.c_max).period
    except CapExceededError as exc:
        if exc.what != "c":
            raise
    payload = {
        "set": list(s.elements),
        "n_limit": args.n_limit,
        "best": _fraction_json(best),
        "attained_at": attained,
        "certified": certified,
        "scan": [[n, g] for n, g in scan],
    }
    verdict = {True: "true", False: "false (upper bound only)",
               None: "unknown (c exceeds cap)"}[certified]
    return _report(args, payload, [
        f"set: {s}", f"best ratio up to n={args.n_limit}: {best} (at n={attained})",
        *_decimal(args, "best", best, payload), f"certified: {verdict}"])


def cmd_verify_paper(args) -> int:
    rows = verification.run_verification(c_max=args.c_max, n_max=args.n_max,
                                         cases=args.cases)
    lines = [f"[{r.status:4s}] criterion {r.criterion:2d}: {r.label}"
             + (f" -- {r.detail}" if r.detail else "") for r in rows]
    n = Counter(r.status for r in rows)
    lines.append(f"{n['PASS']} passed, {n['FAIL']} failed, {n['SKIP']} skipped")
    return _report(args, {"rows": [asdict(r) for r in rows], "failed": n["FAIL"]},
                   lines, code=1 if n["FAIL"] else 0)


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same options are accepted before or after the subcommand; the
    # subcommand copies use SUPPRESS so an absent flag keeps the outer value.
    # An absent --c-max stays None and main() falls back to DOMRAT_C_MAX.
    sup = argparse.SUPPRESS

    def dflt(value):
        return value if top_level else sup

    parser.add_argument("--c-max", type=_ascii_int, default=dflt(None),
                        help="cap on the window width c (env DOMRAT_C_MAX)")
    parser.add_argument("--n-max", type=_ascii_int, default=dflt(DEFAULT_N_MAX),
                        help="cap on circulant solver size")
    parser.add_argument("--format", choices=[TEXT, JSON, CSV],
                        default=dflt(TEXT), dest="output_format")
    parser.add_argument("--decimal", action="store_true",
                        default=dflt(False),
                        help="also print 6-digit decimal approximations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domrat",
        description="Exact domination ratios of integer distance digraphs "
                    "and domination numbers of circulant digraphs.")
    _add_common_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="domination ratio with periodic witness")
    p.add_argument("set", nargs="+", help='set literal like "{1,-3}"')
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("domnum", help="domination number of a circulant digraph")
    p.add_argument("n", type=_ascii_int)
    p.add_argument("set")
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_domnum)

    p = sub.add_parser("eds", help="existence of an efficient dominating set")
    p.add_argument("set")
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_eds)

    p = sub.add_parser("blocks", help="block-structure utilities")
    p.add_argument("action", choices=["parse", "density", "verify"])
    p.add_argument("dsl", help='block structure like "(3 2)^2 1"')
    p.add_argument("set", nargs="?", help="generator set (verify only)")
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("oracle", help="circulant scan upper bound for the ratio")
    p.add_argument("set")
    p.add_argument("--n-limit", type=_ascii_int, required=True)
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-paper", help="run the whole verification table")
    p.add_argument("--cases", type=_ascii_int, default=verification.DEFAULT_CASES,
                   help="random property-test cases")
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def _env_c_max() -> int:
    text = os.environ.get("DOMRAT_C_MAX")
    if text is None:
        return DEFAULT_C_MAX
    try:
        return _ascii_int(text)
    except argparse.ArgumentTypeError:
        raise InputError(f"DOMRAT_C_MAX must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.c_max is None:
            args.c_max = _env_c_max()
        if args.c_max < 1 or args.n_max < 1:
            raise InputError("caps must be positive")
        if args.command == "blocks" and args.action == "verify" and args.set is None:
            raise InputError("blocks verify needs a generator set")
        if args.output_format == CSV and args.command != "ratio":
            raise InputError(f"--format csv is not available for {args.command}")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: drop the unwritten output, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
