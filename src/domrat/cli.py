"""Command-line front end.

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
import sys
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


def parse_set_literal(text: str) -> GeneratorSet:
    """Parse "{1,-3}" (whitespace allowed, duplicates rejected)."""
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
            elements.append(int(part))
        except ValueError:
            raise InputError(f"bad integer {part!r} in set literal") from None
    return GeneratorSet(elements)


def _fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _decimal(x: Fraction) -> str:
    return f"{x.numerator / x.denominator:.6f}"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def cmd_ratio(args) -> int:
    results = [(s, domination_ratio(s, c_max=args.c_max))
               for s in map(parse_set_literal, args.set)]

    if args.output_format == CSV:
        writer = csv.writer(sys.stdout)
        writer.writerow(["set", "a", "b", "c", "ratio_num", "ratio_den",
                         "period", "eds"])
        for s, cert in results:
            # exact covers are the dominating sets of density 1/(|S|+1)
            has_eds = cert.ratio == Fraction(1, len(s) + 1)
            writer.writerow([str(s), s.a, s.b, s.c, cert.ratio.numerator,
                             cert.ratio.denominator, cert.period,
                             "true" if has_eds else "false"])
        return 0

    if args.output_format == JSON:
        payloads = []
        for s, cert in results:
            payload = {
                "set": list(s.elements),
                "ratio": _fraction_json(cert.ratio),
                "period": cert.period,
                "witness_blocks": blockdsl.render(periodic_to_blocks(cert.witness)),
                "cycle_states": [list(state_elements(t)) for t in cert.cycle],
            }
            if args.decimal:
                payload["ratio_decimal"] = _decimal(cert.ratio)
            payloads.append(payload)
        _emit_json(payloads[0] if len(payloads) == 1 else payloads)
        return 0

    for s, cert in results:
        bound = s.c * (1 << s.c)
        print(f"set: {s}")
        print(f"ratio: {cert.ratio}")
        if args.decimal:
            print(f"ratio (approx): {_decimal(cert.ratio)}")
        print(f"period: {cert.period}")
        print(f"witness: {blockdsl.render(periodic_to_blocks(cert.witness))}")
        print(f"cycle length: {len(cert.cycle)}")
        # domination_ratio raises CertificateError on a longer period
        print(f"period bound c*2^c = {bound}: holds")
    return 0


def cmd_domnum(args) -> int:
    s = parse_set_literal(args.set)
    inst = residues(s, args.n)
    gamma, witness = domination_number(inst, n_max=args.n_max)
    if args.output_format == JSON:
        _emit_json({
            "n": args.n,
            "set": list(s.elements),
            "connection": sorted(inst.connection),
            "gamma": gamma,
            "witness": list(witness),
        })
    else:
        print(f"n: {args.n}")
        print(f"connection: {sorted(inst.connection)}")
        print(f"gamma: {gamma}")
        print(f"witness: {' '.join(str(v) for v in witness)}")
    return 0


def cmd_eds(args) -> int:
    s = parse_set_literal(args.set)
    exists, witness = eds_exists(s, c_max=args.c_max)
    blocks = blockdsl.render(periodic_to_blocks(witness)) if exists else None
    if args.output_format == JSON:
        _emit_json({
            "set": list(s.elements),
            "exists": exists,
            "witness_blocks": blocks,
            "period": witness.period if exists else None,
        })
    else:
        print(f"set: {s}")
        print(f"exists: {'true' if exists else 'false'}")
        if exists:
            print(f"witness: {blocks}")
            print(f"period: {witness.period}")
    return 0


def cmd_blocks(args) -> int:
    bs = blockdsl.flatten(blockdsl.parse(args.dsl))
    if args.action == "parse":
        if args.output_format == JSON:
            _emit_json({"sizes": list(bs.sizes), "count": len(bs.sizes),
                        "period": bs.period})
        else:
            print(f"sizes: {' '.join(str(v) for v in bs.sizes)}")
            print(f"count: {len(bs.sizes)}")
            print(f"period: {bs.period}")
        return 0
    if args.action == "density":
        d = blocks_to_periodic(bs).density
        if args.output_format == JSON:
            payload = {"sizes": list(bs.sizes), "density": _fraction_json(d)}
            if args.decimal:
                payload["density_decimal"] = _decimal(d)
            _emit_json(payload)
        else:
            print(f"density: {d}")
            if args.decimal:
                print(f"density (approx): {_decimal(d)}")
        return 0
    # verify
    s = parse_set_literal(args.set)
    ok = verify_dominating(blocks_to_periodic(bs), s)
    if args.output_format == JSON:
        _emit_json({"sizes": list(bs.sizes), "set": list(s.elements),
                    "dominating": ok})
    else:
        print("true" if ok else "false")
    return 0


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
    if args.output_format == JSON:
        payload = {
            "set": list(s.elements),
            "n_limit": args.n_limit,
            "best": _fraction_json(best),
            "attained_at": attained,
            "certified": certified,
            "scan": [[n, g] for n, g in scan],
        }
        if args.decimal:
            payload["best_decimal"] = _decimal(best)
        _emit_json(payload)
    else:
        print(f"set: {s}")
        print(f"best ratio up to n={args.n_limit}: {best} (at n={attained})")
        if args.decimal:
            print(f"best (approx): {_decimal(best)}")
        if certified is None:
            print("certified: unknown (c exceeds cap)")
        else:
            print(f"certified: {'true' if certified else 'false (upper bound only)'}")
    return 0


def cmd_verify_paper(args) -> int:
    rows = verification.run_verification(c_max=args.c_max, n_max=args.n_max,
                                         cases=args.cases)
    failed = sum(1 for r in rows if r.status == "FAIL")
    if args.output_format == JSON:
        _emit_json({
            "rows": [{"criterion": r.criterion, "label": r.label,
                      "status": r.status, "detail": r.detail} for r in rows],
            "failed": failed,
        })
    else:
        for r in rows:
            print(f"[{r.status:4s}] criterion {r.criterion:2d}: {r.label}"
                  + (f" -- {r.detail}" if r.detail else ""))
        passed = sum(1 for r in rows if r.status == "PASS")
        skipped = sum(1 for r in rows if r.status == "SKIP")
        print(f"{passed} passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same options are accepted before or after the subcommand; the
    # subcommand copies use SUPPRESS so an absent flag keeps the outer value.
    # An absent --c-max stays None and main() falls back to DOMRAT_C_MAX.
    sup = argparse.SUPPRESS

    def dflt(value):
        return value if top_level else sup

    parser.add_argument("--c-max", type=int, default=dflt(None),
                        help="cap on the window width c (env DOMRAT_C_MAX)")
    parser.add_argument("--n-max", type=int, default=dflt(DEFAULT_N_MAX),
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
    p.add_argument("n", type=int)
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
    p.add_argument("--n-limit", type=int, required=True)
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-paper", help="run the whole verification table")
    p.add_argument("--cases", type=int, default=verification.DEFAULT_CASES,
                   help="random property-test cases")
    _add_common_options(p, top_level=False)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def _env_c_max() -> int:
    text = os.environ.get("DOMRAT_C_MAX")
    if text is None:
        return DEFAULT_C_MAX
    try:
        return int(text)
    except ValueError:
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
