"""Parser and renderer for block-structure notation.

Grammar (whitespace separates terms, no commas):

    structure := term { term } [ "^" "inf" ]
    term      := atom [ "^" int ]
               | "(" term { term } ")" [ "^" int ]
    atom      := positive integer in ASCII digits 0-9

A trailing "^inf" on the whole input is accepted and ignored, since the
sequence is always understood as repeating infinitely in both directions.
"(2 3)^5 7 (3 4)^2" expands to ten alternating 2- and 3-blocks, a 7-block,
then four alternating 3- and 4-blocks.

Limits: atoms and exponents are at most MAX_VALUE = 10^6, groups nest at
most MAX_DEPTH = 200 deep, and flatten expands to at most MAX_BLOCKS = 10^6
blocks by default.  Input past a limit is a TOO_LARGE BlockParseError, an
InputError like every other rejection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .core import BlockStructure
from .errors import InputError

# Error kinds carried by BlockParseError, one per rejection rule.
EMPTY = "empty"
SYNTAX = "syntax"
ZERO_ATOM = "zero-atom"
ZERO_EXPONENT = "zero-exponent"
UNBALANCED_PAREN = "unbalanced-paren"
INF_PLACEMENT = "inf-placement"
TOO_LARGE = "too-large"

MAX_VALUE = 10**6       # cap on atoms and exponents
MAX_BLOCKS = 10**6      # default cap on flattened length
MAX_DEPTH = 200         # cap on group nesting


class BlockParseError(InputError):
    def __init__(self, kind: str, position: int, message: str):
        self.kind = kind
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class Atom:
    value: int
    exponent: int = 1


@dataclass(frozen=True)
class Group:
    terms: tuple["Term", ...]
    exponent: int = 1


Term = Union[Atom, Group]


@dataclass(frozen=True)
class BlockExpr:
    terms: tuple[Term, ...] = field(default_factory=tuple)


def expanded_length(e: Union[BlockExpr, Term]) -> int:
    """Number of blocks the expression expands to, without expanding it."""
    if isinstance(e, Atom):
        return e.exponent
    if isinstance(e, Group):
        return e.exponent * sum(expanded_length(t) for t in e.terms)
    return sum(expanded_length(t) for t in e.terms)


# [0-9], not \d: other scripts' digits are unexpected characters
_TOKEN = re.compile(r"([0-9]+)|(inf)|([()^])|(\S)")


def _number(digits: str, position: int, name: str, zero_kind: str, zero_message: str) -> int:
    try:
        value = int(digits)
    except ValueError:  # longer than int() converts
        raise BlockParseError(
            TOO_LARGE, position, f"{name} of {len(digits)} digits exceeds {MAX_VALUE}"
        ) from None
    if value == 0:
        raise BlockParseError(zero_kind, position, zero_message)
    if value > MAX_VALUE:
        raise BlockParseError(TOO_LARGE, position, f"{name} {value} exceeds {MAX_VALUE}")
    return value


def parse(text: str) -> BlockExpr:
    """Parse block-structure notation into an expression tree."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise BlockParseError(SYNTAX, m.start(), f"unexpected character {m.group(4)!r}")
        toks.append((m.group(), m.start()))
    if not toks:
        raise BlockParseError(EMPTY, 0, "empty input")
    terms: list[Term] = []
    stack: list[tuple[list[Term], int]] = []  # enclosing terms, position of '('
    i = 0
    while i < len(toks):
        tok, position = toks[i]
        i += 1
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise BlockParseError(
                    TOO_LARGE, position, f"groups nested deeper than {MAX_DEPTH}"
                )
            stack.append((terms, position))
            terms = []
            continue
        if tok == ")":
            if not stack:
                raise BlockParseError(UNBALANCED_PAREN, position, "stray ')'")
            outer, opened = stack.pop()
            if not terms:
                raise BlockParseError(SYNTAX, opened, "empty group")
            make, arg = Group, tuple(terms)
            terms = outer
        elif tok == "inf":
            raise BlockParseError(
                INF_PLACEMENT, position, "'inf' must follow '^' at the end of the input"
            )
        elif tok == "^":
            raise BlockParseError(SYNTAX, position, "term expected")
        else:
            make = Atom
            arg = _number(tok, position, "value", ZERO_ATOM, "block size 0 is not allowed")
        exponent = 1
        if i < len(toks) and toks[i][0] == "^":
            if i + 1 == len(toks):
                raise BlockParseError(SYNTAX, toks[i][1], "dangling '^'")
            tok, position = toks[i + 1]
            i += 2
            if tok == "inf":
                if stack or i < len(toks):
                    raise BlockParseError(
                        INF_PLACEMENT, position,
                        "'^inf' is only allowed at the end of the whole input",
                    )
            elif not tok.isdecimal():
                raise BlockParseError(SYNTAX, position, "exponent must be an integer")
            else:
                exponent = _number(tok, position, "exponent", ZERO_EXPONENT,
                                   "exponent 0 is not allowed")
        terms.append(make(arg, exponent))
    if stack:
        raise BlockParseError(UNBALANCED_PAREN, stack[-1][1], "unclosed '('")
    return BlockExpr(tuple(terms))


def _expand(term: Term, out: list[int]) -> None:
    if isinstance(term, Atom):
        out.extend([term.value] * term.exponent)
    else:
        unit: list[int] = []
        for t in term.terms:
            _expand(t, unit)
        out.extend(unit * term.exponent)


def flatten(e: BlockExpr, max_blocks: int = MAX_BLOCKS) -> BlockStructure:
    """Expand all exponents left-to-right into an explicit sizes sequence."""
    total = expanded_length(e)
    if total > max_blocks:
        raise BlockParseError(
            TOO_LARGE, 0, f"expansion to {total} blocks exceeds cap {max_blocks}"
        )
    sizes: list[int] = []
    for term in e.terms:
        _expand(term, sizes)
    return BlockStructure(sizes)


def render(bs: BlockStructure) -> str:
    """Run-length compressed text for a sizes sequence.

    Maximal runs of one repeated size come out as "a^k"; parse followed by
    flatten recovers the exact sequence.
    """
    parts = []
    sizes = bs.sizes
    i = 0
    while i < len(sizes):
        j = i
        while j < len(sizes) and sizes[j] == sizes[i]:
            j += 1
        run = j - i
        parts.append(f"{sizes[i]}^{run}" if run > 1 else str(sizes[i]))
        i = j
    return " ".join(parts)
