import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrat import blockdsl
from domrat.blockdsl import (
    Atom,
    BlockParseError,
    Group,
    expanded_length,
    flatten,
    parse,
    render,
)
from domrat.core import BlockStructure


def sizes_of(text):
    return flatten(parse(text)).sizes


def test_parse_examples():
    assert sizes_of("(2 3)^5 7 (3 4)^2") == \
        (2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 7, 3, 4, 3, 4)
    assert sizes_of("3^2 1") == (3, 3, 1)
    assert sizes_of("(3^1 2)") == (3, 2)


def test_flatten_examples():
    assert sizes_of("(3 4 3 1)") == (3, 4, 3, 1)
    assert sizes_of("5") == (5,)
    assert sizes_of("(2)^3") == (2, 2, 2)


def test_nested_groups():
    assert sizes_of("((2 3)^2 1)^2") == (2, 3, 2, 3, 1, 2, 3, 2, 3, 1)


def test_trailing_inf_accepted_and_ignored():
    assert sizes_of("3^inf") == (3,)
    assert sizes_of("(2 3)^inf") == (2, 3)
    assert sizes_of("(3^2 1)^inf") == (3, 3, 1)
    assert sizes_of("2 3 ^inf") == (2, 3)


def test_render_examples():
    assert render(BlockStructure([3, 3, 2])) == "3^2 2"
    assert render(BlockStructure([3, 2])) == "3 2"
    assert render(BlockStructure([7])) == "7"
    assert render(BlockStructure([2, 2, 2, 5, 5, 1])) == "2^3 5^2 1"


DEEP = blockdsl.MAX_DEPTH

REJECTIONS = [
    ("", blockdsl.EMPTY, 0, "empty input"),
    ("   ", blockdsl.EMPTY, 0, "empty input"),
    ("0", blockdsl.ZERO_ATOM, 0, "block size 0 is not allowed"),
    ("2 0 3", blockdsl.ZERO_ATOM, 2, "block size 0 is not allowed"),
    ("3^0", blockdsl.ZERO_EXPONENT, 2, "exponent 0 is not allowed"),
    ("(2 3", blockdsl.UNBALANCED_PAREN, 0, "unclosed '('"),
    ("(((2", blockdsl.UNBALANCED_PAREN, 2, "unclosed '('"),
    ("2 3)", blockdsl.UNBALANCED_PAREN, 3, "stray ')'"),
    ("(3^inf 2)", blockdsl.INF_PLACEMENT, 3,
     "'^inf' is only allowed at the end of the whole input"),
    ("3^inf 4", blockdsl.INF_PLACEMENT, 2,
     "'^inf' is only allowed at the end of the whole input"),
    ("((2)^inf)", blockdsl.INF_PLACEMENT, 5,
     "'^inf' is only allowed at the end of the whole input"),
    ("inf", blockdsl.INF_PLACEMENT, 0, "'inf' must follow '^' at the end of the input"),
    ("3^", blockdsl.SYNTAX, 1, "dangling '^'"),
    ("^2", blockdsl.SYNTAX, 0, "term expected"),
    ("a 3", blockdsl.SYNTAX, 0, "unexpected character 'a'"),
    ("()", blockdsl.SYNTAX, 0, "empty group"),
    ("3^x", blockdsl.SYNTAX, 2, "unexpected character 'x'"),
    ("3^(2)", blockdsl.SYNTAX, 2, "exponent must be an integer"),
    ("3²", blockdsl.SYNTAX, 1, "unexpected character '²'"),
    ("３ ٢^２", blockdsl.SYNTAX, 0, "unexpected character '３'"),
    ("2 ٢", blockdsl.SYNTAX, 2, "unexpected character '٢'"),
    ("2^٢", blockdsl.SYNTAX, 2, "unexpected character '٢'"),
    ("2000000", blockdsl.TOO_LARGE, 0, "value 2000000 exceeds 1000000"),
    ("2^2000000", blockdsl.TOO_LARGE, 2, "exponent 2000000 exceeds 1000000"),
    ("1" * 5000, blockdsl.TOO_LARGE, 0, "value of 5000 digits exceeds 1000000"),
    ("(" * (DEEP + 1) + "2" + ")" * (DEEP + 1), blockdsl.TOO_LARGE, DEEP,
     f"groups nested deeper than {DEEP}"),
]


def _row_id(row):
    # "<text>-<kind>", as pytest names a (text, kind) row, but short for long texts
    text, kind = row[:2]
    return f"{text if len(text) <= 20 else f'<{len(text)} chars>'}-{kind}"


@pytest.mark.parametrize("text,kind,position,message", REJECTIONS,
                         ids=[_row_id(row) for row in REJECTIONS])
def test_parse_rejections_have_distinct_kinds(text, kind, position, message):
    with pytest.raises(BlockParseError) as err:
        parse(text)
    assert err.value.kind == kind
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_nesting_cap_is_accepted_and_safe():
    text = "(" * DEEP + "2 3" + ")" * DEEP + "^inf"
    e = parse(text)
    assert e == parse(text) and repr(e).count("Group(") == DEEP
    assert expanded_length(e) == 2 and flatten(e).sizes == (2, 3)


def test_error_positions_point_into_text():
    with pytest.raises(BlockParseError) as err:
        parse("2 3 0 4")
    assert err.value.position == 4


def test_flatten_cap():
    expr = parse("2^1000 3^1000")
    with pytest.raises(BlockParseError) as err:
        flatten(expr, max_blocks=100)
    assert err.value.kind == blockdsl.TOO_LARGE
    assert len(flatten(expr).sizes) == 2000


def test_expanded_length_matches_flatten():
    for text in ["5", "2^7", "(2 3)^5 7 (3 4)^2", "((1 2)^3 4^2)^2 9"]:
        e = parse(text)
        assert expanded_length(e) == len(flatten(e).sizes)


def test_expr_tree_shape():
    e = parse("(2 3)^5 7")
    assert e.terms == (Group((Atom(2), Atom(3)), 5), Atom(7))


def test_round_trip_spec_law():
    for text in ["(2 3)^5 7 (3 4)^2", "3^2 1", "(3^1 2)", "9 9 9 1^4"]:
        once = flatten(parse(text))
        again = flatten(parse(render(once)))
        assert once.sizes == again.sizes


sizes_strategy = st.lists(st.integers(min_value=1, max_value=30),
                          min_size=1, max_size=25)


@given(sizes_strategy)
@settings(max_examples=300)
def test_round_trip_property(sizes):
    bs = BlockStructure(sizes)
    assert flatten(parse(render(bs))).sizes == tuple(sizes)


expr_text = st.recursive(
    st.tuples(st.integers(1, 50), st.integers(1, 4)).map(
        lambda t: f"{t[0]}^{t[1]}" if t[1] > 1 else str(t[0])),
    lambda inner: st.tuples(st.lists(inner, min_size=1, max_size=4),
                            st.integers(1, 3)).map(
        lambda t: "(" + " ".join(t[0]) + ")" + (f"^{t[1]}" if t[1] > 1 else "")),
    max_leaves=12,
)


@given(st.lists(expr_text, min_size=1, max_size=5).map(" ".join))
@settings(max_examples=200)
def test_expanded_length_law_random(text):
    e = parse(text)
    assert expanded_length(e) == len(flatten(e).sizes)
