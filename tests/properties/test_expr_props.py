"""Predicate-language properties: round trips and NULL-logic laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.expr.parser import parse_expression
from repro.expr.predicate import Restriction
from repro.relation.schema import Schema
from repro.relation.types import NULL

SCHEMA = Schema.of(("a", "int", True), ("b", "int", True), ("s", "string", True))

values = st.one_of(st.just(NULL), st.integers(min_value=-100, max_value=100))
strings = st.one_of(st.just(NULL), st.text(alphabet="abcxyz", max_size=5))


@st.composite
def simple_predicates(draw):
    """Small random predicates over columns a, b, s."""
    depth = draw(st.integers(min_value=0, max_value=2))

    def atom():
        kind = draw(st.sampled_from(["cmp", "null", "between", "in"]))
        column = draw(st.sampled_from(["a", "b"]))
        if kind == "cmp":
            op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
            return f"{column} {op} {draw(st.integers(-50, 50))}"
        if kind == "null":
            negated = draw(st.booleans())
            return f"{column} IS {'NOT ' if negated else ''}NULL"
        if kind == "between":
            lo = draw(st.integers(-50, 0))
            hi = draw(st.integers(0, 50))
            return f"{column} BETWEEN {lo} AND {hi}"
        items = ", ".join(
            str(draw(st.integers(-5, 5))) for _ in range(draw(st.integers(1, 3)))
        )
        return f"{column} IN ({items})"

    def build(level):
        if level == 0:
            return atom()
        connective = draw(st.sampled_from(["AND", "OR"]))
        left = build(level - 1)
        right = build(level - 1)
        text = f"({left}) {connective} ({right})"
        if draw(st.booleans()):
            text = f"NOT ({text})"
        return text

    return build(depth)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(text=simple_predicates(), a=values, b=values, s=strings)
    def test_sql_rendering_preserves_semantics(self, text, a, b, s):
        original = parse_expression(text)
        reparsed = parse_expression(original.sql())
        row = (a, b, s)
        assert original.compile(SCHEMA)(row) == reparsed.compile(SCHEMA)(row)


class TestNullLogicLaws:
    @settings(max_examples=120, deadline=None)
    @given(text=simple_predicates(), a=values, b=values, s=strings)
    def test_restriction_is_boolean(self, text, a, b, s):
        """UNKNOWN never leaks out of a Restriction."""
        restriction = Restriction(parse_expression(text), SCHEMA)
        assert restriction((a, b, s)) in (True, False)

    @settings(max_examples=120, deadline=None)
    @given(text=simple_predicates(), a=values, b=values, s=strings)
    def test_excluded_middle_fails_only_on_null(self, text, a, b, s):
        """p OR NOT p is TRUE whenever no NULL is involved."""
        predicate = parse_expression(f"({text}) OR NOT ({text})")
        result = predicate.compile(SCHEMA)((a, b, s))
        if a is not NULL and b is not NULL and s is not NULL:
            assert result is True
        else:
            assert result in (True, None)

    @settings(max_examples=120, deadline=None)
    @given(text=simple_predicates(), a=values, b=values, s=strings)
    def test_double_negation(self, text, a, b, s):
        inner = parse_expression(text).compile(SCHEMA)((a, b, s))
        double = parse_expression(f"NOT (NOT ({text}))").compile(SCHEMA)(
            (a, b, s)
        )
        assert double == inner


# -- generated kernels ----------------------------------------------------------

KERNEL_SCHEMA = Schema.of(
    ("a", "int", True),
    ("b", "int", True),
    ("f", "float", True),
    ("s", "string", True),
)
KERNEL_POSITIONS = (0, 1, 2, 3)

kernel_rows = st.lists(
    st.tuples(
        st.one_of(st.just(NULL), st.integers(-6, 6)),
        st.one_of(st.just(NULL), st.integers(-6, 6)),
        st.one_of(st.just(NULL), st.floats(-6, 6), st.just(float("nan"))),
        st.one_of(st.just(NULL), st.text(alphabet="abx", max_size=3)),
    ),
    max_size=8,
)


_NUMERIC = ["a", "b", "f", "0", "3", "-2", "1.5"]
_STRING = ["s", "'a'", "'ab'", "''"]
_WILD = ["NULL", "TRUE", "(a + 1)", "-b", "(f * 2)", "'a'", "3", "s", "a"]


@st.composite
def kernel_predicates(draw, depths=(0, 0, 1, 1, 1, 2, 2, 3)):
    """Predicates over every node type, mostly type-compatible.

    Most operands are drawn in type-compatible pairs (numeric with
    numeric, string with string), so the kernel's inline forms are
    exercised on rows that qualify or not; the rest are wild —
    arithmetic, booleans, mixed types, NOT — so the closure fallback
    and the errors it raises are exercised too.
    """

    def operands(count):
        if draw(st.integers(0, 4)) == 0:
            return [draw(st.sampled_from(_WILD)) for _ in range(count)]
        pool = draw(st.sampled_from([_NUMERIC, _NUMERIC, _STRING]))
        chosen = [draw(st.sampled_from(pool)) for _ in range(count)]
        if draw(st.integers(0, 5)) == 0:
            chosen[draw(st.integers(0, count - 1))] = "NULL"
        return chosen

    def atom():
        kind = draw(
            st.sampled_from(
                ["cmp", "cmp", "null", "between", "in", "in", "like", "lit", "col"]
            )
        )
        negate = "NOT " if draw(st.booleans()) else ""
        if kind == "cmp":
            op = draw(st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
            left, right = operands(2)
            return f"{left} {op} {right}"
        if kind == "null":
            (value,) = operands(1)
            return f"{value} IS {negate}NULL"
        if kind == "between":
            value, lo, hi = operands(3)
            return f"{value} {negate}BETWEEN {lo} AND {hi}"
        if kind == "in":
            subject, *items = operands(draw(st.integers(2, 4)))
            if draw(st.booleans()):
                # A NULL item turns "not found" into UNKNOWN.
                items.append("NULL")
            return f"{subject} {negate}IN ({', '.join(items)})"
        if kind == "like":
            subject = draw(st.sampled_from(["s", "s", "a", "NULL", "'ab'"]))
            pattern = draw(st.sampled_from(["a%", "_b", "%", "x", ""]))
            return f"{subject} {negate}LIKE '{pattern}'"
        if kind == "lit":
            return draw(st.sampled_from(["TRUE", "FALSE", "NULL"]))
        return draw(st.sampled_from(["a", "s"]))

    def build(level):
        if level == 0:
            return atom()
        connective = draw(st.sampled_from(["AND", "OR"]))
        text = f"({build(level - 1)}) {connective} ({build(level - 1)})"
        if draw(st.booleans()):
            text = f"NOT ({text})"
        return text

    return build(draw(st.sampled_from(depths)))


def _outcome(run):
    try:
        return "ok", run()
    except Exception as error:  # the kernel must raise what the closure raises
        return type(error).__name__, str(error)


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(text=kernel_predicates(), rows=kernel_rows)
    def test_kernel_matches_restriction(self, text, rows):
        """Same qualifying indices, same error on the same row."""
        restriction = Restriction(parse_expression(text), KERNEL_SCHEMA)
        expected = _outcome(
            lambda: [i for i, row in enumerate(rows) if restriction(row)]
        )
        assert _outcome(lambda: restriction(rows, KERNEL_POSITIONS)) == expected

    @settings(max_examples=400, deadline=None)
    @given(text=kernel_predicates(depths=(0,)), rows=kernel_rows)
    def test_single_node_kernel_matches_restriction(self, text, rows):
        """Each node type on its own, where its truth value is the answer."""
        restriction = Restriction(parse_expression(text), KERNEL_SCHEMA)
        expected = _outcome(
            lambda: [i for i, row in enumerate(rows) if restriction(row)]
        )
        assert _outcome(lambda: restriction(rows, KERNEL_POSITIONS)) == expected

    @settings(max_examples=100, deadline=None)
    @given(rows=kernel_rows, op=st.sampled_from(["=", "<", ">="]))
    def test_incompatible_comparison_raises_evaluation_error(self, rows, op):
        restriction = Restriction.parse(f"s {op} 3", KERNEL_SCHEMA)
        expected = _outcome(
            lambda: [i for i, row in enumerate(rows) if restriction(row)]
        )
        assert _outcome(lambda: restriction(rows, KERNEL_POSITIONS)) == expected
        if any(row[3] is not NULL for row in rows):
            assert expected[0] == "EvaluationError"

    def test_kernel_cached_per_probe_layout(self):
        restriction = Restriction.parse("a < 3", KERNEL_SCHEMA)
        assert restriction([(1, "x"), (NULL, "y"), (5, "z")], (0, 3)) == [0]
        assert restriction([(2,)], (0,)) == [0]
        kernels = restriction._kernels
        assert set(kernels) == {(0, 3), (0,)}
        first = kernels[(0, 3)]
        restriction([], (0, 3))
        assert kernels[(0, 3)] is first

    def test_probe_must_cover_the_restriction(self):
        restriction = Restriction.parse("a < 3 AND s = 'x'", KERNEL_SCHEMA)
        with pytest.raises(EvaluationError):
            restriction([(1,)], (0,))
