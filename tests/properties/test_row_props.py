"""Row encoding round trips for arbitrary schemas and values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relation.row import (
    Row,
    _walk_fields,
    decode_fields,
    decode_row,
    encode_row,
    page_probe,
)
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, FloatType, IntType, StringType
from repro.storage.rid import Rid


@st.composite
def schema_and_row(draw):
    column_count = draw(st.integers(min_value=1, max_value=12))
    columns = []
    values = []
    for index in range(column_count):
        kind = draw(st.sampled_from(["int", "float", "string"]))
        nullable = draw(st.booleans())
        columns.append(Column(f"c{index}", kind, nullable=nullable))
        if nullable and draw(st.booleans()):
            values.append(NULL)
        elif kind == "int":
            values.append(draw(st.integers(min_value=-(2**62), max_value=2**62)))
        elif kind == "float":
            values.append(
                draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
            )
        else:
            values.append(draw(st.text(max_size=40)))
    return Schema(columns), Row(values)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=schema_and_row())
    def test_encode_decode_identity(self, data):
        schema, row = data
        decoded = decode_row(schema, encode_row(schema, row))
        assert len(decoded) == len(row)
        for original, recovered in zip(row, decoded):
            if original is NULL:
                assert recovered is NULL
            else:
                assert recovered == original

    @settings(max_examples=80, deadline=None)
    @given(data=schema_and_row())
    def test_encoding_deterministic(self, data):
        schema, row = data
        assert encode_row(schema, row) == encode_row(schema, row)


class TestTypeRegistry:
    def test_every_concrete_type_has_distinct_tag(self):
        tags = [t.tag for t in (IntType(), FloatType(), StringType())]
        assert len(set(tags)) == len(tags)


@st.composite
def probe_case(draw):
    """A schema over every column type, one encoded row, and positions."""
    column_count = draw(st.integers(min_value=1, max_value=12))
    columns = []
    values = []
    for index in range(column_count):
        kind = draw(st.sampled_from(["int", "float", "string", "rid", "timestamp"]))
        nullable = draw(st.booleans())
        columns.append(Column(f"c{index}", kind, nullable=nullable))
        if nullable and draw(st.integers(min_value=0, max_value=3)) == 0:
            # A bitmap NULL, or the inline sentinel for rid/timestamp.
            values.append(NULL)
        elif kind == "int":
            values.append(draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
        elif kind == "float":
            values.append(
                draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
            )
        elif kind == "string":
            values.append(draw(st.text(max_size=20)))
        elif kind == "rid":
            values.append(
                Rid(
                    draw(st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1)),
                    draw(st.integers(min_value=0, max_value=2**32 - 1)),
                )
            )
        else:
            values.append(draw(st.integers(min_value=0, max_value=2**63 - 1)))
    positions = tuple(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=column_count - 1), max_size=6
            )
        )
    )
    return Schema(columns), encode_row(Schema(columns), Row(values)), positions


class TestFieldProbe:
    """The compiled decode_fields probe agrees with the reference walker."""

    @settings(max_examples=300, deadline=None)
    @given(case=probe_case())
    def test_probe_matches_walker(self, case):
        schema, record, positions = case
        probed = decode_fields(schema, record, positions)
        walked = _walk_fields(schema, record, positions)
        assert len(probed) == len(walked) == len(positions)
        for got, want in zip(probed, walked):
            if want is NULL:
                assert got is NULL
            else:
                assert type(got) is type(want) and got == want
        # Cached probe, list-typed positions: same answer.
        assert decode_fields(schema, record, list(positions)) == probed

    @settings(max_examples=200, deadline=None)
    @given(
        case=probe_case(),
        pads=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    )
    def test_page_probe_matches_walker(self, case, pads):
        """The whole-page probe reads each record where it lies."""
        schema, record, positions = case
        image = b""
        offsets = []
        for pad in pads:
            image += b"\xa5" * pad
            offsets.append(len(image))
            image += record
        probed = page_probe(schema, positions)(
            image, offsets, [len(record)] * len(offsets)
        )
        walked = _walk_fields(schema, record, positions)
        assert len(probed) == len(offsets)
        for values in probed:
            for got, want in zip(values, walked):
                if want is NULL:
                    assert got is NULL
                else:
                    assert type(got) is type(want) and got == want

    @settings(max_examples=100, deadline=None)
    @given(case=probe_case(), cut=st.integers(min_value=0, max_value=1))
    def test_short_record_raises_like_walker(self, case, cut):
        schema, _, positions = case
        bitmap_size = (len(schema) + 7) // 8
        short = bytes(max(0, bitmap_size - 1 - cut))
        with pytest.raises(SchemaError) as walked:
            _walk_fields(schema, short, positions)
        with pytest.raises(SchemaError) as probed:
            decode_fields(schema, short, positions)
        assert str(probed.value) == str(walked.value)
