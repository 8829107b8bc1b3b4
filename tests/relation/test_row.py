"""Row values and byte encodings."""

import pytest

from repro.errors import SchemaError
from repro.relation.row import (
    Row,
    decode_fields,
    decode_row,
    encode_row,
    encoded_size,
)
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid


@pytest.fixture
def schema():
    return Schema.of(("name", "string"), ("salary", "int"), ("dept", "string", True))


@pytest.fixture
def annotated_schema(schema):
    return schema.with_columns(
        [
            Column("$PREVADDR$", "rid", nullable=True, hidden=True),
            Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True),
        ]
    )


class TestRowValue:
    def test_sequence_protocol(self):
        row = Row(["a", 1])
        assert len(row) == 2
        assert list(row) == ["a", 1]
        assert row[1] == 1

    def test_equality_with_tuple(self):
        assert Row(["a", 1]) == ("a", 1)
        assert Row(["a", 1]) == Row(["a", 1])

    def test_hashable(self):
        assert hash(Row(["a", 1])) == hash(Row(["a", 1]))

    def test_get_by_name(self, schema):
        row = Row(["Laura", 6, NULL])
        assert row.get(schema, "salary") == 6

    def test_replace(self, schema):
        row = Row(["Laura", 6, NULL])
        updated = row.replace(schema, salary=7)
        assert updated.values == ("Laura", 7, NULL)
        assert row.values == ("Laura", 6, NULL)  # original untouched

    def test_project(self, schema):
        row = Row(["Laura", 6, "db"])
        assert row.project(schema, ["dept", "name"]).values == ("db", "Laura")


class TestEncoding:
    def test_roundtrip(self, schema):
        row = Row(["Laura", 6, "db"])
        assert decode_row(schema, encode_row(schema, row)) == row

    def test_roundtrip_with_null(self, schema):
        row = Row(["Laura", 6, NULL])
        decoded = decode_row(schema, encode_row(schema, row))
        assert decoded[2] is NULL

    def test_null_shrinks_encoding(self, schema):
        full = encoded_size(schema, Row(["Laura", 6, "engineering"]))
        with_null = encoded_size(schema, Row(["Laura", 6, NULL]))
        assert with_null < full

    def test_validates_before_encoding(self, schema):
        with pytest.raises(SchemaError):
            encode_row(schema, Row(["Laura", 6]))

    def test_rejects_truncated_image(self, schema):
        with pytest.raises(SchemaError):
            decode_row(schema, b"")

    def test_inline_null_keeps_size_constant(self, annotated_schema):
        base = ("Laura", 6, "db")
        with_nulls = encode_row(annotated_schema, Row(base + (NULL, NULL)))
        with_values = encode_row(
            annotated_schema, Row(base + (Rid(0, 1), 430))
        )
        assert len(with_nulls) == len(with_values)

    def test_annotated_roundtrip(self, annotated_schema):
        row = Row(("Laura", 6, NULL, Rid(2, 5), 430))
        decoded = decode_row(annotated_schema, encode_row(annotated_schema, row))
        assert decoded.values == ("Laura", 6, NULL, Rid(2, 5), 430)

    def test_many_columns_bitmap(self):
        # More than 8 columns exercises the multi-byte NULL bitmap.
        schema = Schema.of(*[(f"c{i}", "int", True) for i in range(12)])
        values = [i if i % 3 else NULL for i in range(12)]
        decoded = decode_row(schema, encode_row(schema, Row(values)))
        assert [v if v is not NULL else NULL for v in decoded.values] == values


class TestFieldProbe:
    def test_prefix_and_suffix_read_inline(self):
        schema = Schema.of(("k", "int"), ("v", "float"), ("s", "string")).with_columns(
            [
                Column("$PREVADDR$", "rid", nullable=True, hidden=True),
                Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True),
            ]
        )
        record = encode_row(schema, Row((7, 0.5, "x", NULL, 430)))
        assert decode_fields(schema, record, (4, 3, 1)) == (430, NULL, 0.5)
        probe = schema._field_probes[(4, 3, 1)]
        assert probe.__name__ == "_probe"  # generated, not the walker

    def test_column_behind_string_uses_walker(self, annotated_schema):
        record = encode_row(annotated_schema, Row(("Laura", 6, "db", NULL, 430)))
        assert decode_fields(annotated_schema, record, (2,)) == ("db",)
        assert annotated_schema._field_probes[(2,)].__name__ == "walker"

    def test_bitmap_null_falls_back(self, annotated_schema):
        record = encode_row(annotated_schema, Row(("Laura", 6, NULL, Rid(1, 2), 5)))
        assert decode_fields(annotated_schema, record, (1, 2, 3)) == (
            6,
            NULL,
            Rid(1, 2),
        )

    def test_probe_cached_per_schema_object(self, schema):
        twin = Schema(schema.columns)
        record = encode_row(schema, Row(("Laura", 6, "db")))
        assert decode_fields(schema, record, (1,)) == (6,)
        assert (1,) in schema._field_probes
        assert (1,) not in twin._field_probes
        assert decode_fields(twin, record, (1,)) == (6,)
        assert twin._field_probes[(1,)] is not schema._field_probes[(1,)]
