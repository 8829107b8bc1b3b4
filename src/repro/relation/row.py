"""Row values and their byte encoding.

A :class:`Row` is an immutable sequence of Python values matching a
:class:`~repro.relation.schema.Schema`.  The byte encoding is a NULL
bitmap followed by each non-NULL column's type-specific encoding; the same
bytes are stored in slotted pages and charged against the simulated
network channel, so storage sizes and message sizes agree by construction.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relation.schema import Schema
from repro.relation.types import (
    NULL,
    ColumnType,
    FloatType,
    IntType,
    RidType,
    TimestampType,
)
from repro.storage.rid import Rid


class Row:
    """An immutable tuple of column values tied to no particular schema.

    Rows are plain value containers: equality and hashing are structural.
    Use :meth:`replace` to derive an updated row and ``row["name"]`` /
    ``row[idx]`` via :meth:`get` with a schema for named access.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[Any]) -> None:
        self._values: "tuple[Any, ...]" = tuple(values)

    @property
    def values(self) -> "tuple[Any, ...]":
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, index: int) -> Any:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Row{self._values!r}"

    def get(self, schema: Schema, name: str) -> Any:
        """Return the value of column ``name`` under ``schema``."""
        return self._values[schema.position(name)]

    def replace(self, schema: Schema, **updates: Any) -> "Row":
        """Return a copy with the named columns replaced."""
        values = list(self._values)
        for name, value in updates.items():
            values[schema.position(name)] = value
        return Row(values)

    def project(self, schema: Schema, names: Sequence[str]) -> "Row":
        """Return a row holding only the named columns, in order."""
        return Row(self._values[schema.position(name)] for name in names)


def _bitmap_size(column_count: int) -> int:
    return (column_count + 7) // 8


def encode_row(schema: Schema, row: Row) -> bytes:
    """Serialize ``row`` under ``schema`` (validating it first).

    Layout: ``ceil(ncols/8)`` bytes of NULL bitmap (bit i set means column
    i is NULL) followed by the concatenated encodings of non-NULL values
    in schema order.
    """
    schema.validate(row.values)
    bitmap = bytearray(_bitmap_size(len(schema)))
    parts = [bytes(bitmap)]  # placeholder, replaced below
    body = bytearray()
    for position, (column, value) in enumerate(zip(schema, row)):
        if value is NULL and not column.ctype.inline_null:
            bitmap[position // 8] |= 1 << (position % 8)
        else:
            body += column.ctype.encode(value)
    parts[0] = bytes(bitmap)
    parts.append(bytes(body))
    return b"".join(parts)


def decode_row(schema: Schema, data: bytes) -> Row:
    """Inverse of :func:`encode_row`."""
    bitmap_size = _bitmap_size(len(schema))
    if len(data) < bitmap_size:
        raise SchemaError("row image shorter than its NULL bitmap")
    values = []
    offset = bitmap_size
    for position, column in enumerate(schema):
        if data[position // 8] & (1 << (position % 8)):
            values.append(NULL)
        else:
            value, offset = column.ctype.decode(data, offset)
            values.append(value)
    return Row(values)


def encoded_size(schema: Schema, row: Row) -> int:
    """Size in bytes of the encoding of ``row`` (used for traffic accounting).

    Computed column-by-column without building the byte string — byte
    accounting asks for sizes far more often than it ships bytes.  The
    row-codec property test pins ``encoded_size(schema, row) ==
    len(encode_row(schema, row))`` for arbitrary schemas and rows.
    """
    schema.validate(row.values)
    total = _bitmap_size(len(schema))
    for column, value in zip(schema, row):
        if value is NULL and not column.ctype.inline_null:
            continue
        total += column.ctype.encoded_size(value)
    return total


def encoded_fields_size(
    schema: Schema, positions: Sequence[int], values: Sequence[Any]
) -> int:
    """Encoded size of a *partial* row: the columns at ``positions`` only.

    The layout mirrors :func:`encode_row` restricted to the named
    columns — ``ceil(len(positions)/8)`` bytes of NULL bitmap over the
    selected columns, then each non-NULL value's encoding.  This is the
    value payload the per-column update-delta message charges on the
    wire: only the changed columns cross the link.
    """
    total = _bitmap_size(len(positions))
    for position, value in zip(positions, values):
        ctype = schema.columns[position].ctype
        if value is NULL and not ctype.inline_null:
            continue
        total += ctype.encoded_size(value)
    return total


def decode_fields(
    schema: Schema, data: bytes, positions: Sequence[int]
) -> "tuple[Any, ...]":
    """Decode only the columns at ``positions``, in the order given.

    The refresh scan needs the trailing ``$PREVADDR$``/``$TIMESTAMP$``
    annotations (and the restriction's columns) of every entry but the
    full row only for entries it actually transmits; decoding just those
    fields is what makes the scan cheap on unchanged data.

    The work is done by a probe function generated once per
    ``(schema, positions)`` and cached on the schema (see
    :func:`_compile_probe`).  On a record whose NULL bitmap is all zero
    it reads every wanted column at a precomputed offset; any other
    record goes through the reference walker :func:`_walk_fields`.
    """
    try:
        probe = schema._field_probes[positions]  # type: ignore[index]
    except (KeyError, TypeError):  # first use, or an unhashable sequence
        key = tuple(positions)
        probe = schema._field_probes.get(key)
        if probe is None:
            probe = _compile_probe(schema, key)
            schema._field_probes[key] = probe
    return probe(data)


#: ``struct`` format of each column type a probe reads inline.
_PROBE_FORMATS: "dict[type, str]" = {
    IntType: "q",
    FloatType: "d",
    RidType: "iI",
    TimestampType: "q",
}


def _probe_value(ctype: ColumnType, var: str) -> "tuple[list[str], str]":
    """Unpack targets and value expression for one inline-read column."""
    if isinstance(ctype, RidType):
        return [var + "p", var + "s"], (
            f"_NULL if {var}p == {RidType._NULL_PAGE} else _R({var}p, {var}s)"
        )
    if isinstance(ctype, TimestampType):
        return [var], f"_NULL if {var} == {TimestampType._NULL_SENTINEL} else {var}"
    return [var], var


def _compile_probe(
    schema: Schema, positions: "tuple[int, ...]"
) -> "Callable[[bytes], tuple[Any, ...]]":
    """Generate the :func:`decode_fields` probe for ``positions``.

    With the NULL bitmap all zero every column's body is present, so a
    column's start is a constant offset from the record start while all
    columns before it are fixed-width (the *prefix*), and a constant
    distance from the record end while it and all columns after it are
    fixed-width (the *suffix*).  The wanted columns of each region are
    read with one precompiled ``struct`` unpack, unwanted columns in
    between becoming pad bytes.  The inline-NULL sentinels of
    ``rid`` and ``timestamp`` columns map to :data:`NULL` exactly as
    :meth:`RidType.decode` and :meth:`TimestampType.decode` do.

    When some wanted column lies in neither region, or is not one of the
    fixed-width types above, the probe is the reference walker itself.
    """
    columns = schema.columns
    bitmap_size = _bitmap_size(len(columns))

    def walker(data: bytes) -> "tuple[Any, ...]":
        return _walk_fields(schema, data, positions)

    forward: "dict[int, int]" = {}
    offset = bitmap_size
    for position, column in enumerate(columns):
        size = column.ctype.fixed_size
        if size is None:
            break
        forward[position] = offset
        offset += size
    backward: "dict[int, int]" = {}
    distance = 0
    for position in range(len(columns) - 1, -1, -1):
        size = columns[position].ctype.fixed_size
        if size is None:
            break
        distance += size
        backward[position] = distance

    head: "list[int]" = []
    tail: "list[int]" = []
    for position in sorted(set(positions)):
        if type(columns[position].ctype) not in _PROBE_FORMATS:
            return walker
        if position in forward:
            head.append(position)
        elif position in backward:
            tail.append(position)
        else:
            return walker

    namespace: "dict[str, Any]" = {
        "_NULL": NULL,
        "_R": Rid,
        "_W": walker,
        "_Z": bytes(bitmap_size),
    }
    lines = []
    if bitmap_size == 1:
        lines.append("    if d and not d[0]:")
    else:
        lines.append("    if d[:%d] == _Z:" % bitmap_size)
    if tail:
        lines.append("        e = len(d)")
    values: "dict[int, str]" = {}
    for region, group in (("head", head), ("tail", tail)):
        if not group:
            continue
        fmt = "<"
        targets: "list[str]" = []
        for position in range(group[0], group[-1] + 1):
            ctype = columns[position].ctype
            if position in group:
                names, values[position] = _probe_value(ctype, f"c{position}")
                fmt += _PROBE_FORMATS[type(ctype)]
                targets += names
            else:
                fmt += "%dx" % (ctype.fixed_size or 0)
        reader = f"_U{region}"
        namespace[reader] = struct.Struct(fmt).unpack_from
        if region == "head":
            where = str(forward[group[0]])
        else:
            where = f"e - {backward[group[0]]}"
        lines.append(f"        {', '.join(targets)}, = {reader}(d, {where})")
    if positions:
        result = ", ".join(f"({values[position]})" for position in positions)
        lines.append(f"        return ({result},)")
    else:
        lines.append("        return ()")
    lines.append("    return _W(d)")
    source = "def _probe(d):\n" + "\n".join(lines) + "\n"
    code = compile(source, f"<decode_fields probe {positions}>", "exec")
    exec(code, namespace)  # noqa: S102 — source rendered from the schema above
    probe: "Callable[[bytes], tuple[Any, ...]]" = namespace["_probe"]
    return probe


def _walk_fields(
    schema: Schema, data: bytes, positions: Sequence[int]
) -> "tuple[Any, ...]":
    """Reference form of :func:`decode_fields`: a per-column walk.

    The compiled probes fall back to it for every record they cannot
    read at precomputed offsets, and the property tests and the runtime
    sanitizer use it as the oracle the probes are checked against.

    Columns in the record's *fixed-width suffix* (every column at or
    after them is fixed-size) are decoded backward from the end of the
    record without touching anything else — the annotation columns, which
    are always appended last, hit this path in O(1).  Remaining columns
    are found with a forward walk that skips over unneeded values (via
    their length prefixes) instead of materializing them.
    """
    columns = schema.columns
    count = len(columns)
    bitmap_size = _bitmap_size(count)
    if len(data) < bitmap_size:
        raise SchemaError("row image shorter than its NULL bitmap")
    wanted = set(positions)
    found: "dict[int, Any]" = {}

    # Backward pass over the fixed-width suffix.
    end = len(data)
    for position in range(count - 1, -1, -1):
        if not wanted:
            break
        column = columns[position]
        ctype = column.ctype
        if not ctype.inline_null and data[position // 8] & (1 << (position % 8)):
            if position in wanted:
                found[position] = NULL
                wanted.discard(position)
            continue  # bitmap NULL occupies no body bytes
        size = ctype.fixed_size
        if size is None:
            break  # variable-width: cannot locate anything before it from the end
        end -= size
        if position in wanted:
            found[position], _ = ctype.decode(data, end)
            wanted.discard(position)

    # Forward walk for whatever the suffix pass could not reach.
    if wanted:
        limit = max(wanted)
        offset = bitmap_size
        for position in range(limit + 1):
            column = columns[position]
            ctype = column.ctype
            if not ctype.inline_null and data[position // 8] & (1 << (position % 8)):
                if position in wanted:
                    found[position] = NULL
                continue
            if position in wanted:
                found[position], offset = ctype.decode(data, offset)
            else:
                offset = ctype.skip(data, offset)
    return tuple(found[position] for position in positions)
