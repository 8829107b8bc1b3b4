"""``BaseFixup`` — the batch annotation-repair pass (Figure 7).

Under lazy (batch) maintenance, base-table operations leave the
annotations inconsistent on purpose: inserts carry ``PrevAddr = NULL``
and ``TimeStamp = NULL``, updates carry ``TimeStamp = NULL``, and deletes
leave dangling ``PrevAddr`` references in their successors.  This pass
scans the table in address order and restores the invariants the
Figure-3 refresh algorithm needs:

- an entry with NULL ``PrevAddr`` was *inserted*: set
  ``PrevAddr = LastAddr`` and stamp it;
- a non-inserted entry with NULL ``TimeStamp`` was *updated*: stamp it;
- a non-inserted entry whose ``PrevAddr`` differs from the address of the
  last non-newly-inserted entry (``ExpectPrev``) has *deletions* before
  it: repoint and stamp it ("the notion of detecting deletions ... by
  detecting anomalies in the empty region information in the PrevAddr
  fields is central to the differential refresh algorithm");
- a ``PrevAddr`` equal to ``ExpectPrev`` but not to the immediately
  preceding entry means *insertions* before it: repoint only (no stamp —
  an insertion does not grow the preceding empty region).

The caller must hold a table-level lock; only snapshot refresh events
need distinct times, so every repair in one pass uses one ``FixupTime``.

The standalone pass exists for exposition and tests; production refresh
uses the combined single-scan version in
:mod:`repro.core.differential`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RefreshMethodError
from repro.relation.row import decode_fields
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.table import PREVADDR, TIMESTAMP, Table


class FixupResult:
    """What one fix-up pass observed and repaired."""

    __slots__ = (
        "fixup_time",
        "scanned",
        "inserted",
        "updated",
        "deletions_detected",
        "repointed_only",
        "writes",
    )

    def __init__(self, fixup_time: int) -> None:
        self.fixup_time = fixup_time
        self.scanned = 0
        self.inserted = 0
        self.updated = 0
        self.deletions_detected = 0
        self.repointed_only = 0
        self.writes = 0

    def __repr__(self) -> str:
        return (
            f"FixupResult(time={self.fixup_time}, scanned={self.scanned}, "
            f"inserted={self.inserted}, updated={self.updated}, "
            f"deletions={self.deletions_detected}, "
            f"repointed={self.repointed_only}, writes={self.writes})"
        )


def base_fixup(table: Table, fixup_time: Optional[int] = None) -> FixupResult:
    """Run Figure 7's ``BaseFixup`` over ``table``; return statistics.

    Idempotent: a second pass over an unmodified table performs no
    writes.  ``fixup_time`` defaults to a fresh clock tick.
    """
    if table.annotation_mode != "lazy":
        raise RefreshMethodError(
            f"fix-up applies to lazily annotated tables, not "
            f"{table.annotation_mode!r}"
        )
    prev_pos = table.schema.position(PREVADDR)
    ts_pos = table.schema.position(TIMESTAMP)
    if fixup_time is None:
        fixup_time = table.db.clock.tick()
    result = FixupResult(fixup_time)

    expect_prev = Rid.BEGIN  # last non-newly-inserted entry seen
    last_addr = Rid.BEGIN  # last entry seen, of any kind
    positions = (prev_pos, ts_pos)
    for rid, body in table.heap.scan():
        result.scanned += 1
        # Only the two trailing annotation fields are needed; skip the
        # rest of the row.
        prev, ts = decode_fields(table.schema, body, positions)
        if prev is NULL:
            # Inserted since the last fix-up.
            table.set_annotations(
                rid.page_no, [(rid.slot_no, last_addr, fixup_time)]
            )
            result.inserted += 1
            result.writes += 1
        else:
            new_prev = None
            new_ts = None
            if ts is NULL:
                # Updated since the last fix-up.
                new_ts = fixup_time
                result.updated += 1
            if prev != expect_prev:
                # Entry(s) deleted between ExpectPrev and this entry.
                new_prev = last_addr
                new_ts = fixup_time
                result.deletions_detected += 1
            elif prev != last_addr:
                # Entries inserted immediately before this entry.
                new_prev = last_addr
                if new_ts is None:
                    result.repointed_only += 1
            if new_prev is not None or new_ts is not None:
                table.set_annotations(
                    rid.page_no, [(rid.slot_no, new_prev, new_ts)]
                )
                result.writes += 1
            expect_prev = rid
        last_addr = rid
    return result
