"""Columnar page batches: one extraction per page version, columns after that.

The combined fix-up + refresh scan needs, for every live entry of every
page it reads, the two trailing annotation fields (``$PREVADDR$``,
``$TIMESTAMP$``), the entry's qualification under each cursor's
restriction, and — only for entries actually transmitted — the full row.
The per-row reference path pays a
:func:`~repro.relation.row.decode_fields` probe, a sparse-values list,
and a lazy-entry object *per record per pass*.

A :class:`PageBatch` is the columnar form the scan serves every page
from.  One slot-directory walk over the pinned page image extracts
parallel int tuples of slot numbers, raw timestamps, and ``PrevAddr``
components (both annotation types are fixed 8-byte inline-NULL
encodings at the end of every record, so a single ``Struct("<iIq")``
read per record captures all three).  The page image is copied once;
partial decodes read it in place, and a record body is sliced from it
only when a row is materialized.  The fix-up (Figure 7) runs over the
columns as plain ints and hands each cursor one flag per entry; see
:meth:`~repro.core.differential.RefreshCursor.serve_batch`.

Alongside the columns the extractor computes page-level facts:

``has_nulls``
    Some live entry has a NULL annotation — a lazy insert or update
    awaiting fix-up.
``chain_ok``
    Every entry after the first points at its live predecessor on the
    page.  A broken intra-page chain means a deletion anomaly or an
    insert repoint hides here.
``first_prev`` / ``max_live_ts``
    The boundary inputs: the first entry's ``PrevAddr`` (checked against
    the scan's ``ExpectPrev``) and an exact max over live timestamps
    (``<= snap_time`` means no entry on the page can be value-changed
    for that cursor).

``has_nulls`` and ``chain_ok`` do not route a page anywhere: the scan
serves dirty and clean pages alike from the batch.  They tell the scan
that a page needs no fix-up write (so the all-zero-flags shortcut
applies), and they tell :meth:`~repro.storage.heap.HeapFile.page_batch`
whether a batch is worth caching: any fix-up write bumps the page
version, so a batch the fix-up is about to repair is never reused.

Cached batches live on the buffer pool keyed by the page's summary
version (the repo's LSN stand-in: it bumps on *every* record write, see
:class:`~repro.storage.summary.PageSummary`), so an unchanged page is
never re-decoded across refreshes — and the per-batch caches below make
the *derived* work reusable too:

- :meth:`probe_values` memoizes partial decodes per position tuple;
- :meth:`qualifying` memoizes each restriction's qualifying entries,
  computed by the restriction's page form
  (:meth:`~repro.expr.predicate.Restriction.__call__` with probe
  positions, a generated kernel) over the probe;
- :meth:`row` memoizes full-row materialization, so fan-out and repeat
  transmissions never decode an entry twice.

Everything here is read-only with respect to the page: extraction runs
under a single pin and copies the image it keeps, so a batch never
aliases buffer-pool frames that may be evicted or rewritten.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.relation.row import Row, decode_row, page_probe
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.page import (
    ANNOTATION_TAIL,
    PREV_NULL_PAGE,
    TS_NULL,
    read_directory,
)
from repro.storage.rid import Rid

if TYPE_CHECKING:  # predicate compilation is a client-layer concern
    from repro.expr.predicate import Restriction

_SLOT_COUNT = struct.Struct("<H")

#: Minimum record size that can carry the trailing annotations (one
#: NULL-bitmap byte plus the two fixed 8-byte annotation fields).
_MIN_ANNOTATED = 17


class PageBatch:
    """Columnar image of one heap page's live entries plus derived caches.

    Instances are built by :func:`extract_page_batch` and are immutable
    in their extracted state; the probe/qualification/row caches fill
    lazily and stay valid for the lifetime of the batch because a batch
    is only ever served while its ``version`` matches the page's (or,
    for a page the scan is repairing, within that one visit).
    """

    __slots__ = (
        "page_no",
        "version",
        "count",
        "slots",
        "ts",
        "prev_pages",
        "prev_slots",
        "has_nulls",
        "chain_ok",
        "first_prev",
        "max_live_ts",
        "materializations",
        "decodes",
        "_image",
        "_offsets",
        "_lengths",
        "_schema",
        "_rows",
        "_probe_cache",
        "_qual_cache",
    )

    def __init__(
        self,
        page_no: int,
        version: int,
        schema: Schema,
        image: bytes,
        slots: "Tuple[int, ...]",
        offsets: "Tuple[int, ...]",
        lengths: "Tuple[int, ...]",
        ts: "Tuple[int, ...]",
        prev_pages: "Tuple[int, ...]",
        prev_slots: "Tuple[int, ...]",
        has_nulls: bool,
        chain_ok: bool,
        first_prev: object,
        max_live_ts: int,
    ) -> None:
        self.page_no = page_no
        #: The page-summary version the extraction saw; the buffer-pool
        #: cache only serves a batch whose version still matches.
        self.version = version
        self.count = len(slots)
        self.slots = slots
        #: Raw i64 timestamps; :data:`TS_NULL` is the inline-NULL sentinel.
        self.ts = ts
        #: Raw ``PrevAddr`` components; a page of :data:`PREV_NULL_PAGE`
        #: is the inline-NULL sentinel.
        self.prev_pages = prev_pages
        self.prev_slots = prev_slots
        self.has_nulls = has_nulls
        self.chain_ok = chain_ok
        #: Decoded ``PrevAddr`` of the first live entry (``NULL`` or a
        #: :class:`Rid`, possibly ``Rid.BEGIN``); ``None`` when empty.
        self.first_prev = first_prev
        #: Exact max over live non-NULL timestamps (0 when none).
        self.max_live_ts = max_live_ts
        #: Cumulative full-row decodes; scans diff this around a page
        #: visit to charge ``rows_materialized`` honestly.
        self.materializations = 0
        #: Cumulative partial decodes (entries run through a probe);
        #: scans diff this to charge ``rows_decoded``.
        self.decodes = 0
        self._image = image
        self._offsets = offsets
        self._lengths = lengths
        self._schema = schema
        self._rows: "List[Optional[Row]]" = [None] * self.count
        self._probe_cache: "Dict[Tuple[int, ...], List[Tuple[object, ...]]]" = {}
        self._qual_cache: "Dict[str, List[int]]" = {}

    @property
    def bodies(self) -> "List[bytes]":
        """Every live record body in slot order, sliced from the image."""
        image = self._image
        return [
            image[offset : offset + length]
            for offset, length in zip(self._offsets, self._lengths)
        ]

    def last_rid(self) -> Optional[Rid]:
        """Address of the page's last live entry (``None`` when empty)."""
        if not self.count:
            return None
        return Rid(self.page_no, self.slots[-1])

    def row(self, index: int) -> Row:
        """Full row of entry ``index``, decoded at most once per batch."""
        row = self._rows[index]
        if row is None:
            offset = self._offsets[index]
            body = self._image[offset : offset + self._lengths[index]]
            row = decode_row(self._schema, body)
            self._rows[index] = row
            self.materializations += 1
        return row

    def probe_values(
        self, positions: "Tuple[int, ...]"
    ) -> "List[Tuple[object, ...]]":
        """Partial decodes of every entry over ``positions``, memoized."""
        cached = self._probe_cache.get(positions)
        if cached is None:
            cached = page_probe(self._schema, positions)(
                self._image, self._offsets, self._lengths
            )
            self._probe_cache[positions] = cached
            self.decodes += self.count
        return cached

    def qualifying(
        self, restriction: "Restriction", positions: "Tuple[int, ...]"
    ) -> "List[int]":
        """Indices of entries satisfying ``restriction``, memoized by text.

        This is the batch form of the Figure-3 qualification test: the
        restriction runs once per page version per predicate, over the
        probe at ``positions`` (a sorted position tuple covering its
        columns).  A scan passes its shared probe, so one partial
        decode per entry serves every cursor.
        """
        key: str = restriction.text
        cached = self._qual_cache.get(key)
        if cached is None:
            cached = restriction(self.probe_values(positions), positions)
            self._qual_cache[key] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"PageBatch(page={self.page_no}, v={self.version}, "
            f"count={self.count}, nulls={self.has_nulls}, "
            f"chain={'ok' if self.chain_ok else 'broken'}, "
            f"max_ts={self.max_live_ts})"
        )


def extract_page_batch(
    page_no: int,
    buf: bytearray,
    schema: Schema,
    version: int,
) -> PageBatch:
    """Extract a :class:`PageBatch` from a pinned page image.

    The image is copied once; the slot directory is unpacked in a
    single call and each live record's annotation tail is read with one
    :data:`~repro.storage.page.ANNOTATION_TAIL` unpack.  Everything
    else — the column split, the NULL test, the timestamp max and the
    intra-page chain check — runs as whole-tuple operations.  The caller
    holds the pin for the duration.  The schema must end in the two
    annotation columns, as every annotated table's does.
    """
    image = bytes(buf)
    (slot_count,) = _SLOT_COUNT.unpack_from(image, 2)
    directory = read_directory(image, slot_count)
    offsets: "Tuple[int, ...]" = directory[0::2]
    lengths: "Tuple[int, ...]" = directory[1::2]
    if 0 in offsets:  # freed slots: keep the live ones
        slots: "Tuple[int, ...]" = tuple(
            slot_no for slot_no, offset in enumerate(offsets) if offset
        )
        offsets = tuple(offsets[slot_no] for slot_no in slots)
        lengths = tuple(lengths[slot_no] for slot_no in slots)
    else:
        slots = tuple(range(slot_count))
    count = len(slots)
    if not count:
        return PageBatch(
            page_no, version, schema, image, (), (), (), (), (), (),
            False, True, None, 0,
        )
    if min(lengths) < _MIN_ANNOTATED:
        index = next(
            i for i, length in enumerate(lengths) if length < _MIN_ANNOTATED
        )
        raise StorageError(
            f"page {page_no} slot {slots[index]}: record of "
            f"{lengths[index]} bytes cannot carry trailing annotations"
        )
    tail_read = ANNOTATION_TAIL.unpack_from
    tails = [
        tail_read(image, offset + length - 16)
        for offset, length in zip(offsets, lengths)
    ]
    prev_pages, prev_slots, ts = zip(*tails)
    first_prev: object = (
        NULL
        if prev_pages[0] == PREV_NULL_PAGE
        else Rid(prev_pages[0], prev_slots[0])
    )
    # Timestamps are positive clock ticks and the NULL sentinel is the
    # smallest i64, so a plain max skips NULLs; 0 when none is set.
    max_live_ts = max(max(ts), 0)
    return PageBatch(
        page_no,
        version,
        schema,
        image,
        slots,
        offsets,
        lengths,
        ts,
        prev_pages,
        prev_slots,
        TS_NULL in ts or PREV_NULL_PAGE in prev_pages,
        prev_slots[1:] == slots[:-1]
        and prev_pages[1:] == (page_no,) * (count - 1),
        first_prev,
        max_live_ts,
    )
