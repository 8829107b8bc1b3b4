"""Per-page change summaries: the skip index for differential refresh.

The paper's refresh scan reads and decodes every entry of the base table
even when almost nothing changed — the cost is O(table size) per refresh.
A :class:`PageSummary` condenses each heap page's change state into a few
words so the combined fix-up + refresh scan can decide, without pinning
the page, that nothing on it needs repairing or transmitting:

``max_ts``
    Upper bound on the committed ``$TIMESTAMP$`` values of the page's
    live entries (an over-estimate after deletes, which is safe: it can
    only force an unnecessary scan, never permit a wrong skip).

``null_slots``
    Slots whose ``$PREVADDR$`` or ``$TIMESTAMP$`` is NULL — lazy inserts
    and updates awaiting fix-up.  Fix-up writes go through the same heap
    hook and therefore *clear* the dirty state they repair.

``structural_changed_at``
    A clock value bounding the last delete (or undo re-insert) on the
    page from above.  Deletes leave no timestamp behind in lazy mode —
    they are detected as ``PrevAddr`` anomalies at the *next* live entry,
    possibly on a later page — so a page with a recent structural change
    must be scanned even though its remaining entries look old.

``first_live_slot`` / ``last_live_slot``
    The page's live-address bounds; a skipped page fast-forwards the
    scan's ``LastAddr``/``ExpectPrev`` state to its last live address.

``page_version``
    Bumped on *every* record write to the page (including annotation
    repairs).  A cached per-snapshot :class:`PageQualInfo` is valid only
    while the version matches, i.e. while the page bytes are exactly
    what the caching scan saw.

A page is *skippable* for ``snap_time`` iff it has no NULL annotations,
``max_ts <= snap_time``, and no structural change after ``snap_time``
(see :class:`repro.core.differential.DifferentialRefresher` for the
additional scan-state conditions at page boundaries).

Summaries are keyed by ``(page, slot)`` — never by byte offsets — so
:meth:`repro.storage.page.SlottedPage.compact` cannot invalidate them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.relation.row import decode_fields
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid

if TYPE_CHECKING:  # imported lazily: heap.py is a client of this module
    from repro.storage.heap import HeapFile
    from repro.storage.page import SlottedPage


class PageSummary:
    """Incrementally maintained change state of one heap page."""

    __slots__ = (
        "page_no",
        "page_version",
        "max_ts",
        "null_slots",
        "structural_changed_at",
        "first_live_slot",
        "last_live_slot",
    )

    def __init__(self, page_no: int) -> None:
        self.page_no = page_no
        self.page_version = 0
        self.max_ts = 0
        self.null_slots: "set[int]" = set()
        self.structural_changed_at = 0
        self.first_live_slot: Optional[int] = None
        self.last_live_slot: Optional[int] = None

    @property
    def has_null_annotations(self) -> bool:
        return bool(self.null_slots)

    @property
    def first_live_rid(self) -> Optional[Rid]:
        if self.first_live_slot is None:
            return None
        return Rid(self.page_no, self.first_live_slot)

    @property
    def last_live_rid(self) -> Optional[Rid]:
        if self.last_live_slot is None:
            return None
        return Rid(self.page_no, self.last_live_slot)

    def skippable(self, snap_time: int) -> bool:
        """Content condition: nothing on this page changed after ``snap_time``."""
        return (
            not self.null_slots
            and self.max_ts <= snap_time
            and self.structural_changed_at <= snap_time
        )

    def __repr__(self) -> str:
        return (
            f"PageSummary(page={self.page_no}, v={self.page_version}, "
            f"max_ts={self.max_ts}, nulls={len(self.null_slots)}, "
            f"structural@{self.structural_changed_at}, "
            f"live=[{self.first_live_slot}..{self.last_live_slot}])"
        )


class PageQualInfo:
    """Per-snapshot cache of one page's qualified-address layout.

    Populated when a refresh scans the page; valid while the page's
    version is unchanged.  On a valid hit the refresh fast-forwards its
    ``LastQual``/``ExpectPrev``/``LastAddr`` state across the page
    without decoding a single record, which preserves the Figure-4
    receiver contract: the next transmitted entry carries
    ``prev_qual = last_qual`` of the skipped page, so its deletion range
    cannot wipe out the skipped page's snapshot rows.
    """

    __slots__ = (
        "page_version",
        "first_prev",
        "first_qual",
        "last_qual",
        "qual_count",
        "last_live",
    )

    def __init__(
        self,
        page_version: int,
        first_prev: Optional[Rid],
        first_qual: Optional[Rid],
        last_qual: Optional[Rid],
        qual_count: int,
        last_live: Optional[Rid],
    ) -> None:
        self.page_version = page_version
        #: ``$PREVADDR$`` of the page's first live entry as the caching
        #: scan left it; a later skip requires this to equal the scan's
        #: ``ExpectPrev`` at the boundary, which is what catches
        #: deletions whose anomaly lives on this page.
        self.first_prev = first_prev
        self.first_qual = first_qual
        self.last_qual = last_qual
        self.qual_count = qual_count
        self.last_live = last_live

    def __repr__(self) -> str:
        return (
            f"PageQualInfo(v={self.page_version}, first_prev={self.first_prev}, "
            f"qual=[{self.first_qual}..{self.last_qual}]x{self.qual_count}, "
            f"last_live={self.last_live})"
        )


class PageSummaryMap:
    """All page summaries of one heap, fed by the heap's write hooks.

    ``now`` is a zero-argument callable reading the site clock *without*
    advancing it; structural changes are recorded as ``now() + 1`` — a
    value strictly greater than every completed clock tick, hence
    strictly greater than any existing snapshot's ``SnapTime``.  That
    keeps deletes (which never tick the clock in lazy mode) ordered
    after the refreshes that preceded them without perturbing the
    paper's timestamp bookkeeping.
    """

    def __init__(
        self,
        schema: Schema,
        prev_pos: int,
        ts_pos: int,
        now: Callable[[], int],
    ) -> None:
        self._schema = schema
        self._positions: "tuple[int, int]" = (prev_pos, ts_pos)
        self._now = now
        self._pages: "dict[int, PageSummary]" = {}

    def get(self, page_no: int) -> Optional[PageSummary]:
        return self._pages.get(page_no)

    def get_or_create(self, page_no: int) -> PageSummary:
        summary = self._pages.get(page_no)
        if summary is None:
            summary = PageSummary(page_no)
            self._pages[page_no] = summary
        return summary

    def __len__(self) -> int:
        return len(self._pages)

    # -- write hooks (called by HeapFile while the page is pinned) -----------

    def _absorb(self, summary: PageSummary, slot_no: int, body: bytes) -> None:
        """Fold one record image's annotation state into the summary."""
        prev, ts = decode_fields(self._schema, body, self._positions)
        if prev is NULL or ts is NULL:
            summary.null_slots.add(slot_no)
        else:
            summary.null_slots.discard(slot_no)
        if ts is not NULL and ts > summary.max_ts:
            summary.max_ts = ts

    def note_insert(
        self, rid: Rid, body: bytes, structural: bool = False
    ) -> None:
        summary = self.get_or_create(rid.page_no)
        summary.page_version += 1
        self._absorb(summary, rid.slot_no, body)
        if summary.first_live_slot is None or rid.slot_no < summary.first_live_slot:
            summary.first_live_slot = rid.slot_no
        if summary.last_live_slot is None or rid.slot_no > summary.last_live_slot:
            summary.last_live_slot = rid.slot_no
        if structural:
            self._mark_structural(summary)

    def note_update(self, rid: Rid, body: bytes) -> None:
        summary = self.get_or_create(rid.page_no)
        summary.page_version += 1
        self._absorb(summary, rid.slot_no, body)

    def note_delete(self, rid: Rid, page: "SlottedPage") -> None:
        summary = self.get_or_create(rid.page_no)
        summary.page_version += 1
        summary.null_slots.discard(rid.slot_no)
        self._mark_structural(summary)
        # Deleting an interior slot leaves the bounds as they were; only
        # losing an endpoint (or not knowing them) needs a directory walk.
        first, last = summary.first_live_slot, summary.last_live_slot
        if first is not None and last is not None and first < rid.slot_no < last:
            return
        bounds = page.live_bounds()
        if bounds is None:
            summary.first_live_slot = None
            summary.last_live_slot = None
        else:
            summary.first_live_slot, summary.last_live_slot = bounds

    def _mark_structural(self, summary: PageSummary) -> None:
        changed_at = self._now() + 1
        if changed_at > summary.structural_changed_at:
            summary.structural_changed_at = changed_at

    # -- bulk (re)construction ------------------------------------------------

    def rebuild(self, heap: "HeapFile") -> None:
        """Recompute every summary from the heap's current contents.

        Used when annotations (and with them summaries) are enabled on a
        table that already holds data.
        """
        self._pages.clear()
        for page_no in range(heap.page_count):
            summary = self.get_or_create(page_no)
            for slot_no, body in heap.page_entries(page_no):
                self._absorb(summary, slot_no, body)
                if summary.first_live_slot is None:
                    summary.first_live_slot = slot_no
                summary.last_live_slot = slot_no
