"""Heap files: ordered collections of slotted pages with address reuse.

A heap file owns a sequence of pages (in allocation order) inside a shared
buffer pool.  Records are addressed by :class:`~repro.storage.rid.Rid`;
scanning yields records in strictly increasing address order, which is the
scan the refresh algorithms rely on.

Insert placement policies:

``first_fit`` (default)
    Place the record at the lowest address that can hold it, reusing
    freed slots.  This mirrors 1986-era storage managers and produces the
    insert-into-empty-region behaviour the paper's annotation scheme is
    designed around.

``append``
    Always place the record after the current maximum address.  Useful
    for building tables quickly and for workloads modelling insert-only
    tables.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import SLOT_SIZE, SlottedPage
from repro.storage.rid import Rid


class HeapWriteCounts:
    """Counts of physical record writes performed on a heap."""

    __slots__ = ("inserts", "updates", "deletes")

    def __init__(self) -> None:
        self.inserts = 0
        self.updates = 0
        self.deletes = 0

    @property
    def total(self) -> int:
        return self.inserts + self.updates + self.deletes

    def reset(self) -> None:
        self.inserts = 0
        self.updates = 0
        self.deletes = 0

    def __repr__(self) -> str:
        return (
            f"HeapWriteCounts(inserts={self.inserts}, "
            f"updates={self.updates}, deletes={self.deletes})"
        )


class HeapFile:
    """A table's physical storage: pages, records, and ordered scans."""

    def __init__(
        self,
        pool: BufferPool,
        name: str = "heap",
        insert_policy: str = "first_fit",
    ) -> None:
        if insert_policy not in ("first_fit", "append"):
            raise StorageError(f"unknown insert policy: {insert_policy!r}")
        self._pool = pool
        self.name = name
        self.insert_policy = insert_policy
        # Page numbers owned by this heap, in address order.  The Rid page
        # component is an *index* into this list, so heaps sharing a pager
        # still have dense, comparable addresses.
        self._pages: "list[int]" = []
        # Approximate free bytes per heap page; refreshed on every touch.
        self._free_hint: "list[int]" = []
        self._record_count = 0
        #: Physical operation counters (benchmarks read these to compare
        #: the maintenance cost of the annotation schemes).
        self.writes = HeapWriteCounts()
        #: Optional :class:`~repro.storage.summary.PageSummaryMap` fed by
        #: every record write (attached by the table layer once the
        #: annotation columns exist, since summaries decode them).
        self.summaries = None
        # Write observers: callbacks invoked as ``callback(kind, rid)``
        # after every physical record write (kind is "insert", "update"
        # or "delete").  This is a *separate* mechanism from the page
        # summaries above — summaries decode annotation bytes and keep
        # per-page change state; an observer just watches the write
        # stream (the chunked refresh scan brackets its chunks with the
        # observer's sequence numbers).
        self._write_observers: "list[Callable[[str, Rid], None]]" = []
        # Guards the write counters, record count, and observer
        # notification order: sharded refresh workers repair annotations
        # on disjoint pages concurrently, and the read-modify-write
        # counter bumps (and observer sequence numbering) must stay
        # exact.  Leaf lock — never held across a pin or a table lock.
        self._write_mutex = threading.Lock()

    def observe_writes(
        self, callback: "Callable[[str, Rid], None]"
    ) -> "Callable[[], None]":
        """Register a write observer; returns an unsubscribe closure."""
        self._write_observers.append(callback)

        def unsubscribe() -> None:
            if callback in self._write_observers:
                self._write_observers.remove(callback)

        return unsubscribe

    def _notify_write(self, kind: str, rid: Rid) -> None:
        for callback in self._write_observers:
            callback(kind, rid)

    def attach_summaries(self, summaries) -> None:
        """Attach a summary map and build it from current contents."""
        self.summaries = summaries
        summaries.rebuild(self)

    # -- page plumbing -----------------------------------------------------

    def _physical(self, heap_page: int) -> int:
        try:
            return self._pages[heap_page]
        except IndexError:
            raise RecordNotFoundError(
                f"{self.name}: page {heap_page} out of range"
            ) from None

    def _pin(self, heap_page: int) -> SlottedPage:
        frame = self._pool.pin(self._physical(heap_page))
        return SlottedPage(frame)

    def _unpin(self, heap_page: int, dirty: bool) -> None:
        self._pool.unpin(self._physical(heap_page), dirty=dirty)

    def _grow(self) -> int:
        physical = self._pool.allocate_page()
        frame = self._pool.pin(physical)
        SlottedPage(frame, initialize=True)
        self._pool.unpin(physical, dirty=True)
        self._pages.append(physical)
        self._free_hint.append(len(frame))
        return len(self._pages) - 1

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def pool(self) -> BufferPool:
        return self._pool

    @property
    def record_count(self) -> int:
        return self._record_count

    def physical_pages(self) -> "list[int]":
        """The pager page numbers this heap owns, in address order."""
        return list(self._pages)

    def discard_cached(self) -> int:
        """Drop this heap's pages from the buffer/batch caches (no I/O)."""
        return self._pool.discard_pages(self._pages)

    # -- record operations ---------------------------------------------------

    def insert(self, record: bytes) -> Rid:
        """Store ``record`` per the insert policy; return its address."""
        if self.insert_policy == "first_fit":
            candidates: "Iterator[int]" = iter(range(len(self._pages)))
        else:
            last = len(self._pages) - 1
            candidates = iter([last] if last >= 0 else [])
        need = len(record) + SLOT_SIZE
        for heap_page in candidates:
            if self._free_hint[heap_page] < need:
                continue
            page = self._pin(heap_page)
            free_slot = page.lowest_free_slot()
            reuse = free_slot is not None
            if page.free_for_insert(len(record), reuse):
                slot_no = page.insert(
                    record, free_slot if reuse else page.slot_count
                )
                self._free_hint[heap_page] = page.free_bytes()
                rid = Rid(heap_page, slot_no)
                if self.summaries is not None:
                    self.summaries.note_insert(rid, record)
                self._unpin(heap_page, dirty=True)
                with self._write_mutex:
                    self._record_count += 1
                    self.writes.inserts += 1
                    if self._write_observers:
                        self._notify_write("insert", rid)
                return rid
            self._free_hint[heap_page] = page.free_bytes()
            self._unpin(heap_page, dirty=False)
        heap_page = self._grow()
        page = self._pin(heap_page)
        slot_no = page.insert(record)
        self._free_hint[heap_page] = page.free_bytes()
        rid = Rid(heap_page, slot_no)
        if self.summaries is not None:
            self.summaries.note_insert(rid, record)
        self._unpin(heap_page, dirty=True)
        with self._write_mutex:
            self._record_count += 1
            self.writes.inserts += 1
            if self._write_observers:
                self._notify_write("insert", rid)
        return rid

    def insert_at(self, rid: Rid, record: bytes) -> None:
        """Re-insert a record at a specific (currently free) address.

        Used by transaction undo to restore a deleted record at its
        original address; raises when the address is occupied or the
        page does not exist.
        """
        page = self._pin(rid.page_no)
        try:
            page.insert(record, slot_no=rid.slot_no)
            self._free_hint[rid.page_no] = page.free_bytes()
            if self.summaries is not None:
                # Undo restores carry whatever (possibly stale) annotations
                # the record had; treat the re-appearance as structural so
                # the next refresh re-examines the page.
                self.summaries.note_insert(rid, record, structural=True)
        finally:
            self._unpin(rid.page_no, dirty=True)
        with self._write_mutex:
            self._record_count += 1
            self.writes.inserts += 1
            if self._write_observers:
                self._notify_write("insert", rid)

    def read(self, rid: Rid) -> bytes:
        """Return the record at ``rid`` (raises if the address is empty)."""
        page = self._pin(rid.page_no)
        try:
            return page.read(rid.slot_no)
        finally:
            self._unpin(rid.page_no, dirty=False)

    def exists(self, rid: Rid) -> bool:
        if not (0 <= rid.page_no < len(self._pages)):
            return False
        page = self._pin(rid.page_no)
        try:
            return page.is_live(rid.slot_no)
        finally:
            self._unpin(rid.page_no, dirty=False)

    def update(self, rid: Rid, record: bytes) -> None:
        """Replace the record at ``rid`` in place.

        Raises :class:`~repro.errors.PageFullError` when the grown record
        cannot fit its page; callers may then delete+reinsert.
        """
        page = self._pin(rid.page_no)
        try:
            page.update(rid.slot_no, record)
            # Benign race: the free-space hint is advisory — a torn or
            # lost update only costs a later writer one extra pin probe,
            # and shard fix-up writers touch disjoint pages anyway.
            self._free_hint[rid.page_no] = page.free_bytes()  # replint: ignore[L601]
            if self.summaries is not None:
                self.summaries.note_update(rid, record)
        finally:
            self._unpin(rid.page_no, dirty=True)
        with self._write_mutex:
            self.writes.updates += 1
            if self._write_observers:
                self._notify_write("update", rid)

    def delete(self, rid: Rid) -> None:
        """Free the address ``rid`` for reuse."""
        page = self._pin(rid.page_no)
        try:
            page.delete(rid.slot_no)
            self._free_hint[rid.page_no] = page.free_bytes()
            if self.summaries is not None:
                self.summaries.note_delete(rid, page)
        finally:
            self._unpin(rid.page_no, dirty=True)
        with self._write_mutex:
            self._record_count -= 1
            self.writes.deletes += 1
            if self._write_observers:
                self._notify_write("delete", rid)

    # -- scans ---------------------------------------------------------------

    def scan(self) -> "Iterator[tuple[Rid, bytes]]":
        """Yield ``(rid, record)`` in strictly increasing address order.

        The scan takes a snapshot of each page's live slots before
        yielding, so callers may update *already-yielded* records (the
        fix-up pass does exactly that) without disturbing iteration.
        """
        for heap_page in range(len(self._pages)):
            page = self._pin(heap_page)
            try:
                entries = list(page.records())
            finally:
                self._unpin(heap_page, dirty=False)
            for slot_no, body in entries:
                yield Rid(heap_page, slot_no), body

    def page_entries(self, heap_page: int) -> "list[tuple[int, bytes]]":
        """Materialize one page's ``(slot_no, body)`` entries in slot order."""
        page = self._pin(heap_page)
        try:
            return list(page.records())
        finally:
            self._unpin(heap_page, dirty=False)

    def page_batch(self, heap_page: int, schema) -> "tuple[object, bool] | None":
        """Columnar :class:`~repro.storage.batch.PageBatch` of one page.

        Returns ``(batch, reused)`` — ``reused`` is True when the buffer
        pool's version-keyed cache already held the batch (no pin taken,
        one batch stat) — or ``None`` when the heap has no summaries to
        version batches by.  On a miss the page is pinned once, the
        batch extracted and cached, and the pin released; the page
        hit/miss stat for that single pin is the only frame traffic.
        """
        from repro.storage.batch import extract_page_batch

        summaries = self.summaries
        if summaries is None:
            return None
        version = summaries.get_or_create(heap_page).page_version
        physical = self._physical(heap_page)
        cached = self._pool.batch_lookup(physical, version)
        if cached is not None:
            return cached, True
        frame = self._pool.pin(physical)
        try:
            batch = extract_page_batch(heap_page, frame, schema, version)
        finally:
            self._pool.unpin(physical, dirty=False)
        self._pool.batch_store(physical, batch)
        return batch, False

    def scan_rids(self) -> "Iterator[Rid]":
        """Yield live addresses in increasing order (no record bodies)."""
        for rid, _ in self.scan():
            yield rid

    def last_rid(self) -> Optional[Rid]:
        """The highest live address, or ``None`` for an empty heap."""
        for heap_page in range(len(self._pages) - 1, -1, -1):
            page = self._pin(heap_page)
            try:
                best: Optional[int] = None
                for slot_no, _ in page.records():
                    best = slot_no
            finally:
                self._unpin(heap_page, dirty=False)
            if best is not None:
                return Rid(heap_page, best)
        return None

    def for_each_page(self, visit: Callable[[int, SlottedPage], bool]) -> None:
        """Pin each page in order and call ``visit(heap_page, page)``.

        ``visit`` returns True when it dirtied the page.  Used by bulk
        maintenance passes that want page-at-a-time access.
        """
        for heap_page in range(len(self._pages)):
            page = self._pin(heap_page)
            dirty = False
            try:
                dirty = visit(heap_page, page)
            finally:
                self._unpin(heap_page, dirty=dirty)
