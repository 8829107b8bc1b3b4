"""The differential snapshot refresh algorithm (combined fix-up + scan).

This is the paper's final form: one address-order scan of the base table
that simultaneously

1. repairs the lazy annotations (Figure 7's ``BaseFixup``), and
2. decides what to transmit (Figure 3's ``BaseRefresh``):

   - a *qualified* entry is transmitted when its timestamp is newer than
     the snapshot's ``SnapTime`` **or** deletions/changes were detected
     among the unqualified entries since the previous qualified entry
     (the ``Deletion`` flag);
   - an *unqualified* entry with a fresh timestamp sets the ``Deletion``
     flag, because it "may have qualified before" its modification;
   - the final ``EndOfScan`` message covers deletions at the end of the
     table, and the new ``SnapTime`` is sent last.

Over an eagerly annotated table the same scan runs with fix-up disabled,
which is exactly Figure 3 (:func:`base_refresh`).

The scan itself goes beyond the paper in two cost dimensions (without
changing a single transmitted byte):

*Partial decode.*  Each scanned entry is probed with
:func:`~repro.relation.row.decode_fields` for just its annotations and
the restriction's columns; the full row is decoded only when the entry is
actually transmitted.

*Page skipping* (``use_page_summaries``).  With
:class:`~repro.storage.summary.PageSummary` maintenance attached to the
heap, a page whose summary proves it unchanged since ``snap_time`` — no
NULL annotations, ``max_ts <= snap_time``, no structural change — can be
skipped wholesale.  Correctness requires more than cleanliness, because
the receiver (Figure 4) deletes everything in ``(prev_qual, addr)`` when
an entry arrives: the scan must know the skipped page's qualified
addresses to fast-forward ``LastQual``, and in fix-up mode it must know
that no ``PrevAddr`` anomaly (a deletion detected *at* this page) hides
there.  Both come from a per-snapshot cache of
:class:`~repro.storage.summary.PageQualInfo`, valid while the page's
version is unchanged; on any doubt the scan falls back to scanning that
one page.  A pending ``Deletion`` flag at a page boundary always forces
a scan of the next page.

Two optimizations the paper invites the reader to discover are available
as flags (off by default so the baseline matches the paper; the A1
ablation benchmark measures them):

``optimize_deletes``
    When a qualified entry must be transmitted *only* because of the
    ``Deletion`` flag (its own timestamp is old, so the snapshot already
    holds its current value), send a small
    :class:`~repro.core.messages.DeleteRangeMessage` instead of
    retransmitting the entry — same message count, far fewer bytes.

``suppress_pure_inserts``
    During the fix-up, an unqualified entry whose stamp comes from being
    *newly inserted* (NULL ``PrevAddr``) cannot invalidate any snapshot
    entry by itself: any deletion it might mask (e.g. address reuse) is
    independently detected as a ``PrevAddr`` anomaly at the next
    non-inserted entry.  Skipping the ``Deletion`` flag for pure inserts
    removes those superfluous retransmissions in insert-heavy workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro import sanitize
from repro.core.messages import (
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    RefreshMessage,
    SnapTimeMessage,
    UpdateDeltaMessage,
    UpsertMessage,
)
from repro.errors import ChannelError, RefreshMethodError
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import (
    Row,
    decode_fields,
    decode_row,
    encode_row,
    encoded_fields_size,
    encoded_size,
)
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo
from repro.table import PREVADDR, TIMESTAMP, Table
from repro.txn.clock import WatermarkBracket

if TYPE_CHECKING:
    # Runtime import would be circular: core.shard builds on this
    # module's scan machinery.
    from repro.core.shard import ShardExecutor

Send = Callable[[RefreshMessage], None]


class ValueCache:
    """Per-snapshot mirror of the values previously transmitted.

    Keyed page → ``{rid: projected values}``, this is what lets the
    refresher send :class:`~repro.core.messages.UpdateDeltaMessage`\\ s
    (only the changed columns) instead of whole rows: a cache hit means
    the receiver still holds exactly these values for the address, so a
    column diff against them merges correctly at the other end.

    The cache is **staged per refresh and committed only once the
    receiver's epoch commit is confirmed** — a torn stream must leave
    the mirror describing what the receiver actually has, or a later
    delta would merge against values the receiver never applied.  The
    :class:`~repro.core.manager.SnapshotManager` drives
    :meth:`commit`/:meth:`abort` from the epoch outcome; direct
    refresher use with an internal cache commits optimistically after
    the synchronous scan.
    """

    __slots__ = ("pages", "staged")

    def __init__(self) -> None:
        #: Committed mirror: page_no -> {rid: projected values tuple}.
        self.pages: "dict[int, dict[Rid, tuple]]" = {}
        self.staged: "Optional[dict[int, dict[Rid, tuple]]]" = None

    def lookup(self, rid: Rid) -> "Optional[tuple]":
        page = self.pages.get(rid.page_no)
        return page.get(rid) if page is not None else None

    def page(self, page_no: int) -> "Optional[dict[Rid, tuple]]":
        return self.pages.get(page_no)

    def stage(self, pages: "dict[int, dict[Rid, tuple]]") -> None:
        self.staged = pages

    def commit(self) -> bool:
        """Adopt the staged mirror (the refresh's epoch committed)."""
        if self.staged is None:
            return False
        self.pages = self.staged
        self.staged = None
        return True

    def abort(self) -> None:
        """Drop the staged mirror (the refresh's epoch was rolled back)."""
        self.staged = None

    def __len__(self) -> int:
        return sum(len(page) for page in self.pages.values())


class RefreshResult:
    """Counters from one refresh execution.

    For a solo refresh every field describes that one scan.  For a
    refresh served by a shared group pass (``group_cursors > 1``) the
    per-snapshot fields — ``qualified``, ``entries_sent``,
    ``messages_sent``, ``bytes_sent``, ``scanned``,
    ``entries_evaluated``, ``pages_scanned``, ``pages_skipped`` /
    ``pages_fast_forwarded`` — describe this snapshot's share, while the
    pass-level scan costs (``rows_decoded``, ``fixup_writes``, buffer
    traffic) live on the group's pass result: they were paid once for
    the whole group, so attributing them to each cursor would overcount.
    """

    __slots__ = (
        "new_snap_time",
        "scanned",
        "qualified",
        "entries_sent",
        "messages_sent",
        "bytes_sent",
        "fixup_writes",
        "deletions_detected",
        "pages_scanned",
        "pages_skipped",
        "rows_decoded",
        "buffer_hits",
        "buffer_misses",
        "attempts",
        "retry_wait",
        "group_cursors",
        "entries_evaluated",
        "pages_fast_forwarded",
        "pages_batch_decoded",
        "batches_reused",
        "rows_materialized",
        "chunks_scanned",
        "interleaved_writes",
        "pages_repaired",
        "shards",
        "shard_stats",
        "merge_wall",
        "shard_skew",
    )

    def __init__(self) -> None:
        self.new_snap_time = 0
        self.scanned = 0
        self.qualified = 0
        self.entries_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.fixup_writes = 0
        self.deletions_detected = 0
        self.pages_scanned = 0
        self.pages_skipped = 0
        self.rows_decoded = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        #: Set by the manager's retry driver: refresh attempts this
        #: result took (1 = no retries) and total backoff waited.
        self.attempts = 1
        self.retry_wait = 0.0
        #: Cursors served by the pass that produced this result (1 for a
        #: solo refresh; N for every result of an N-snapshot group pass).
        self.group_cursors = 1
        #: Restriction evaluations performed for this snapshot.  A group
        #: pass decodes each entry once and evaluates it per cursor, so
        #: the pass-level ``entries_evaluated / rows_decoded`` ratio is
        #: the decode-once saving.
        self.entries_evaluated = 0
        #: Pages this snapshot's cursor fast-forwarded from its
        #: :class:`~repro.storage.summary.PageQualInfo` cache instead of
        #: evaluating — whether or not the shared scan still read the
        #: page for other cursors.  Equals ``pages_skipped`` for a solo
        #: refresh.
        self.pages_fast_forwarded = 0
        #: Pages served through the columnar batch path (a subset of
        #: ``pages_scanned``; the remainder took the per-row path).
        self.pages_batch_decoded = 0
        #: Of the batch-served pages, how many reused a cached
        #: :class:`~repro.storage.batch.PageBatch` (same page version)
        #: instead of re-extracting under a pin.
        self.batches_reused = 0
        #: Full-row decodes charged to batch-served pages — the batch
        #: path's analogue of ``rows_decoded``, which it leaves at the
        #: per-row path's count so the decode saving stays visible.
        self.rows_materialized = 0
        #: Watermark-bracketed chunks a chunked scan ran (0 = monolithic).
        self.chunks_scanned = 0
        #: Committed writes observed while the scan had the table lock
        #: released at a chunk boundary.
        self.interleaved_writes = 0
        #: Already-scanned pages re-read and repaired at the end of a
        #: chunked scan because a writer touched them after their chunk's
        #: high watermark.
        self.pages_repaired = 0
        #: RID-range shards the scan ran as (1 = monolithic).
        self.shards = 1
        #: Per-shard :class:`~repro.core.shard.ShardStats` records, in
        #: shard (address) order; empty for a monolithic scan.
        self.shard_stats: "tuple[object, ...]" = ()
        #: Wall-clock the deterministic merge spent replaying per-shard
        #: streams (0.0 unless a timer was injected).
        self.merge_wall = 0.0
        #: Work imbalance across shards: max over mean of per-shard
        #: entries scanned (1.0 = perfectly balanced, 0.0 = no shards).
        self.shard_skew = 0.0

    @property
    def buffer_hit_rate(self) -> float:
        """Buffer-pool hit rate over this refresh's page accesses."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"RefreshResult(time={self.new_snap_time}, scanned={self.scanned}, "
            f"qualified={self.qualified}, entries={self.entries_sent}, "
            f"bytes={self.bytes_sent}, fixup_writes={self.fixup_writes}, "
            f"pages={self.pages_scanned}+{self.pages_skipped}skip, "
            f"decoded={self.rows_decoded}, "
            f"hit_rate={self.buffer_hit_rate:.2f})"
        )


class _LazyEntry:
    """One scanned heap entry, fully decoded at most once.

    A group pass may transmit the same entry for several cursors; the
    full-row decode is shared so fan-out never re-decodes.
    """

    __slots__ = ("_schema", "body", "_row")

    def __init__(self, schema: Schema, body: bytes) -> None:
        self._schema = schema
        self.body = body
        self._row: "Optional[Row]" = None

    def row(self) -> Row:
        if self._row is None:
            self._row = decode_row(self._schema, self.body)
        return self._row


class RefreshCursor:
    """Per-snapshot refresh state riding an address-order scan.

    The cursor owns everything Figure 3 keeps per snapshot — the
    ``SnapTime`` it refreshes from, ``LastQual``, the pending
    ``Deletion`` flag, the compiled restriction/projection, the output
    channel — plus the per-snapshot :class:`PageQualInfo` cache that
    lets it fast-forward over pages proven unchanged since *its*
    ``SnapTime``.  The scan itself (fix-up, partial decode) is shared:
    :func:`run_refresh_scan` drives any number of cursors over one pass
    and each cursor's output stream is byte-identical to a solo
    :class:`DifferentialRefresher` run from the same ``SnapTime``.
    """

    __slots__ = (
        "snap_time",
        "restriction",
        "projection",
        "send",
        "cache",
        "value_cache",
        "optimize_deletes",
        "suppress_pure_inserts",
        "name",
        "value_schema",
        "last_qual",
        "deletion",
        "result",
        "failed",
        "error",
        "_page_first_qual",
        "_page_last_qual",
        "_page_qual_count",
        "_staged_values",
    )

    def __init__(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        optimize_deletes: bool = False,
        suppress_pure_inserts: bool = False,
        name: Optional[str] = None,
        value_cache: "Optional[ValueCache]" = None,
    ) -> None:
        self.snap_time = snap_time
        self.restriction = restriction
        self.projection = projection
        self.send = send
        #: Per-snapshot page-qualification cache; ``None`` disables page
        #: skipping for this cursor even when the scan has summaries.
        self.cache = cache
        #: Per-snapshot mirror of previously transmitted values; when
        #: set, retransmissions of changed entries become per-column
        #: :class:`UpdateDeltaMessage`\ s on cache hits.
        self.value_cache = value_cache
        self.optimize_deletes = optimize_deletes
        self.suppress_pure_inserts = suppress_pure_inserts
        self.name = name
        self.value_schema = projection.schema
        self.last_qual = Rid.BEGIN
        #: Figure 3's pending ``Deletion`` flag.  Always a plain bool
        #: here; shard-worker cursors (``core/shard.py``) substitute
        #: symbolic placeholders for boundary state they cannot know
        #: yet, which is why the scan consults :attr:`skip_blocked`
        #: rather than this attribute directly.
        self.deletion: object = False
        self.result = RefreshResult()
        #: Set when this cursor's channel failed mid-pass; the scan
        #: continues for the other cursors.
        self.failed = False
        self.error: Optional[BaseException] = None
        self._page_first_qual: "Optional[Rid]" = None
        self._page_last_qual: "Optional[Rid]" = None
        self._page_qual_count = 0
        #: Next refresh's value mirror, built as the scan walks.
        self._staged_values: "Optional[dict[int, dict[Rid, tuple]]]" = (
            {} if value_cache is not None else None
        )

    def transmit(self, message: RefreshMessage) -> None:
        self.result.messages_sent += 1
        self.result.bytes_sent += message.wire_size()
        if message.counts_as_entry:
            self.result.entries_sent += 1
        self.send(message)

    def fail(self, error: BaseException) -> None:
        self.failed = True
        self.error = error

    @property
    def skip_blocked(self) -> bool:
        """Whether a pending ``Deletion`` flag forbids page skipping.

        A page may only be fast-forwarded when the flag is *known*
        clear; shard-worker cursors override this so an unknown carried
        flag blocks the skip (the page is scanned and the decision
        deferred) instead of silently dropping a pending deletion.
        """
        return bool(self.deletion)

    # -- page lifecycle ------------------------------------------------------

    def begin_page(self) -> None:
        self.result.pages_scanned += 1
        self._page_first_qual = None
        self._page_last_qual = None
        self._page_qual_count = 0

    def record_page(
        self,
        page_no: int,
        page_version: int,
        first_prev: Optional[Rid],
        last_live: Optional[Rid],
    ) -> None:
        """Cache this page's qualification layout for future skips."""
        self.cache[page_no] = PageQualInfo(
            page_version,
            first_prev,
            self._page_first_qual,
            self._page_last_qual,
            self._page_qual_count,
            last_live,
        )

    def fast_forward(self, page_no: int, info: PageQualInfo) -> None:
        """Advance across a page from its cached qualification info."""
        self.result.pages_fast_forwarded += 1
        self.result.pages_skipped += 1
        if info.qual_count:
            self.result.qualified += info.qual_count
            self.last_qual = info.last_qual
        if self._staged_values is not None:
            # The page is unchanged since this snapshot's SnapTime, so
            # the receiver still holds exactly the mirrored values.
            page_values = self.value_cache.page(page_no)
            if page_values:
                self._staged_values[page_no] = page_values

    # -- the Figure-3 transmit decision --------------------------------------

    def observe(
        self,
        rid: Rid,
        entry: _LazyEntry,
        sparse: "list[object]",
        orig_ts: object,
        pure_insert: bool,
        anomaly: "Optional[bool]",
    ) -> None:
        """Apply one scanned entry to this cursor's refresh state.

        ``orig_ts`` is the entry's timestamp *before* any fix-up stamp
        this pass wrote, so the decision matches a solo run exactly:
        the faithful transmit condition is ``ts > SnapTime or Deletion``,
        with fix-up folded in as "the value changed" (insert/update,
        per-cursor) or "a deletion was detected just before this entry"
        (anomaly stamp, a property of the scan shared by every cursor).

        ``anomaly`` is ``None`` only when the pass could not resolve the
        verdict locally (a shard worker at its boundary entry); plain
        cursors never receive it — only the shard-worker override in
        ``core/shard.py`` handles the deferred case.
        """
        result = self.result
        result.scanned += 1
        result.entries_evaluated += 1
        if pure_insert or orig_ts is NULL:
            value_changed = True
        else:
            value_changed = orig_ts > self.snap_time
        if self.restriction(sparse):
            result.qualified += 1
            self._page_qual_count += 1
            if self._page_first_qual is None:
                self._page_first_qual = rid
            self._page_last_qual = rid
            if value_changed or anomaly or self.deletion:
                if self.optimize_deletes and not value_changed:
                    # Entry itself unchanged; only the preceding region
                    # needs clearing.
                    self.transmit(DeleteRangeMessage(self.last_qual, rid))
                    self._carry_value(rid)
                else:
                    projected = self.projection(entry.row())
                    self.transmit(self._value_message(rid, projected))
                    if self._staged_values is not None:
                        self._staged_values.setdefault(rid.page_no, {})[
                            rid
                        ] = projected.values
            else:
                self._carry_value(rid)
            self.last_qual = rid
            self.deletion = False
        else:
            if value_changed or anomaly:
                if not (self.suppress_pure_inserts and pure_insert):
                    # "Updated entry ==> may have qualified before".
                    self.deletion = True

    def serve_batch(self, batch) -> None:
        """Apply one *eligible* page's columnar batch to this cursor.

        Equivalent to calling :meth:`observe` for every live entry in
        slot order, specialized for the facts the scan's eligibility
        test proved about the page: no entry is a pure insert or
        carries a NULL annotation, and the scan performs no fix-up
        write on it (so ``anomaly`` is False throughout).  The Figure-3
        inputs that remain — each entry's timestamp and qualification —
        come from the batch's columnar array and memoized
        qualification index instead of per-row probes, and full rows
        are materialized only for entries actually transmitted.
        """
        result = self.result
        count = batch.count
        result.scanned += count
        result.entries_evaluated += count
        qual = batch.qualifying(self.restriction)
        nqual = len(qual)
        snap_time = self.snap_time
        ts = batch.ts
        if not nqual:
            # Unqualified-but-changed entries still arm the Deletion
            # flag ("may have qualified before") for the next page.
            if not self.deletion and batch.max_live_ts > snap_time:
                self.deletion = True
            return
        result.qualified += nqual
        page_no = batch.page_no
        slots = batch.slots
        self._page_qual_count += nqual
        if self._page_first_qual is None:
            self._page_first_qual = Rid(page_no, slots[qual[0]])
        last_qual_rid = Rid(page_no, slots[qual[nqual - 1]])
        self._page_last_qual = last_qual_rid
        if batch.max_live_ts <= snap_time and not self.deletion:
            # Nothing on the page is newer than SnapTime and no
            # deletion is pending: every qualified entry is carried
            # unchanged and the flag cannot arm mid-page.
            if self._staged_values is not None:
                for qi in qual:
                    self._carry_value(Rid(page_no, slots[qi]))
            self.last_qual = last_qual_rid
            return
        qi = 0
        next_qual = qual[0]
        for index in range(count):
            changed = ts[index] > snap_time
            if index == next_qual:
                rid = Rid(page_no, slots[index])
                if changed or self.deletion:
                    if self.optimize_deletes and not changed:
                        self.transmit(DeleteRangeMessage(self.last_qual, rid))
                        self._carry_value(rid)
                    else:
                        projected = self.projection(batch.row(index))
                        self.transmit(self._value_message(rid, projected))
                        if self._staged_values is not None:
                            self._staged_values.setdefault(page_no, {})[
                                rid
                            ] = projected.values
                else:
                    self._carry_value(rid)
                self.last_qual = rid
                self.deletion = False
                qi += 1
                next_qual = qual[qi] if qi < nqual else -1
            elif changed:
                self.deletion = True

    def _value_message(self, rid: Rid, projected: Row) -> RefreshMessage:
        """Full entry, or a per-column delta when the mirror allows it.

        A delta is only sent when it is *strictly* smaller than the full
        entry payload — a row whose every column changed would otherwise
        pay the column bitmap for nothing.
        """
        values = projected.values
        if self.value_cache is not None:
            old = self.value_cache.lookup(rid)
            if old is not None and len(old) == len(values):
                positions = [
                    index
                    for index, value in enumerate(values)
                    if not (value is old[index] or value == old[index])
                ]
                mask = 0
                for index in positions:
                    mask |= 1 << index
                delta_bytes = encoded_fields_size(
                    self.value_schema,
                    positions,
                    [values[index] for index in positions],
                )
                mask_bytes = max(1, (mask.bit_length() + 7) // 8)
                full_bytes = encoded_size(self.value_schema, projected)
                if mask_bytes + delta_bytes < full_bytes:
                    return UpdateDeltaMessage(
                        rid,
                        self.last_qual,
                        mask,
                        tuple(values[index] for index in positions),
                        delta_bytes,
                    )
        value_bytes = len(encode_row(self.value_schema, projected))
        return EntryMessage(rid, self.last_qual, values, value_bytes)

    def _carry_value(self, rid: Rid) -> None:
        """A qualified entry the receiver keeps unchanged: mirror it on."""
        if self._staged_values is None:
            return
        old = self.value_cache.lookup(rid)
        if old is not None:
            self._staged_values.setdefault(rid.page_no, {})[rid] = old

    def finish(self, new_time: int) -> None:
        """Deletions at the end of the base table, then the new SnapTime."""
        self.transmit(EndOfScanMessage(self.last_qual))
        self.transmit(SnapTimeMessage(new_time))
        self.result.new_snap_time = new_time
        if self.value_cache is not None:
            self.value_cache.stage(self._staged_values)

    def __repr__(self) -> str:
        return (
            f"RefreshCursor({self.name or '?'}, snap_time={self.snap_time}, "
            f"restrict={self.restriction.text}, "
            f"{'failed' if self.failed else 'live'})"
        )


class _ScanPass:
    """The shared machinery of one combined fix-up + refresh pass.

    Owns the per-pass scan state — the fix-up's ``ExpectPrev`` /
    ``last_addr``, the probe layout, the pass-level counters, the
    fix-up timestamp — so the page loop can be driven either in one
    sweep (:func:`run_refresh_scan`) or in watermark-bracketed chunks
    with the table lock released in between
    (:func:`run_chunked_refresh_scan`).  ``scan_pages`` serves a
    half-open page range and leaves the state positioned for the next
    range; behavior over ``[0, page_count)`` in one call is exactly the
    historical monolithic scan.
    """

    __slots__ = (
        "table",
        "schema",
        "heap",
        "summaries",
        "fixup",
        "batch_mode",
        "isolate_failures",
        "probe_positions",
        "probe_prev",
        "probe_ts",
        "width",
        "stats",
        "fixup_time",
        "expect_prev",
        "last_addr",
        "completed",
        "deferred_first_insert",
        "deferred_d",
        "deferred_pages",
        "_hits_before",
        "_misses_before",
    )

    def __init__(
        self,
        table: Table,
        cursors: "Sequence[RefreshCursor]",
        fixup: Optional[bool],
        use_page_summaries: bool,
        isolate_failures: bool,
        batch_mode: bool,
        fixup_time: Optional[int] = None,
        boundary_known: bool = True,
    ) -> None:
        if fixup is None:
            fixup = table.annotation_mode == "lazy"
        self.table = table
        self.fixup = fixup
        self.isolate_failures = isolate_failures
        schema = table.schema
        self.schema = schema
        # The batch extractor reads annotations as a fixed record tail; a
        # schema without that layout always takes the per-row path.
        self.batch_mode = batch_mode and table._ann_trailing
        prev_pos = schema.position(PREVADDR)
        ts_pos = schema.position(TIMESTAMP)

        self.heap = table.heap
        self.summaries = self.heap.summaries if use_page_summaries else None

        # One decode_fields probe per entry covers the annotations plus
        # the union of every cursor's restriction columns; the full row
        # is decoded only when some cursor actually transmits.
        restr_positions: "set[int]" = set()
        for cursor in cursors:
            restr_positions.update(
                schema.position(name)
                for name in cursor.restriction.expr.columns()
            )
        self.probe_positions = tuple(
            sorted(restr_positions | {prev_pos, ts_pos})
        )
        self.probe_prev = self.probe_positions.index(prev_pos)
        self.probe_ts = self.probe_positions.index(ts_pos)
        self.width = len(schema)

        self.stats = RefreshResult()
        self.stats.group_cursors = len(cursors)
        pool_stats = self.heap.pool.stats
        self._hits_before = pool_stats.hits
        self._misses_before = pool_stats.misses
        # A sharded pass ticks the clock once and injects the shared
        # value into every worker, so all shards stamp one fix-up time.
        if fixup_time is None:
            fixup_time = table.db.clock.tick()
        self.fixup_time = fixup_time

        #: With ``boundary_known`` (the monolithic pass, or the first
        #: shard) the fix-up state starts at the table's beginning.  A
        #: shard worker starting mid-table sets both to ``None``: the
        #: values are carried in from the preceding shard and resolved
        #: only at merge time, so the worker *defers* the (at most two)
        #: fix-up writes that depend on them — the first entry's insert
        #: chain link and the first non-insert entry's anomaly verdict.
        self.expect_prev: "Optional[Rid]" = (
            Rid.BEGIN if boundary_known else None
        )
        self.last_addr: "Optional[Rid]" = (
            Rid.BEGIN if boundary_known else None
        )
        self.completed = True  # whether the pass reached the heap's end
        #: Deferred fix-up: the shard's first entry when it is a pure
        #: insert (its PrevAddr must point at the carried last address).
        self.deferred_first_insert: "Optional[Rid]" = None
        #: Deferred fix-up: the shard's first non-insert entry as
        #: ``(rid, prev, ts_is_null, last_addr_before)`` — its anomaly
        #: verdict needs the carried ``ExpectPrev``.
        self.deferred_d: "Optional[tuple[Rid, Rid, bool, Optional[Rid]]]" = (
            None
        )
        #: Pages holding a deferred write: their cached
        #: :class:`PageQualInfo` would describe pre-merge bytes, so the
        #: worker drops those (at most two) cache entries instead.
        self.deferred_pages: "set[int]" = set()

    def scan_pages(
        self, cursors: "Sequence[RefreshCursor]", start: int, stop: int
    ) -> None:
        """Serve every cursor over heap pages ``[start, stop)``."""
        table = self.table
        schema = self.schema
        heap = self.heap
        summaries = self.summaries
        fixup = self.fixup
        isolate_failures = self.isolate_failures
        probe_positions = self.probe_positions
        probe_prev = self.probe_prev
        probe_ts = self.probe_ts
        width = self.width
        stats = self.stats
        fixup_time = self.fixup_time
        expect_prev = self.expect_prev
        last_addr = self.last_addr

        for page_no in range(start, stop):
            live = [cursor for cursor in cursors if not cursor.failed]
            if not live:
                self.completed = False
                break  # every output failed; nothing left to serve

            scanning: "list[RefreshCursor]" = []
            skipping: "list[tuple[RefreshCursor, PageQualInfo]]" = []
            summary = summaries.get(page_no) if summaries is not None else None
            for cursor in live:
                if (
                    summary is not None
                    and not cursor.skip_blocked
                    and summary.skippable(cursor.snap_time)
                ):
                    info = (
                        cursor.cache.get(page_no)
                        if cursor.cache is not None
                        else None
                    )
                    if (
                        info is not None
                        and info.page_version == summary.page_version
                        and (
                            not fixup
                            # At the boundary the scan state must look
                            # exactly like it did when the cache was
                            # filled: a trailing pure insert
                            # (last_addr != expect_prev) would need this
                            # page's first PrevAddr repointed, and a
                            # first_prev mismatch is precisely a deletion
                            # anomaly hiding on this page.  A shard
                            # worker whose boundary state is still
                            # unresolved (None) cannot prove either, so
                            # it scans the page instead — byte-identical
                            # for a skippable page, which by definition
                            # holds nothing to transmit.
                            or (
                                last_addr is not None
                                and last_addr == expect_prev
                                and (
                                    info.first_prev is None
                                    or info.first_prev == expect_prev
                                )
                            )
                        )
                    ):
                        skipping.append((cursor, info))
                        continue
                scanning.append(cursor)

            for cursor, info in skipping:
                cursor.fast_forward(page_no, info)
            if not scanning:
                # Every live cursor proved the page unchanged for itself:
                # never read it.  Any valid skip implies the page needs
                # no fix-up, so the shared fix-up state advances exactly
                # as a scan would have left it.
                stats.pages_skipped += 1
                info = skipping[0][1]
                if info.last_live is not None:
                    last_addr = info.last_live
                    expect_prev = info.last_live
                continue

            stats.pages_scanned += 1
            for cursor in scanning:
                cursor.begin_page()

            if self.batch_mode and heap.summaries is not None:
                # A summary reporting NULL slots dooms eligibility before
                # extraction; don't build (and cache) a batch the fix-up
                # pass is about to invalidate anyway.
                if heap.summaries.get_or_create(page_no).null_slots:
                    looked = None
                else:
                    looked = heap.page_batch(page_no, schema)
                if looked is not None:
                    batch, reused = looked
                    if not batch.has_nulls and (
                        not fixup
                        or (
                            batch.chain_ok
                            and last_addr is not None
                            and last_addr == expect_prev
                            and (
                                batch.count == 0
                                or batch.first_prev == expect_prev
                            )
                        )
                    ):
                        # The batch proves the scan writes nothing here
                        # and detects no anomaly: serve every cursor
                        # columnar.
                        stats.pages_batch_decoded += 1
                        if reused:
                            stats.batches_reused += 1
                        stats.scanned += batch.count
                        decodes_before = batch.materializations
                        for cursor in scanning:
                            if cursor.failed:
                                continue
                            if isolate_failures:
                                try:
                                    cursor.serve_batch(batch)
                                except ChannelError as error:
                                    cursor.fail(error)
                            else:
                                cursor.serve_batch(batch)
                        stats.rows_materialized += (
                            batch.materializations - decodes_before
                        )
                        last = batch.last_rid()
                        if last is not None:
                            last_addr = last
                            expect_prev = last
                        if summaries is not None:
                            for cursor in scanning:
                                if cursor.failed or cursor.cache is None:
                                    continue
                                cursor.record_page(
                                    page_no,
                                    batch.version,
                                    batch.first_prev,
                                    last,
                                )
                        continue

            page_first_prev: "Optional[Rid]" = None
            page_last_live: "Optional[Rid]" = None
            first_on_page = True

            for slot_no, body in heap.page_entries(page_no):
                rid = Rid(page_no, slot_no)
                stats.scanned += 1
                stats.rows_decoded += 1
                probed = decode_fields(schema, body, probe_positions)
                prev = probed[probe_prev]
                ts = probed[probe_ts]
                orig_ts = ts
                final_prev = prev
                pure_insert = False
                anomaly: "Optional[bool]" = False
                if fixup:
                    if prev is NULL:
                        # Inserted since the last fix-up.
                        pure_insert = True
                        if last_addr is None:
                            # Shard boundary: the chain link points at
                            # the preceding shard's last entry — write
                            # deferred to the merge.
                            self.deferred_first_insert = rid
                            self.deferred_pages.add(page_no)
                        else:
                            final_prev = last_addr
                            table.set_annotations(
                                rid, prev=last_addr, ts=fixup_time
                            )
                            stats.fixup_writes += 1
                    elif expect_prev is None:
                        # Shard boundary: this entry's anomaly verdict
                        # compares against the carried ExpectPrev.  The
                        # merge performs the comparison and any write;
                        # cursors get the deferred-anomaly sentinel.
                        self.deferred_d = (rid, prev, ts is NULL, last_addr)
                        self.deferred_pages.add(page_no)
                        anomaly = None
                        expect_prev = rid
                    else:
                        new_prev: "Optional[Rid]" = None
                        stamp = False
                        if ts is NULL:
                            # Updated since the last fix-up.
                            stamp = True
                        if prev != expect_prev:
                            # Deletion(s) detected before this entry.
                            new_prev = last_addr
                            stamp = True
                            anomaly = True
                            stats.deletions_detected += 1
                        elif prev != last_addr:
                            # Insertions (only) before this entry.
                            new_prev = last_addr
                        if new_prev is not None or stamp:
                            fields: "dict[str, object]" = {}
                            if new_prev is not None:
                                fields["prev"] = new_prev
                                final_prev = new_prev
                            if stamp:
                                fields["ts"] = fixup_time
                            table.set_annotations(rid, **fields)
                            stats.fixup_writes += 1
                        expect_prev = rid
                else:
                    if ts is NULL:
                        raise RefreshMethodError(
                            f"entry {rid} has a NULL timestamp but fix-up "
                            f"is disabled; run base_fixup first or use a "
                            f"lazy table"
                        )
                last_addr = rid
                if first_on_page:
                    page_first_prev = final_prev
                    first_on_page = False
                page_last_live = rid

                # Decode once, decide per cursor (Figure 3 per snapshot).
                sparse: "list[object]" = [None] * width
                for position, value in zip(probe_positions, probed):
                    sparse[position] = value
                entry = _LazyEntry(schema, body)
                for cursor in scanning:
                    if cursor.failed:
                        continue
                    if isolate_failures:
                        try:
                            cursor.observe(
                                rid,
                                entry,
                                sparse,
                                orig_ts,
                                pure_insert,
                                anomaly,
                            )
                        except ChannelError as error:
                            cursor.fail(error)
                    else:
                        cursor.observe(
                            rid, entry, sparse, orig_ts, pure_insert, anomaly
                        )

            if summaries is not None and page_no not in self.deferred_pages:
                # Version read after the fix-up writes above, so the
                # cache entry describes the page bytes as this scan left
                # them.  Pages holding a deferred boundary write are not
                # cached: the merge's write would immediately stale the
                # entry, so the next refresh re-scans those (at most
                # two) pages instead.
                version: Optional[int] = None
                for cursor in scanning:
                    if cursor.failed or cursor.cache is None:
                        continue
                    if version is None:
                        version = summaries.get_or_create(
                            page_no
                        ).page_version
                    cursor.record_page(
                        page_no, version, page_first_prev, page_last_live
                    )

        self.expect_prev = expect_prev
        self.last_addr = last_addr

    def finish_cursors(self, cursors: "Sequence[RefreshCursor]") -> None:
        """The quiescent finish: EndOfScan + SnapTime per live cursor."""
        for cursor in cursors:
            if cursor.failed:
                continue
            if self.isolate_failures:
                try:
                    cursor.finish(self.fixup_time)
                except ChannelError as error:
                    cursor.fail(error)
            else:
                cursor.finish(self.fixup_time)

    def seal(self, cursors: "Sequence[RefreshCursor]") -> RefreshResult:
        """Finalize pass-level counters and run the sanitizer hook."""
        stats = self.stats
        stats.new_snap_time = self.fixup_time
        pool_stats = self.heap.pool.stats
        stats.buffer_hits = pool_stats.hits - self._hits_before
        stats.buffer_misses = pool_stats.misses - self._misses_before
        if self.completed and sanitize.enabled():
            if stats.interleaved_writes:
                # Writes that committed inside a chunk boundary
                # legitimately leave NULL annotations (a torn chain)
                # until the next fix-up pass; summary dominance
                # and page space accounting must still hold.
                sanitize.check_page_summaries(self.table)
                sanitize.check_page_space(self.table)
            else:
                sanitize.check_after_refresh_scan(self.table, self.fixup)
        for cursor in cursors:
            result = cursor.result
            stats.qualified += result.qualified
            stats.entries_sent += result.entries_sent
            stats.messages_sent += result.messages_sent
            stats.bytes_sent += result.bytes_sent
            stats.entries_evaluated += result.entries_evaluated
            stats.pages_fast_forwarded += result.pages_fast_forwarded
        return stats


def run_refresh_scan(
    table: Table,
    cursors: "Sequence[RefreshCursor]",
    fixup: Optional[bool] = None,
    use_page_summaries: bool = False,
    isolate_failures: bool = False,
    batch_mode: bool = False,
) -> RefreshResult:
    """One combined fix-up + refresh pass serving every cursor.

    The returned :class:`RefreshResult` holds the *pass-level* counters:
    pages and rows were read once no matter how many cursors rode along,
    fix-up was applied to the base table exactly once, and each entry
    was partial-decoded once over the union of all cursors' restriction
    columns.  Per-cursor traffic lands on each cursor's own ``result``.

    Page skipping is decided per cursor with exactly the solo scan's
    conditions — including the shared fix-up state at the page boundary
    — so a cursor fast-forwards precisely when its own solo run would
    have skipped.  Only when *every* live cursor can skip is the page
    not read at all; a page any cursor validly skips is provably clean
    (no NULL annotations, no boundary anomaly), so scanning it for the
    others performs no fix-up writes and cannot invalidate the skipper's
    cached state.

    With ``batch_mode`` a page that must be read is first offered as a
    columnar :class:`~repro.storage.batch.PageBatch` (cached on the
    buffer pool by page version).  A page is *eligible* when the batch
    proves the scan would neither write to it nor detect an anomaly at
    it: no NULL annotations anywhere, and under fix-up an intact
    intra-page chain whose first ``PrevAddr`` equals the scan's
    ``ExpectPrev`` with no trailing insert pending
    (``last_addr == expect_prev``).  Eligible pages are served to every
    scanning cursor from the batch's arrays — byte-identical streams,
    since every :meth:`RefreshCursor.observe` input is then determined
    by the timestamp column and the memoized qualification index —
    while ineligible pages (and tables without trailing annotations)
    fall back to the per-row path unchanged.

    With ``isolate_failures`` a :class:`~repro.errors.ChannelError` on
    one cursor's output marks that cursor failed and the pass continues
    for the rest; otherwise (the solo path) the error propagates.  The
    caller is responsible for holding the table-level lock.
    """
    scan = _ScanPass(
        table, cursors, fixup, use_page_summaries, isolate_failures, batch_mode
    )
    scan.scan_pages(cursors, 0, scan.heap.page_count)
    scan.finish_cursors(cursors)
    return scan.seal(cursors)


def _repair_page(
    scan: _ScanPass, cursor: RefreshCursor, page_no: int
) -> None:
    """Re-transmit one interleave-dirtied page for one cursor.

    The receiver's image of the page is wiped — the open-interval
    delete excludes both endpoints, so slot 0 gets its own delete —
    and every *currently* qualifying live row is upserted back, so the
    committed page equals the base restriction at commit time no matter
    what sequence of inserts/updates/deletes interleaved after the
    chunk's high watermark.  The cursor's staged value mirror is
    repointed to the repaired truth, since later per-column deltas
    merge against whatever this repair left at the receiver.
    """
    lo = Rid(page_no, 0)
    hi = Rid(page_no + 1, 0)
    cursor.transmit(DeleteRangeMessage(lo, hi))
    cursor.transmit(DeleteMessage(lo))
    page_values: "dict[Rid, tuple]" = {}
    for slot_no, body in scan.heap.page_entries(page_no):
        rid = Rid(page_no, slot_no)
        row = decode_row(scan.schema, body)
        if not cursor.restriction(row.values):
            continue
        projected = cursor.projection(row)
        value_bytes = len(encode_row(cursor.value_schema, projected))
        cursor.transmit(
            UpsertMessage(rid, projected.values, value_bytes)
        )
        page_values[rid] = projected.values
    if cursor._staged_values is not None:
        if page_values:
            cursor._staged_values[page_no] = page_values
        else:
            cursor._staged_values.pop(page_no, None)


def run_chunked_refresh_scan(
    table: Table,
    cursors: "Sequence[RefreshCursor]",
    fixup: Optional[bool] = None,
    use_page_summaries: bool = False,
    isolate_failures: bool = False,
    batch_mode: bool = False,
    chunk_pages: int = 4,
    on_chunk_boundary: "Optional[Callable[[int], None]]" = None,
    acquire: "Optional[Callable[[], None]]" = None,
    release: "Optional[Callable[[], None]]" = None,
) -> RefreshResult:
    """Writer-concurrent refresh: the scan in watermark-bracketed chunks.

    The DBLog "virtual cuts" construction over the paper's scan: the
    address-order pass runs ``chunk_pages`` heap pages at a time, each
    chunk bracketed by low/high readings of a monotone write watermark
    (a :class:`~repro.txn.clock.WatermarkBracket` over the heap
    write-observer's sequence number).  Between chunks the table lock is
    *released* — ``release()`` / ``on_chunk_boundary(next_chunk)`` /
    ``acquire()`` — so committed writers proceed while the refresh is in
    flight; the deterministic simulation drives the "racing writer"
    through the boundary callback, which is where a concurrent thread's
    commits would land.

    Every write is recorded against its page with the sequence number
    it happened at; after a chunk completes, its pages' *scanned*
    watermark is recorded (after the chunk, so the scan's own fix-up
    writes never count as interleave).  A page whose last write
    sequence exceeds its scanned watermark was modified **after** the
    scan read it — the interleave buffer.  Under the final lock hold
    those dirty pages are merged into the differential stream: per
    cursor, after ``EndOfScan``, each dirty page is wiped and its
    currently-qualifying rows re-upserted (:func:`_repair_page`), so
    the committed receiver state is identical to what a quiescent scan
    of the final base table would have produced.  With no interleaved
    writes the emitted stream is byte-for-byte the monolithic scan's.

    Returns with the table lock *held* (via ``acquire``): the caller
    sends ``RefreshCommit`` under that hold so no write can slip
    between the repair and the commit, then releases.  Writes observed
    while the lock was released are counted in
    ``RefreshResult.interleaved_writes``; repaired pages in
    ``pages_repaired``; chunks in ``chunks_scanned``.
    """
    if chunk_pages < 1:
        raise RefreshMethodError("chunk_pages must be at least 1")
    heap = table.heap

    # The write watermark: one monotone sequence number per physical
    # record write, with the latest sequence seen per heap page.
    seq = [0]
    last_write_seq: "dict[int, int]" = {}
    in_window = [False]
    interleaved = [0]

    def watch(kind: str, rid: Rid) -> None:
        seq[0] += 1
        last_write_seq[rid.page_no] = seq[0]
        if in_window[0]:
            interleaved[0] += 1

    unsubscribe = heap.observe_writes(watch)
    if acquire is not None:
        acquire()
    try:
        scan = _ScanPass(
            table,
            cursors,
            fixup,
            use_page_summaries,
            isolate_failures,
            batch_mode,
        )
        stats = scan.stats
        scanned_seq: "dict[int, int]" = {}
        next_page = 0
        chunk_index = 0
        while True:
            # Re-read under the lock: pages appended by interleaved
            # inserts extend the scan instead of escaping it.
            page_count = heap.page_count
            if next_page >= page_count:
                break
            stop = min(next_page + chunk_pages, page_count)
            bracket = WatermarkBracket(chunk_index, seq[0])
            scan.scan_pages(cursors, next_page, stop)
            bracket.close(seq[0])
            for page_no in range(next_page, stop):
                # Recorded after the chunk: the chunk's own fix-up
                # writes fall at or below the high watermark and are
                # covered, not interleaved.
                scanned_seq[page_no] = bracket.high
            next_page = stop
            chunk_index += 1
            stats.chunks_scanned += 1
            if not any(not cursor.failed for cursor in cursors):
                break
            if next_page >= heap.page_count:
                break  # final chunk: keep the lock, no writer window
            if release is not None:
                release()
            in_window[0] = True
            try:
                if on_chunk_boundary is not None:
                    on_chunk_boundary(chunk_index)
            finally:
                in_window[0] = False
                if acquire is not None:
                    acquire()
        stats.interleaved_writes = interleaved[0]

        # The interleave buffer: pages written after their chunk's high
        # watermark (deletes included — an empty dirty page still wipes
        # its stale receiver image).
        dirty = sorted(
            page_no
            for page_no, written in last_write_seq.items()
            if written > scanned_seq.get(page_no, 0)
        )
        stats.pages_repaired = len(dirty)

        for cursor in cursors:
            if cursor.failed:
                continue
            try:
                cursor.transmit(EndOfScanMessage(cursor.last_qual))
                for page_no in dirty:
                    _repair_page(scan, cursor, page_no)
                cursor.transmit(SnapTimeMessage(scan.fixup_time))
                cursor.result.new_snap_time = scan.fixup_time
                if cursor.value_cache is not None:
                    cursor.value_cache.stage(cursor._staged_values)
            except ChannelError as error:
                if not isolate_failures:
                    raise
                cursor.fail(error)
        return scan.seal(cursors)
    finally:
        unsubscribe()


class DifferentialRefresher:
    """Executes differential refreshes of one base table.

    Stateless between calls except for the page-qualification cache: all
    per-snapshot state (``SnapTime``) lives with the snapshot, all change
    state lives in the base table's annotations — which is what lets any
    number of snapshots share one set of annotations.

    ``use_page_summaries`` defaults off so a directly constructed
    refresher reproduces the paper's full-scan baseline; the
    :class:`~repro.core.manager.SnapshotManager` turns it on.
    """

    def __init__(
        self,
        table: Table,
        optimize_deletes: bool = False,
        suppress_pure_inserts: bool = False,
        use_page_summaries: bool = False,
        delta_updates: bool = False,
        batch_mode: bool = False,
        shards: int = 1,
        shard_executor: "Optional[ShardExecutor]" = None,
    ) -> None:
        if not table.has_annotations:
            raise RefreshMethodError(
                f"differential refresh requires annotations on {table.name!r}"
            )
        if shards < 1:
            raise RefreshMethodError("shards must be at least 1")
        self.table = table
        self.optimize_deletes = optimize_deletes
        self.suppress_pure_inserts = suppress_pure_inserts
        self.use_page_summaries = use_page_summaries
        #: Send per-column UpdateDeltaMessages on value-cache hits.
        self.delta_updates = delta_updates
        #: Serve eligible pages through the columnar batch path.  Off by
        #: default so a directly constructed refresher keeps the
        #: per-row baseline; the manager turns it on.
        self.batch_mode = batch_mode
        #: RID-range shards per scan (1 = the monolithic pass).  With
        #: ``shards > 1``, :meth:`refresh` runs the partitioned scan of
        #: :func:`repro.core.shard.run_sharded_refresh_scan` —
        #: byte-identical stream, parallel page loop.
        #: :meth:`refresh_chunked` intentionally stays single-threaded:
        #: its watermark brackets order chunks in time, which is exactly
        #: what the shard merge's address order would scramble.
        self.shards = shards
        #: Optional :class:`repro.core.shard.ShardExecutor` override
        #: (default: the process-wide shared worker pool).
        self.shard_executor = shard_executor
        # Fallback caches for callers that do not thread per-snapshot
        # caches through `refresh(cache=..., value_cache=...)`; valid
        # only for one restriction (i.e. one snapshot) at a time.
        self._page_cache: "dict[int, PageQualInfo]" = {}
        self._value_cache = ValueCache()
        self._cache_restriction: Optional[str] = None

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        fixup: Optional[bool] = None,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        value_cache: "Optional[ValueCache]" = None,
    ) -> RefreshResult:
        """One combined fix-up + refresh scan.

        ``fixup`` defaults by annotation mode: lazy tables repair as they
        scan; eager tables trust their annotations (pure Figure 3).
        ``cache`` is the per-snapshot page-qualification cache (the
        manager passes the snapshot's own); with summaries enabled and no
        cache given, a refresher-local one keyed by the restriction text
        is used.  ``value_cache`` (with ``delta_updates``) is the
        per-snapshot transmitted-values mirror; when the caller passes
        one, *the caller* commits or aborts it from the epoch outcome —
        with the internal fallback the stage is committed here, right
        after the synchronous scan.  The caller is responsible for
        holding the table-level lock.
        """
        table = self.table
        if self.use_page_summaries and cache is None or (
            self.delta_updates and value_cache is None
        ):
            if self._cache_restriction != restriction.text:
                self._page_cache.clear()
                self._value_cache = ValueCache()
                self._cache_restriction = restriction.text
        if self.use_page_summaries and cache is None:
            cache = self._page_cache
        own_value_cache = False
        if self.delta_updates and value_cache is None:
            value_cache = self._value_cache
            own_value_cache = True

        cursor = RefreshCursor(
            snap_time,
            restriction,
            projection,
            send,
            cache=cache,
            optimize_deletes=self.optimize_deletes,
            suppress_pure_inserts=self.suppress_pure_inserts,
            value_cache=value_cache if self.delta_updates else None,
        )
        if self.shards > 1:
            from repro.core.shard import run_sharded_refresh_scan

            stats = run_sharded_refresh_scan(
                table,
                (cursor,),
                shards=self.shards,
                fixup=fixup,
                use_page_summaries=self.use_page_summaries,
                batch_mode=self.batch_mode,
                executor=self.shard_executor,
            )
        else:
            stats = run_refresh_scan(
                table,
                (cursor,),
                fixup=fixup,
                use_page_summaries=self.use_page_summaries,
                batch_mode=self.batch_mode,
            )
        if own_value_cache:
            value_cache.commit()
        return self._fold_pass(cursor, stats)

    def refresh_chunked(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        fixup: Optional[bool] = None,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        value_cache: "Optional[ValueCache]" = None,
        chunk_pages: int = 4,
        on_chunk_boundary: "Optional[Callable[[int], None]]" = None,
        acquire: "Optional[Callable[[], None]]" = None,
        release: "Optional[Callable[[], None]]" = None,
    ) -> RefreshResult:
        """A writer-concurrent refresh scan (chunked watermark scan).

        Same contract as :meth:`refresh` except the table lock is
        *managed here* through the ``acquire``/``release`` closures: the
        scan holds it per chunk, releases it at each chunk boundary
        (running ``on_chunk_boundary`` while writers may proceed), and
        returns with it held so the caller can commit the epoch before
        releasing.  See
        :func:`~repro.core.differential.run_chunked_refresh_scan`.
        """
        table = self.table
        if self.use_page_summaries and cache is None or (
            self.delta_updates and value_cache is None
        ):
            if self._cache_restriction != restriction.text:
                self._page_cache.clear()
                self._value_cache = ValueCache()
                self._cache_restriction = restriction.text
        if self.use_page_summaries and cache is None:
            cache = self._page_cache
        own_value_cache = False
        if self.delta_updates and value_cache is None:
            value_cache = self._value_cache
            own_value_cache = True

        cursor = RefreshCursor(
            snap_time,
            restriction,
            projection,
            send,
            cache=cache,
            optimize_deletes=self.optimize_deletes,
            suppress_pure_inserts=self.suppress_pure_inserts,
            value_cache=value_cache if self.delta_updates else None,
        )
        stats = run_chunked_refresh_scan(
            table,
            (cursor,),
            fixup=fixup,
            use_page_summaries=self.use_page_summaries,
            batch_mode=self.batch_mode,
            chunk_pages=chunk_pages,
            on_chunk_boundary=on_chunk_boundary,
            acquire=acquire,
            release=release,
        )
        if own_value_cache:
            value_cache.commit()
        return self._fold_pass(cursor, stats)

    def _fold_pass(
        self, cursor: RefreshCursor, stats: RefreshResult
    ) -> RefreshResult:
        # A solo refresh owns its whole pass: fold the pass-level scan
        # costs into the cursor's result (per-cursor fields are already
        # there, and equal the pass totals for one cursor).
        result = cursor.result
        result.rows_decoded = stats.rows_decoded
        result.fixup_writes = stats.fixup_writes
        result.deletions_detected = stats.deletions_detected
        result.buffer_hits = stats.buffer_hits
        result.buffer_misses = stats.buffer_misses
        result.pages_batch_decoded = stats.pages_batch_decoded
        result.batches_reused = stats.batches_reused
        result.rows_materialized = stats.rows_materialized
        result.chunks_scanned = stats.chunks_scanned
        result.interleaved_writes = stats.interleaved_writes
        result.pages_repaired = stats.pages_repaired
        result.shards = stats.shards
        result.shard_stats = stats.shard_stats
        result.merge_wall = stats.merge_wall
        result.shard_skew = stats.shard_skew
        return result


def base_refresh(
    table: Table,
    snap_time: int,
    restriction: Restriction,
    projection: Projection,
    send: Send,
) -> RefreshResult:
    """Figure 3's ``BaseRefresh``: refresh without fix-up.

    For eagerly maintained tables, or lazy tables immediately after a
    standalone :func:`~repro.core.fixup.base_fixup` pass.
    """
    return DifferentialRefresher(table).refresh(
        snap_time, restriction, projection, send, fixup=False
    )
