"""Runtime invariant sanitizer — ``REPRO_SANITIZE=1`` mode.

The static rules in :mod:`repro.lint` catch code that *could* break the
refresh protocol; this module catches state that *did*.  When the
``REPRO_SANITIZE`` environment variable is set (to anything but ``0``),
hooks in the refresh path validate, after the fact, the invariants the
paper's algorithm depends on:

- **annotation chain** — after a fix-up scan, every live entry's
  ``PrevAddr`` names the immediately preceding live entry, so the empty
  regions between consecutive entries tile the address space without
  overlap and every entry carries a timestamp (Figures 2 and 7);
- **page-summary dominance** — each page's ``max_ts`` bounds every
  timestamp on the page and ``null_slots`` covers every NULL
  annotation, so a summary can never justify skipping a changed page;
- **page space accounting** — each page header's live-byte count equals
  the summed body lengths of a directory walk, so free-space decisions
  made from the header are the ones a walk would make;
- **epoch isolation** — between ``RefreshBegin`` and the matching
  commit, nothing staged may reach the visible snapshot contents;
- **value-cache mirroring** — after a committed refresh, every value
  the sender's cache remembers transmitting is exactly what the
  receiver holds for that address (the precondition of every
  ``UpdateDeltaMessage``).

Every check raises :class:`~repro.errors.SanitizerError` on violation
and is observation-neutral: heap reads performed by a check save and
restore the buffer pool's counters, so benchmarks and tests that assert
on hit/miss statistics behave identically with the sanitizer on.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Optional, Tuple

from repro.errors import SanitizerError
# The reference walker, not the compiled probe the refresh path uses:
# a check must not validate the new code with itself.
from repro.relation.row import _walk_fields
from repro.relation.types import NULL
from repro.storage.rid import Rid


def enabled() -> bool:
    """Whether sanitizer checks are active (``REPRO_SANITIZE`` set)."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class _StatsGuard:
    """Save/restore buffer-pool counters around a sanitizer heap read."""

    __slots__ = ("_stats", "_saved")

    def __init__(self, heap: Any) -> None:
        self._stats = heap.pool.stats
        self._saved: "Optional[Tuple[int, int, int, int]]" = None

    def __enter__(self) -> "_StatsGuard":
        stats = self._stats
        self._saved = (
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.writebacks,
        )
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        stats = self._stats
        if self._saved is not None:
            (
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.writebacks,
            ) = self._saved


def _annotations(table: Any) -> "Iterator[Tuple[Rid, Any, Any]]":
    from repro.table import PREVADDR, TIMESTAMP

    positions = (
        table.schema.position(PREVADDR),
        table.schema.position(TIMESTAMP),
    )
    for rid, body in table.heap.scan():
        prev, ts = _walk_fields(table.schema, body, positions)
        yield rid, prev, ts


def check_annotation_chain(table: Any) -> None:
    """After fix-up: ``PrevAddr`` intervals tile the address space.

    Walking the table in address order, each live entry's ``PrevAddr``
    must equal the address of the previous live entry (``Rid.BEGIN`` for
    the first), and every timestamp must be set — the postcondition of
    Figure 7 that the Figure-3 transmit decision assumes.
    """
    if not table.has_annotations:
        return
    with _StatsGuard(table.heap):
        expected = Rid.BEGIN
        for rid, prev, ts in _annotations(table):
            if ts is NULL:
                raise SanitizerError(
                    f"table {table.name!r}: entry {rid} has a NULL "
                    "timestamp after fix-up"
                )
            if prev != expected:
                raise SanitizerError(
                    f"table {table.name!r}: entry {rid} has PrevAddr "
                    f"{prev}, expected {expected}; the empty-region chain "
                    "does not tile the address space"
                )
            expected = rid


def check_page_summaries(table: Any) -> None:
    """Summaries dominate their pages: ``max_ts`` bounds every row.

    A summary whose ``max_ts`` is below some row's timestamp, or whose
    ``null_slots`` misses a NULL annotation, could justify skipping a
    page that changed — a wrong refresh, not just a slow one.
    """
    summaries = table.heap.summaries
    if summaries is None:
        return
    with _StatsGuard(table.heap):
        heap = table.heap
        for page_no in range(heap.page_count):
            summary = summaries.get(page_no)
            if summary is None:
                continue
            for rid, prev, ts in _page_annotations(table, page_no):
                if prev is NULL or ts is NULL:
                    if rid.slot_no not in summary.null_slots:
                        raise SanitizerError(
                            f"table {table.name!r}: entry {rid} has NULL "
                            "annotations but is not in the summary's "
                            "null_slots; the page could be wrongly skipped"
                        )
                elif ts > summary.max_ts:
                    raise SanitizerError(
                        f"table {table.name!r}: entry {rid} has timestamp "
                        f"{ts} above the page summary's max_ts "
                        f"{summary.max_ts}; the page could be wrongly "
                        "skipped"
                    )


def check_page_space(table: Any) -> None:
    """Every page header's live-byte count matches a directory walk.

    Space accounting reads ``live_bytes`` from the header instead of
    walking the slot directory; a drifted count would misplace inserts
    or report a full page as having room.
    """

    def visit(page_no: int, page: Any) -> bool:
        walked = sum(len(body) for _, body in page.records())
        if page.live_bytes != walked:
            raise SanitizerError(
                f"table {table.name!r}: page {page_no} header counts "
                f"{page.live_bytes} live bytes, its directory holds {walked}"
            )
        return False

    with _StatsGuard(table.heap):
        table.heap.for_each_page(visit)


def _page_annotations(
    table: Any, page_no: int
) -> "Iterator[Tuple[Rid, Any, Any]]":
    from repro.table import PREVADDR, TIMESTAMP

    positions = (
        table.schema.position(PREVADDR),
        table.schema.position(TIMESTAMP),
    )
    for slot_no, body in table.heap.page_entries(page_no):
        prev, ts = _walk_fields(table.schema, body, positions)
        yield Rid(page_no, slot_no), prev, ts


def check_after_refresh_scan(table: Any, fixup_ran: bool) -> None:
    """Post-scan validation hook for :func:`run_refresh_scan`.

    The chain check only holds once a fix-up pass completed (eager-mode
    transaction undo legitimately leaves the chain torn until the next
    pass); summary dominance and page space accounting must hold at all
    times.
    """
    if fixup_ran:
        check_annotation_chain(table)
    check_page_summaries(table)
    check_page_space(table)
    check_buffer_bounds(table.heap.pool)


# -- snapshot epoch isolation -------------------------------------------------


def visible_fingerprint(snapshot: Any) -> "Tuple[int, int, int, int, int]":
    """A cheap digest of the snapshot's *visible* state.

    Any message reaching storage changes at least one component (every
    apply path bumps an ``applied_*`` counter), so an unchanged
    fingerprint across an open epoch means nothing staged leaked.
    """
    return (
        len(snapshot),
        snapshot.snap_time,
        snapshot.applied_upserts,
        snapshot.applied_deletes,
        snapshot.applied_merges,
    )


def check_epoch_isolation(snapshot: Any) -> None:
    """While an epoch is open, visible contents must not have moved."""
    baseline = getattr(snapshot, "_sanitize_baseline", None)
    if baseline is None or not snapshot.epoch_open:
        return
    current = visible_fingerprint(snapshot)
    if current != baseline:
        raise SanitizerError(
            f"snapshot {snapshot.name!r}: visible state moved from "
            f"{baseline} to {current} while epoch "
            f"{snapshot._epoch.epoch} is still staging; a staged message "
            "leaked into visible reads"
        )


# -- sender value-cache mirroring ---------------------------------------------


def check_value_cache(cache: Any, snapshot: Any) -> None:
    """Every cached (address, values) pair matches the receiver exactly.

    The sender only emits an ``UpdateDeltaMessage`` for addresses its
    :class:`~repro.core.differential.ValueCache` remembers transmitting;
    if the mirror disagrees with the receiver, the merged row at the
    other end would be silently wrong.
    """
    for page_values in cache.pages.values():
        for rid, values in page_values.items():
            row = snapshot.lookup(rid)
            if row is None:
                raise SanitizerError(
                    f"snapshot {snapshot.name!r}: value cache remembers "
                    f"{rid} but the receiver holds no such entry"
                )
            if tuple(row.values) != tuple(values):
                raise SanitizerError(
                    f"snapshot {snapshot.name!r}: value cache remembers "
                    f"{values!r} for {rid} but the receiver holds "
                    f"{tuple(row.values)!r}; the mirror diverged"
                )


# -- buffer-pool cache bounds -------------------------------------------------


def check_buffer_bounds(pool: Any) -> None:
    """Both pool caches respect the configured frame capacity.

    The frame LRU is bounded by eviction and the batch cache by its
    store-time trim, but retention bugs (dropped tables whose entries
    were never evicted) inflate either side silently — the pool keeps
    "working" while holding storage nobody can ever hit again.
    """
    capacity = pool.capacity
    if len(pool) > capacity:
        raise SanitizerError(
            f"buffer pool holds {len(pool)} frames over its capacity "
            f"of {capacity}; eviction is leaking frames"
        )
    batches = pool.batch_entries()
    if batches > capacity:
        raise SanitizerError(
            f"buffer pool holds {batches} cached page batches over its "
            f"capacity of {capacity}; batch retention is leaking entries"
        )


# -- anti-entropy convergence -------------------------------------------------


def check_anti_entropy(
    table: Any, restriction: Any, projection: Any, snapshot: Any
) -> None:
    """After a resync, the receiver equals the restriction of the base.

    The whole point of the hash-bisection protocol is that repairing
    only mismatched leaves still converges the *entire* snapshot; a
    digest collision or a slicing bug would leave silent drift exactly
    where the protocol claims to have proven agreement.
    """
    with _StatsGuard(table.heap):
        expected = {}
        for rid, row in table.scan_full():
            if restriction(list(row.values)):
                expected[rid] = tuple(projection(row).values)
    actual = {
        addr: tuple(values) for addr, values in snapshot.as_map().items()
    }
    if actual == expected:
        return
    missing = sorted(set(expected) - set(actual))
    surplus = sorted(set(actual) - set(expected))
    stale = sorted(
        addr
        for addr in set(actual) & set(expected)
        if actual[addr] != expected[addr]
    )
    raise SanitizerError(
        f"snapshot {snapshot.name!r} diverges from its base restriction "
        f"after anti-entropy: {len(missing)} missing, {len(surplus)} "
        f"surplus, {len(stale)} stale (first: "
        f"{(missing or surplus or stale)[:3]})"
    )
