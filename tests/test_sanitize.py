"""REPRO_SANITIZE=1: injected invariant breaks are caught at runtime."""

import struct

import pytest

from repro import sanitize
from repro.core.differential import DifferentialRefresher
from repro.core.manager import SnapshotManager
from repro.core.messages import (
    RefreshBeginMessage,
    RefreshCommitMessage,
    UpsertMessage,
)
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import SanitizerError
from repro.expr.predicate import Projection, Restriction
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType, StringType
from repro.storage.rid import Rid


@pytest.fixture(autouse=True)
def sanitizer_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def build(n=40):
    db = Database()
    schema = Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType(), nullable=True),
            Column("v", IntType()),
        ]
    )
    table = db.create_table("items", schema, annotations="lazy")
    rids = [table.insert([i, f"name-{i:04d}", i % 7]) for i in range(n)]
    return db, table, rids


class TestEnabledGate:
    def test_env_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()


class TestCleanRuns:
    def test_refresh_cycle_passes_under_sanitizer(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        for i in range(10, 20):
            table.update(rids[i], {"v": 1})
        table.delete(rids[25])
        snap.refresh()
        assert len(snap.table) == sum(
            1 for _, row in table.scan(visible=True) if row.values[2] < 5
        )

    def test_checks_leave_buffer_stats_untouched(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        stats = table.heap.pool.stats
        before = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        sanitize.check_annotation_chain(table)
        sanitize.check_page_summaries(table)
        sanitize.check_page_space(table)
        after = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        assert after == before


class TestAnnotationChain:
    def test_torn_chain_is_caught(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        # The initial refresh ran fix-up, so the chain is whole; now
        # tear it (entry 3 must point at entry 2, not entry 0).
        table.set_annotations(rids[3].page_no, [(rids[3].slot_no, rids[0], None)])
        with pytest.raises(SanitizerError, match="does not tile"):
            sanitize.check_annotation_chain(table)

    def test_missing_timestamp_is_caught(self):
        from repro.relation.types import NULL

        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        table.set_annotations(rids[3].page_no, [(rids[3].slot_no, None, NULL)])
        with pytest.raises(SanitizerError, match="NULL timestamp"):
            sanitize.check_annotation_chain(table)


class TestPageSummaries:
    def test_corrupt_max_ts_fails_the_next_refresh(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        for i in range(5):
            table.update(rids[i], {"v": 1})
        snap.refresh()
        # A summary claiming "nothing newer than 0" would let the scan
        # skip a page whose rows are newer — the refresh must notice.
        summary = table.heap.summaries.get(0)
        assert summary is not None
        summary.max_ts = 0
        with pytest.raises(SanitizerError, match="wrongly skipped"):
            snap.refresh()


class TestPageSpace:
    def test_drifted_live_byte_count_fails_the_next_refresh(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        # Overstate page 0's live bytes in its header (offset 8): free
        # space read from the header no longer matches the directory.
        pool = table.heap.pool
        physical = table.heap.physical_pages()[0]
        frame = pool.pin(physical)
        (live,) = struct.unpack_from("<I", frame, 8)
        struct.pack_into("<I", frame, 8, live + 1)
        pool.unpin(physical, dirty=True)
        with pytest.raises(SanitizerError, match="live bytes"):
            snap.refresh()


class TestBatchCache:
    def _stale_batch_under_current_version(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        heap = table.heap
        page_no = rids[0].page_no
        stale, _ = heap.page_batch(page_no, table.schema)
        table.update(rids[0], {"v": 3})
        snap.refresh()
        # A write that failed to bump the page version would leave the
        # old batch answering for the new page bytes.
        stale.version = heap.summaries.get_or_create(page_no).page_version
        heap.pool.batch_store(heap.physical_pages()[page_no], stale)
        return table, page_no

    def test_clean_cache_hit_passes(self):
        db, table, rids = build()
        SnapshotManager(db).create_snapshot("s", "items", where="v < 5")
        heap = table.heap
        heap.page_batch(0, table.schema)
        _, reused = heap.page_batch(0, table.schema)
        assert reused

    def test_stale_batch_is_caught_on_lookup(self):
        table, page_no = self._stale_batch_under_current_version()
        with pytest.raises(SanitizerError, match="cached batch"):
            table.heap.page_batch(page_no, table.schema)

    def test_stale_batch_fails_the_next_batch_scan(self):
        table, _ = self._stale_batch_under_current_version()
        refresher = DifferentialRefresher(table, batch_mode=True)
        with pytest.raises(SanitizerError, match="cached batch"):
            refresher.refresh(
                0,
                Restriction.parse("v < 5", table.schema),
                Projection(table.schema),
                lambda message: None,
            )


class TestEpochIsolation:
    def _snapshot(self):
        db = Database()
        schema = Schema(
            [Column("name", StringType()), Column("v", IntType())]
        )
        return SnapshotTable(db, "s", schema)

    def test_staged_leak_is_caught_on_read(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        # Simulate a staging bug: a message reaches visible storage
        # while the epoch is still open.
        snap._apply_now(UpsertMessage(Rid(0, 0), ("leak", 1), 8))
        with pytest.raises(SanitizerError, match="leaked"):
            snap.rows()

    def test_staged_leak_is_caught_at_commit(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        snap._apply_now(UpsertMessage(Rid(0, 0), ("leak", 1), 8))
        with pytest.raises(SanitizerError, match="leaked"):
            snap.apply(RefreshCommitMessage(1, 0))

    def test_clean_epoch_commits_and_reads(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        message = UpsertMessage(Rid(0, 0), ("ok", 1), 8)
        snap.apply(message)
        assert snap.rows() == []  # staged, not visible
        snap.apply(RefreshCommitMessage(1, 1))
        assert [row.values for row in snap.rows()] == [("ok", 1)]


class TestValueCacheMirror:
    def test_diverged_mirror_fails_the_next_refresh(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v >= 0", delta_updates=True
        )
        assert len(snap.value_cache) > 0
        page_values = snap.value_cache.pages[rids[0].page_no]
        page_values[rids[0]] = ("corrupt", "corrupt", -1)
        with pytest.raises(SanitizerError, match="mirror"):
            snap.refresh()

    def test_direct_check_spots_a_phantom_entry(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        doomed = next(
            rid for rid in rids if snap.table.lookup(rid) is not None
        )
        snap.table._delete_addr(doomed)
        with pytest.raises(SanitizerError, match="no such entry"):
            sanitize.check_value_cache(snap.value_cache, snap.table)
