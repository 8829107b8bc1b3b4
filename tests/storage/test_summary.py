"""Page summaries: incremental maintenance vs ground truth."""

import pytest

from repro.relation.types import NULL
from repro.storage.summary import PageSummaryMap
from repro.table import PREVADDR, TIMESTAMP


@pytest.fixture
def lazy(db):
    table = db.create_table("t", [("v", "int")], annotations="lazy")
    return table


def assert_matches_rebuild(table):
    """The incrementally maintained map must agree with a fresh rebuild.

    ``max_ts`` is allowed to over-estimate (deleted entries leave their
    stamp behind); everything else must be exact.
    """
    heap = table.heap
    fresh = PageSummaryMap(
        table.schema, table._prev_pos, table._ts_pos, table.db.clock.read
    )
    fresh.rebuild(heap)
    for page_no in range(heap.page_count):
        live = heap.summaries.get(page_no)
        truth = fresh.get(page_no)
        assert live is not None
        assert live.null_slots == truth.null_slots, f"page {page_no}"
        assert live.first_live_slot == truth.first_live_slot
        assert live.last_live_slot == truth.last_live_slot
        assert live.max_ts >= truth.max_ts


class TestMaintenance:
    def test_attached_on_enable(self, db):
        table = db.create_table("pre", [("v", "int")])
        table.bulk_load([[i] for i in range(5)])
        assert table.heap.summaries is None
        table.enable_annotations("lazy")
        summaries = table.heap.summaries
        assert summaries is not None
        summary = summaries.get(0)
        # Rewritten rows all carry NULL annotations: every slot is dirty.
        assert len(summary.null_slots) == 5
        assert summary.has_null_annotations
        assert summary.first_live_slot == 0
        assert summary.last_live_slot == 4

    def test_insert_marks_null_slots(self, lazy):
        rid = lazy.insert([1])
        summary = lazy.heap.summaries.get(rid.page_no)
        assert rid.slot_no in summary.null_slots
        assert not summary.skippable(snap_time=10**9)

    def test_fixup_write_clears_dirty_state(self, lazy):
        rid = lazy.insert([1])
        from repro.storage.rid import Rid

        lazy.set_annotations(rid, prev=Rid.BEGIN, ts=7)
        summary = lazy.heap.summaries.get(rid.page_no)
        assert rid.slot_no not in summary.null_slots
        assert summary.max_ts >= 7
        assert summary.skippable(snap_time=7)
        assert not summary.skippable(snap_time=6)

    def test_update_redirties(self, lazy):
        rid = lazy.insert([1])
        from repro.storage.rid import Rid

        lazy.set_annotations(rid, prev=Rid.BEGIN, ts=7)
        lazy.update(rid, {"v": 2})  # lazy update NULLs the timestamp
        summary = lazy.heap.summaries.get(rid.page_no)
        assert rid.slot_no in summary.null_slots

    def test_delete_is_structural(self, lazy):
        rids = [lazy.insert([i]) for i in range(3)]
        before = lazy.heap.summaries.get(0).structural_changed_at
        lazy.delete(rids[1])
        summary = lazy.heap.summaries.get(0)
        assert summary.structural_changed_at > before
        assert summary.structural_changed_at > lazy.db.clock.read()
        assert rids[1].slot_no not in summary.null_slots
        assert summary.first_live_slot == 0
        assert summary.last_live_slot == 2

    def test_delete_keeps_bounds_exact(self, lazy):
        # Interior deletes leave the bounds alone; endpoint deletes move
        # them to the next live slot inward.
        rids = [lazy.insert([i]) for i in range(6)]
        for index in (2, 0, 5, 1, 4):
            lazy.delete(rids[index])
            assert_matches_rebuild(lazy)
        summary = lazy.heap.summaries.get(0)
        assert summary.first_live_slot == summary.last_live_slot == 3

    def test_delete_all_clears_bounds(self, lazy):
        rid = lazy.insert([1])
        lazy.delete(rid)
        summary = lazy.heap.summaries.get(rid.page_no)
        assert summary.first_live_rid is None
        assert summary.last_live_rid is None

    def test_page_version_bumps_on_every_write(self, lazy):
        rid = lazy.insert([1])
        summary = lazy.heap.summaries.get(rid.page_no)
        v0 = summary.page_version
        lazy.update(rid, {"v": 2})
        v1 = summary.page_version
        from repro.storage.rid import Rid

        lazy.set_annotations(rid, prev=Rid.BEGIN, ts=3)
        v2 = summary.page_version
        lazy.delete(rid)
        v3 = summary.page_version
        assert v0 < v1 < v2 < v3

    def test_matches_rebuild_after_mixed_operations(self, lazy):
        rids = [lazy.insert([i]) for i in range(50)]
        for i in range(0, 50, 7):
            lazy.delete(rids[i])
        for i in range(1, 50, 11):
            if i % 7:
                lazy.update(rids[i], {"v": 100 + i})
        for i in range(8):
            lazy.insert([200 + i])  # reuses freed slots
        assert_matches_rebuild(lazy)


class TestCompactSurvival:
    def test_summaries_survive_compaction(self, db):
        """Compaction moves bodies, not slots; summaries stay valid."""
        table = db.create_table("pad", [("pad", "string")], annotations="lazy")
        rids = table.bulk_load([["x" * 400] for _ in range(9)])
        table.delete(rids[2])
        table.delete(rids[5])
        # Shrink then grow rows: growth forces an in-page compact once
        # contiguous space runs out but holes remain reclaimable.
        for rid in (rids[0], rids[1], rids[3]):
            table.update(rid, {"pad": "y" * 50})
        for rid in (rids[4], rids[6], rids[7]):
            table.update(rid, {"pad": "z" * 700})
        assert_matches_rebuild(table)

    def test_multi_page_bounds(self, db):
        table = db.create_table("wide", [("pad", "string")], annotations="lazy")
        table.bulk_load([["p" * 900] for _ in range(12)])  # spans pages
        assert table.heap.page_count > 1
        assert_matches_rebuild(table)
        for page_no in range(table.heap.page_count):
            summary = table.heap.summaries.get(page_no)
            assert summary.first_live_rid.page_no == page_no


class TestEagerMode:
    def test_eager_writes_tracked(self, db):
        table = db.create_table("e", [("v", "int")], annotations="eager")
        rids = [table.insert([i]) for i in range(5)]
        summary = table.heap.summaries.get(0)
        # Eager maintenance leaves no NULL annotations behind.
        assert not summary.has_null_annotations
        assert summary.max_ts >= 5
        table.delete(rids[2])
        assert_matches_rebuild(table)
