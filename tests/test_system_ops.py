"""Table system operations (the R* "special runtime routines")."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.relation.types import NULL
from repro.table import PREVADDR, TIMESTAMP


@pytest.fixture
def table(db):
    t = db.create_table("t", [("v", "int")], annotations="lazy")
    t.bulk_load([[i] for i in range(5)])
    return t


class TestSystemInsert:
    def test_sets_lazy_annotations_null(self, table):
        rid = table.system_insert({"v": 42})
        assert table.annotations(rid) == (NULL, NULL)
        assert table.read(rid).values == (42,)

    def test_no_wal_records(self, db, table):
        before = len(db.wal)
        table.system_insert({"v": 1})
        assert len(db.wal) == before

    def test_hidden_columns_settable(self, db):
        from repro.core.snapshot import BASEADDR
        from repro.relation.schema import Column, Schema
        from repro.relation.types import RidType
        from repro.storage.rid import Rid

        schema = Schema.of(("v", "int")).with_columns(
            [Column(BASEADDR, RidType(), hidden=True)]
        )
        t = db.create_table("hid", schema, annotations="lazy")
        rid = t.system_insert({"v": 1, BASEADDR: Rid(3, 7)})
        full = t.read(rid, visible=False)
        assert full.get(t.schema, BASEADDR) == Rid(3, 7)

    def test_rejected_on_eager(self, db):
        t = db.create_table("e", [("v", "int")], annotations="eager")
        with pytest.raises(CatalogError):
            t.system_insert({"v": 1})


class TestSystemUpdate:
    def test_nulls_timestamp(self, db, table):
        rid = next(r for r, _ in table.scan())
        table.set_annotations(rid.page_no, [(rid.slot_no, NULL, 5)])
        table.system_update(rid, {"v": 99})
        _, ts = table.annotations(rid)
        assert ts is NULL

    def test_rejects_annotation_fields(self, table):
        rid = next(r for r, _ in table.scan())
        with pytest.raises(SchemaError):
            table.system_update(rid, {TIMESTAMP: 7})
        with pytest.raises(SchemaError):
            table.system_update(rid, {PREVADDR: NULL})

    def test_relocation_on_overflow(self, db):
        t = db.create_table("grow", [("pad", "string")], annotations="lazy")
        rids = t.bulk_load([["x" * 1300] for _ in range(3)])
        new_rid = t.system_update(rids[1], {"pad": "y" * 2700})
        assert new_rid != rids[1]
        assert t.read(new_rid).values == ("y" * 2700,)
        assert t.annotations(new_rid) == (NULL, NULL)


class TestFullCoverUpdate:
    """A system_update naming every stored column skips the old-row decode."""

    @staticmethod
    def twins(db):
        tables = []
        for name in ("a", "b"):
            t = db.create_table(name, [("v", "int"), ("s", "string")], annotations="lazy")
            rids = t.bulk_load([[i, "x" * 40] for i in range(40)])
            t.set_annotations(rids[3].page_no, [(rids[3].slot_no, rids[1], 9)])
            tables.append((t, rids))
        return tables

    def test_same_record_image_as_decode_path(self, db, monkeypatch):
        (fast, rids), (slow, _) = self.twins(db)
        rid = rids[3]
        # Row 3 already holds v=3: the partial change decodes, the full
        # cover must produce the same bytes without decoding.
        slow.system_update(rid, {"s": "shorter"})
        monkeypatch.setattr(fast, "_decode", None)  # any decode would fail
        assert fast.system_update(rid, {"v": 3, "s": "shorter"}) == rid
        assert fast.heap.read(rid) == slow.heap.read(rid)
        # $PREVADDR$ carried over, $TIMESTAMP$ NULLed as for any lazy update.
        assert fast.annotations(rid) == (rids[1], NULL)

    def test_relocation_matches_decode_path(self, db, monkeypatch):
        (fast, rids), (slow, _) = self.twins(db)
        rid = rids[3]
        grown = "y" * 3000  # outgrows its page: the row relocates
        moved_slow = slow.system_update(rid, {"s": grown})
        monkeypatch.setattr(fast, "_decode", None)
        moved_fast = fast.system_update(rid, {"v": 3, "s": grown})
        assert moved_fast == moved_slow != rid
        assert fast.heap.read(moved_fast) == slow.heap.read(moved_slow)
        # A relocated row looks like a fresh insert.
        assert fast.annotations(moved_fast) == (NULL, NULL)
        assert not fast.exists(rid)

    def test_unknown_column_still_rejected(self, table):
        rid = next(r for r, _ in table.scan())
        with pytest.raises(SchemaError):
            table.system_update(rid, {"w": 1})


class TestSystemDelete:
    def test_plain_delete(self, db, table):
        rid = next(r for r, _ in table.scan())
        before = len(db.wal)
        table.system_delete(rid)
        assert not table.exists(rid)
        assert len(db.wal) == before

    def test_stats_counted(self, table):
        rid = table.system_insert({"v": 1})
        base = table.stats.modifications
        table.system_update(rid, {"v": 2})
        table.system_delete(rid)
        assert table.stats.modifications == base + 2
