"""Page-at-a-time annotation patches equal the same writes one at a time.

The fix-up issues one page's repairs as one ``Table.set_annotations``
call.  On random pages and patch sets that call must leave exactly the
state of issuing the same writes one call per entry, and of the
record-rewrite path those writes used to take (read the record, patch
its tail, ``HeapFile.update``): the same page image, the same page
summary ``null_slots``/``max_ts`` (with ``page_version`` strictly
advanced), the same ``HeapFile.writes`` and the same write-observer
``(kind, rid)`` sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.relation.types import NULL
from repro.storage.rid import Rid

rows = st.lists(
    st.tuples(st.integers(-50, 50), st.text(max_size=12)),
    min_size=1,
    max_size=40,
)
field_values = st.one_of(
    st.none(),
    st.just(NULL),
    st.builds(Rid, st.integers(0, 3), st.integers(0, 60)),
)
stamps = st.one_of(st.none(), st.just(NULL), st.integers(0, 10_000))


def build(values, deleted):
    """A lazy table holding ``values`` with the ``deleted`` indices gone."""
    db = Database("patch", buffer_capacity=8)
    table = db.create_table("t", [("v", "int"), ("s", "string")], annotations="lazy")
    rids = table.bulk_load([list(row) for row in values])
    for index in sorted(deleted):
        if index < len(rids):
            table.delete(rids[index])
    events = []
    table.heap.observe_writes(lambda kind, rid: events.append((kind, rid)))
    return table, events


def state(table, page_no):
    summary = table.heap.summaries.get(page_no)
    writes = table.heap.writes
    image = bytes(table.heap.pool.pin(table.heap.physical_pages()[page_no]))
    table.heap.pool.unpin(table.heap.physical_pages()[page_no], dirty=False)
    return (
        image,
        set(summary.null_slots),
        summary.max_ts,
        (writes.inserts, writes.updates, writes.deletes),
    )


def old_path_write(table, rid, prev, ts):
    """The pre-page-form fix-up write: patch a record copy, then update."""
    body = bytearray(table.heap.read(rid))
    if prev is not None:
        body[-16:-8] = table.schema.column("$PREVADDR$").ctype.encode(prev)
    if ts is not None:
        body[-8:] = table.schema.column("$TIMESTAMP$").ctype.encode(ts)
    table.heap.update(rid, bytes(body))


class TestPageFormPatch:
    @settings(max_examples=80, deadline=None)
    @given(
        values=rows,
        deleted=st.sets(st.integers(0, 39), max_size=10),
        picks=st.lists(st.tuples(field_values, stamps), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_matches_one_call_per_entry(self, values, deleted, picks, data):
        tables = [build(values, deleted) for _ in range(3)]
        page_form, one_by_one, old_path = tables
        live = [rid.slot_no for rid, _ in page_form[0].scan() if rid.page_no == 0]
        if not live:
            return
        slots = sorted(
            data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=len(live)))
        )
        patches = [
            (slot, prev, ts) for slot, (prev, ts) in zip(slots, picks * len(slots))
        ]
        version_before = page_form[0].heap.summaries.get(0).page_version

        page_form[0].set_annotations(0, patches)
        for patch in patches:
            one_by_one[0].set_annotations(0, [patch])
        for slot, prev, ts in patches:
            old_path_write(old_path[0], Rid(0, slot), prev, ts)

        expected = state(old_path[0], 0)
        assert state(page_form[0], 0) == expected
        assert state(one_by_one[0], 0) == expected
        assert page_form[1] == one_by_one[1] == old_path[1]
        assert page_form[1] == [("update", Rid(0, slot)) for slot in slots]
        assert page_form[0].heap.summaries.get(0).page_version > version_before
