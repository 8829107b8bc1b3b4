"""The paper's employee example, pinned exactly.

Timestamps in the figures look like clock readings ("3 30", "4 30"); we
encode them as integers ×100 (330, 430) so the golden tests compare
exact values.  The snapshot restriction throughout is ``salary < 10``.

Figure 1 (simple base table)::

    Addr  Status  TimeStamp  Name   Salary
    1     ok      3.00       Bruce  15
    2     ok      3.45       Laura   6
    3     ok      3.50       Hamid  15
    4     empty   4.00       -       -
    5     ok      2.30       Mohan   9
    6     ok      2.00       Paul    8
    7     empty   4.10       -       -

Figure 5 (lazily annotated base table, before fix-up)::

    Addr  PrevAddr  TimeStamp  Name   Salary  Comment
    1     0         3.00       Bruce  15      unchanged
    2     NULL      NULL       Laura   6      inserted
    3     1         NULL       Hamid  15      updated (was 9)
    4     (deleted: was Jack 6)
    5     4         2.30       Mohan   9      preceding delete
    6     5         2.00       Paul    8      unchanged
    7     (deleted: was Bob 8)

with SnapTime = 3.30 and the refresh running at BaseTime = 4.30.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.simple import SimpleBaseTable
from repro.database import Database
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.table import Table
from repro.txn.clock import ManualClock

#: The cast of the paper's figures, with their Figure-1 salaries.
EMPLOYEES = (
    ("Bruce", 15),
    ("Laura", 6),
    ("Hamid", 15),
    ("Jack", 6),
    ("Mohan", 9),
    ("Paul", 8),
    ("Bob", 8),
)

#: SnapTime of the figures' snapshot (3.30 × 100).
SNAP_TIME = 330
#: Base-table time at which the figures' refresh runs (4.30 × 100).
BASE_TIME = 430

EMPLOYEE_SCHEMA = Schema.of(("name", "string"), ("salary", "int"))


def figure1_simple_table() -> SimpleBaseTable:
    """The exact Figure-1 dense base table."""
    clock = ManualClock()
    table = SimpleBaseTable(7, EMPLOYEE_SCHEMA, clock=clock)
    table.load(1, ("Bruce", 15), 300)
    table.load(2, ("Laura", 6), 345)
    table.load(3, ("Hamid", 15), 350)
    table.set_empty(4, 400)
    table.load(5, ("Mohan", 9), 230)
    table.load(6, ("Paul", 8), 200)
    table.set_empty(7, 410)
    clock.set(BASE_TIME - 1)  # the refresh's tick yields exactly 4.30
    return table


def figure2_snapshot_before() -> "dict[int, tuple]":
    """Snapshot contents before the Figure-2 refresh."""
    return {
        3: ("Hamid", 9),
        4: ("Jack", 6),
        5: ("Mohan", 9),
        6: ("Paul", 8),
        7: ("Bob", 7),
    }


def figure5_base_table() -> "Tuple[Database, Table, dict[int, Rid]]":
    """The exact Figure-5 base table on the real storage engine.

    Returns ``(db, table, addrs)`` where ``addrs`` maps the figure's
    1-based addresses to the engine's RIDs (address ``i`` is slot
    ``i - 1`` of page 0; the figure's address 0 is ``Rid.BEGIN``).
    """
    clock = ManualClock()
    db = Database("figure5", clock=clock)
    table = db.create_table("emp", EMPLOYEE_SCHEMA, annotations="lazy")
    rows = [
        ("Bruce", 15),
        ("Laura", 6),
        ("Hamid", 15),
        ("Jack", 6),
        ("Mohan", 9),
        ("Paul", 8),
        ("Bob", 8),
    ]
    rids = table.bulk_load(rows)
    addrs = {i + 1: rid for i, rid in enumerate(rids)}
    # Annotation state of Figure 5 (before refresh).  This builder
    # deliberately forges fix-up state, so the mutation-discipline rule
    # is waived line by line.
    forged = [
        (addrs[1], Rid.BEGIN, 300),
        (addrs[2], NULL, NULL),  # inserted
        (addrs[3], addrs[1], NULL),  # updated
        (addrs[5], addrs[4], 230),
        (addrs[6], addrs[5], 200),
    ]
    for rid, prev, ts in forged:
        table.set_annotations(rid.page_no, [(rid.slot_no, prev, ts)])  # replint: ignore[L101]
    # Jack (4) and Bob (7) were deleted — "delete just deletes".
    table.heap.delete(addrs[4])
    table.heap.delete(addrs[7])
    clock.set(BASE_TIME - 1)  # the refresh's fix-up tick yields exactly 4.30
    return db, table, addrs


def figure5_snapshot_contents(addrs: "dict[int, Rid]") -> "dict[Rid, tuple]":
    """Snapshot contents before the Figure-6 refresh (keyed by RID)."""
    return {
        addrs[3]: ("Hamid", 9),
        addrs[4]: ("Jack", 6),
        addrs[5]: ("Mohan", 9),
        addrs[6]: ("Paul", 8),
        addrs[7]: ("Bob", 8),
    }


def figure6_snapshot_after(addrs: "dict[int, Rid]") -> "dict[Rid, tuple]":
    """Snapshot contents after the Figure-6 refresh (keyed by RID)."""
    return {
        addrs[2]: ("Laura", 6),
        addrs[5]: ("Mohan", 9),
        addrs[6]: ("Paul", 8),
    }


def figure5_expected_annotations(
    addrs: "dict[int, Rid]",
) -> "dict[int, tuple]":
    """Figure 5's 'Base Table after Refresh' annotation state."""
    return {
        1: (Rid.BEGIN, 300),
        2: (addrs[1], BASE_TIME),
        3: (addrs[2], BASE_TIME),
        5: (addrs[3], BASE_TIME),
        6: (addrs[5], 200),
    }
