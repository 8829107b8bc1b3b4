"""Workload definitions and the seeded operation stream.

A workload fixes the data size, the buffer-pool size, the write mix and
the refresh entry point.  :func:`generate` turns ``(workload, seed)``
into the complete input of a run — the initial rows of every base table
and one list of operations per cycle — before anything is timed, so the
program under test only ever receives generated operations.

Operations name their target row by a fraction in ``[0, 1)`` of the
base table's live rows in address order, not by address: addresses are
chosen by the heap, and the loop resolves the fraction against the
rows it knows to be live when the operation runs.  The program is
deterministic, so one seed always yields the same addresses too.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

#: Visible schema of every base table.
SCHEMA = (("k", "int"), ("v", "int"), ("s", "string"))
#: Position of ``v`` in a visible row (the predicates' column).
V = 1
#: Range of ``v``; a predicate ``v < 10`` therefore selects 10%.
V_RANGE = 100
#: Length of the ``s`` payload (fixed, so updates never grow a record).
S_LEN = 16


@dataclass(frozen=True)
class SnapshotDef:
    """One snapshot per base table: predicate text, oracle, projection."""

    where: str
    #: The same predicate in plain Python, used by the oracle only.
    oracle: Callable[[Sequence[object]], bool]
    #: Projected column names (``None`` keeps every visible column).
    columns: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Rows bulk-loaded into each base table.
    rows: int
    #: Base tables; fleet_drain writes to one of them per cycle.
    bases: int
    #: Frames of the base site's buffer pool.
    buffer_frames: int
    #: Operations committed before each refresh call.
    ops_per_cycle: int
    #: (update, insert, delete) shares of the operation mix.
    mix: Tuple[float, float, float]
    #: ``(share of ops, share of rows, start)`` of a contiguous hot
    #: range of the address-ordered rows, or ``None`` for uniform
    #: targets.  The start is fixed, not drawn from the seed: where the
    #: hot range sits decides where first-fit inserts land, and a
    #: seed-dependent position would make the seeds different workloads.
    hotspot: Optional[Tuple[float, float, float]]
    #: Which columns an update rewrites: ``"v"`` or ``"v|s"`` (one of
    #: the two, so per-column deltas pay off).
    update_columns: str
    #: Refresh entry point: ``"solo"`` (SnapshotManager.refresh),
    #: ``"online"`` (refresh_online with boundary writes) or ``"drain"``
    #: (drain_registry over a SnapshotRegistry).
    mode: str
    wire_format: bool
    delta_updates: bool
    snapshots: Tuple[SnapshotDef, ...]
    #: Writes committed at every chunk boundary of an online refresh.
    boundary_burst: int = 0
    #: Upper bound on chunk boundaries per online refresh (the stream
    #: carries this many bursts per cycle; unused ones are never run).
    max_boundaries: int = 0
    #: Cycles every run makes and the deterministic counters cover, so
    #: the counters of one seed never depend on how fast the machine is.
    det_cycles: int = 100
    #: Timed set-ups per untraced run; their median is ``setup_s``.
    setups: int = 7
    #: Cycles generated per second of ``--seconds``: about three times
    #: the rate measured on a 2-core box, so the loop ends on its
    #: deadline, not by running out of input.
    stream_cycles_per_s: int = 15


def _fleet_snapshots() -> Tuple[SnapshotDef, ...]:
    """Twelve snapshots over four predicates with shared signatures.

    ``v < ?`` and ``v >= ?`` are two cohort signatures over one column,
    so the registry clusters all twelve into one shared-scan cohort.
    """
    predicates = (
        ("v < 10", lambda row: row[V] < 10),
        ("v < 30", lambda row: row[V] < 30),
        ("v >= 70", lambda row: row[V] >= 70),
        ("v >= 95", lambda row: row[V] >= 95),
    )
    projections = (None, ("k", "v"), ("k", "s"))
    return tuple(
        SnapshotDef(where, oracle, columns)
        for where, oracle in predicates
        for columns in projections
    )


WORKLOADS = {
    "uniform_cold": Workload(
        name="uniform_cold",
        rows=8000,
        bases=1,
        buffer_frames=48,
        ops_per_cycle=400,
        mix=(0.6, 0.2, 0.2),
        hotspot=None,
        update_columns="v",
        mode="solo",
        wire_format=True,
        delta_updates=False,
        snapshots=(SnapshotDef("v < 10", lambda row: row[V] < 10),),
        stream_cycles_per_s=15,
    ),
    "hotspot_online": Workload(
        name="hotspot_online",
        rows=8000,
        bases=1,
        buffer_frames=256,
        ops_per_cycle=200,
        mix=(0.8, 0.1, 0.1),
        hotspot=(0.99, 0.02, 0.49),
        update_columns="v",
        mode="online",
        wire_format=False,
        delta_updates=False,
        snapshots=(SnapshotDef("v < 10", lambda row: row[V] < 10),),
        boundary_burst=4,
        max_boundaries=40,
        # Few entries change per refresh here, so the counters need a
        # longer prefix to read the same across seeds; 300 cycles take
        # about 14 s on a 2-core box.
        det_cycles=300,
        stream_cycles_per_s=40,
    ),
    "fleet_drain": Workload(
        name="fleet_drain",
        rows=1500,
        bases=4,
        buffer_frames=256,
        ops_per_cycle=60,
        mix=(0.6, 0.2, 0.2),
        hotspot=None,
        update_columns="v|s",
        mode="drain",
        wire_format=True,
        delta_updates=True,
        snapshots=_fleet_snapshots(),
        stream_cycles_per_s=20,
    ),
}


# -- the generated input ------------------------------------------------------

#: One operation: ``("u", pick, (column, value))``, ``("i", None,
#: values)`` or ``("d", pick, None)``.
Op = Tuple[str, Optional[float], object]


@dataclass(frozen=True)
class Cycle:
    #: Index of the base table this cycle writes to.
    base: int
    #: Operations committed before the refresh call.
    ops: Tuple[Op, ...]
    #: Online mode: operations committed at chunk boundaries, in order,
    #: ``boundary_burst`` per boundary.
    boundary_ops: Tuple[Op, ...] = ()


@dataclass(frozen=True)
class Stream:
    #: Initial rows per base table.
    initial: Tuple[Tuple[Tuple[int, int, str], ...], ...]
    cycles: Tuple[Cycle, ...]


def _payload(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_letters, k=S_LEN))


def _row(rng: random.Random, key: int) -> Tuple[int, int, str]:
    return (key, rng.randrange(V_RANGE), _payload(rng))


def generate(workload: Workload, seed: int, cycles: int) -> Stream:
    """The complete, deterministic input of ``cycles`` cycles."""
    rng = random.Random(f"{workload.name}:{seed}")
    next_key = 0
    initial = []
    for _ in range(workload.bases):
        rows = []
        for _ in range(workload.rows):
            rows.append(_row(rng, next_key))
            next_key += 1
        initial.append(tuple(rows))

    def pick() -> float:
        if workload.hotspot is not None:
            ops_share, rows_share, start = workload.hotspot
            if rng.random() < ops_share:
                return start + rng.random() * rows_share
        return rng.random()

    def op() -> Op:
        nonlocal next_key
        draw = rng.random()
        update_share, insert_share, _ = workload.mix
        if draw < update_share:
            if workload.update_columns == "v|s" and rng.random() < 0.5:
                change = ("s", _payload(rng))
            else:
                change = ("v", rng.randrange(V_RANGE))
            return ("u", pick(), change)
        if draw < update_share + insert_share:
            row = _row(rng, next_key)
            next_key += 1
            return ("i", None, row)
        return ("d", pick(), None)

    out = []
    for index in range(cycles):
        ops = tuple(op() for _ in range(workload.ops_per_cycle))
        boundary = tuple(
            op()
            for _ in range(workload.boundary_burst * workload.max_boundaries)
        )
        out.append(Cycle(index % workload.bases, ops, boundary))
    return Stream(tuple(initial), tuple(out))
