"""Set-up, the closed loop, and the oracle.

One :class:`World` is one freshly set-up system: a base site holding
the base tables, a receiver site holding the snapshots, a
:class:`~repro.core.manager.SnapshotManager` and, for the fleet, a
:class:`~repro.core.registry.SnapshotRegistry`.  :func:`run_cycles`
drives it as a single-threaded closed loop: each cycle commits its
operations one public ``Table`` call at a time, then makes one public
refresh call and waits for it to return.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.manager import SnapshotManager
from repro.core.registry import SnapshotRegistry
from repro.database import Database
from repro.storage.rid import Rid

from perfbench import hostspeed
from perfbench.workloads import SCHEMA, Cycle, Op, Stream, Workload

_NAMES = [name for name, _type in SCHEMA]


class World:
    """One set-up instance of a workload.

    Set-up is a few groups of public calls — create the sites, create
    and bulk-load each base table, create each base's snapshots — each
    made through ``step``, which :func:`setup` uses to time them.  The
    benchmark's own bookkeeping runs between the steps.
    """

    def __init__(
        self,
        workload: Workload,
        stream: Stream,
        step: Callable[[Callable[[], Any]], Any],
    ) -> None:
        self.workload = workload
        self.registry: Optional[SnapshotRegistry] = None
        self.bases = []
        #: Per base: snapshot names, in definition order.
        self.snapshots: List[List[str]] = []
        #: Per base: live addresses in address order (the pick domain).
        self.live: List[List[Rid]] = []
        #: Per base: what every live row should hold (the write oracle).
        self.mirror: List[Dict[Rid, Tuple[Any, ...]]] = []
        step(self._create_sites)
        for index, rows in enumerate(stream.initial):
            table, rids = step(functools.partial(self._load, index, rows))
            self.bases.append(table)
            self.live.append(sorted(rids))
            self.mirror.append(dict(zip(rids, rows)))
        for table in self.bases:
            self.snapshots.append(
                step(functools.partial(self._create_snapshots, table))
            )

    def _create_sites(self) -> None:
        self.db = Database("base", buffer_capacity=self.workload.buffer_frames)
        self.remote = Database("receiver")
        self.manager = SnapshotManager(self.db)
        if self.workload.mode == "drain":
            self.registry = SnapshotRegistry(clock=self.db.clock)

    def _load(self, index: int, rows: Sequence[Tuple[Any, ...]]) -> Any:
        table = self.db.create_table(
            f"base{index}", list(SCHEMA), annotations="lazy"
        )
        return table, table.bulk_load(rows)

    def _create_snapshots(self, table: Any) -> List[str]:
        workload = self.workload
        names = []
        for number, definition in enumerate(workload.snapshots):
            name = f"{table.name}_s{number}"
            handle = self.manager.create_snapshot(
                name,
                table.name,
                where=definition.where,
                columns=definition.columns,
                method="differential",
                target_db=self.remote,
                wire_format=workload.wire_format,
                delta_updates=workload.delta_updates,
            )
            if self.registry is not None:
                self.registry.register(
                    name, table.name, every_ops=1,
                    restriction=handle.restriction,
                )
            names.append(name)
        return names

    def channels(self) -> List[Any]:
        return [handle.channel for handle in self.manager.snapshots()]


def setup(workload: Workload, stream: Stream) -> "Tuple[World, float, float]":
    """Build a world; returns it with the seconds its set-up calls took,
    raw and scaled to the reference speed (see :mod:`perfbench.hostspeed`).
    """
    watch = hostspeed.Stopwatch()
    world = World(workload, stream, watch.time)
    return world, watch.raw_ns / 1e9, watch.scaled_ns / 1e9


class Timings:
    """Timed samples of one kind: wall nanoseconds as measured, and the
    same scaled to the reference speed of :mod:`perfbench.hostspeed`."""

    def __init__(self) -> None:
        self.raw: List[int] = []
        self.scaled: List[float] = []

    def add(self, raw: int, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)

    def scale_from(self, first: int, factor: float) -> None:
        """Scale the raw samples from index ``first`` on."""
        self.scaled.extend(ns * factor for ns in self.raw[first:])


class Recorder:
    """Everything the loop measures.

    The host speed is sampled before a cycle's writes, between its
    writes and its refresh call, and after the call; each phase's times
    are scaled by the samples around it.  The samples are not timed.
    """

    def __init__(self) -> None:
        #: One per committed write: the public Table call alone.
        self.write = Timings()
        #: One per refresh call that returned, without the benchmark's
        #: own writes inside it.
        self.refresh = Timings()
        #: One per delivered operation: commit to the delivering
        #: refresh call's return.
        self.lag = Timings()
        #: Loop time, writes and refreshes of every cycle.
        self.loop = Timings()
        #: Per cycle: wall-to-reference factor of the refresh call.
        self.scales: List[float] = []
        self.cycles = 0
        self.ops_delivered = 0
        self.writes_attempted = 0
        self.writes_failed = 0
        self.refreshes_attempted = 0
        self.refreshes_failed = 0
        self.errors: List[str] = []
        #: Per-cycle counters (deterministic under a seed).
        self.per_cycle: List[Dict[str, int]] = []


def _apply(world: World, base: int, op: Op, rec: Recorder,
           commits: List[int]) -> None:
    """Run one generated operation through the public Table API."""
    kind, pick, payload = op
    table = world.bases[base]
    live = world.live[base]
    mirror = world.mirror[base]
    rec.writes_attempted += 1
    clock = time.perf_counter_ns
    if kind != "i":
        index = int(pick * len(live))
        rid = live[index]
    if kind == "u":
        column, value = payload
        changes = {column: value}
    # Only the program's call is inside the handler and the timed span.
    try:
        if kind == "i":
            start = clock()
            rid = table.insert(payload)
            end = clock()
        elif kind == "u":
            start = clock()
            new_rid = table.update(rid, changes)
            end = clock()
        else:
            start = clock()
            table.delete(rid)
            end = clock()
    except Exception as error:  # noqa: BLE001 — a failed write is counted
        rec.writes_failed += 1
        rec.errors.append(f"write {kind}: {error!r}")
        return
    if kind == "i":
        bisect.insort(live, rid)
        mirror[rid] = payload
    elif kind == "u":
        row = list(mirror.pop(rid))
        row[_NAMES.index(column)] = value
        mirror[new_rid] = tuple(row)
        if new_rid != rid:
            del live[index]
            bisect.insort(live, new_rid)
    else:
        del live[index]
        del mirror[rid]
    rec.write.raw.append(end - start)
    commits.append(end)
    if world.registry is not None:
        world.registry.observe(table.name)


def _counters(world: World) -> "Tuple[int, ...]":
    bytes_total = 0
    frames = 0
    for channel in world.channels():
        bytes_total += channel.stats.bytes
        if channel.wire_enabled:
            frames += channel.stats.messages
    shipped = 0
    if world.registry is not None:
        shipped = sum(
            record.entries_shipped for record in world.registry.records()
        )
    stats = world.db.pool.stats
    return bytes_total, frames, stats.hits, stats.misses, shipped


def _boundary_writes(world: World, base: int, ops: Sequence[Op],
                     rec: Recorder, commits: List[int],
                     spent: List[int]) -> None:
    """One chunk boundary's burst of writes, committed mid-refresh.

    Adds the burst's wall nanoseconds, buffer hits and buffer misses to
    ``spent``: they are writes, so the refresh's figures leave them
    out.  A module-level function, so that a traced run gives the burst
    (calls and bookkeeping) a span of its own, outside the refresher's
    self time.
    """
    pool = world.db.pool.stats
    hits, misses = pool.hits, pool.misses
    start = time.perf_counter_ns()
    for op in ops:
        _apply(world, base, op, rec, commits)
    spent[0] += time.perf_counter_ns() - start
    spent[1] += pool.hits - hits
    spent[2] += pool.misses - misses


def _refresh(world: World, cycle: Cycle, rec: Recorder,
             commits: List[int], spent: List[int]) -> List[Any]:
    """One public refresh call; returns its results.

    ``spent`` receives what the benchmark's own writes inside the call
    cost (see :func:`_boundary_writes`).
    """
    workload = world.workload
    manager = world.manager
    base = cycle.base
    if workload.mode == "solo":
        (name,) = world.snapshots[base]
        return [manager.refresh(name)]
    if workload.mode == "online":
        (name,) = world.snapshots[base]
        pending = iter(cycle.boundary_ops)
        burst = workload.boundary_burst

        def boundary(_next_chunk: int) -> None:
            ops = list(itertools.islice(pending, burst))
            if ops:
                _boundary_writes(world, base, ops, rec, commits, spent)

        return [manager.refresh_online(name, on_chunk_boundary=boundary)]
    due = {record.name for record in world.registry.due()}
    drain = manager.drain_registry(world.registry)
    if drain.errors or drain.worker_errors:
        raise RuntimeError(
            f"drain failed: {dict(drain.errors)} {dict(drain.worker_errors)}"
        )
    if drain.refreshed != len(due):
        raise RuntimeError(
            f"drain refreshed {drain.refreshed} of {len(due)} due snapshots"
        )
    return [drain]


def run_cycles(world: World, cycles: Sequence[Cycle], seconds: float,
               min_cycles: int, passes: Optional[List[Any]] = None,
               after_min_cycles: Optional[Callable[[], None]] = None,
               ) -> Recorder:
    """Run cycles until ``seconds`` of loop time passed and at least
    ``min_cycles`` ran (or the stream ends).

    ``passes`` is the list a traced run's group-pass sink appends to;
    each cycle consumes what its drain added.  ``after_min_cycles`` is
    called once, untimed, right after cycle ``min_cycles``.
    """
    rec = Recorder()
    passes = passes if passes is not None else []
    clock = time.perf_counter_ns
    deadline = seconds * 1e9
    pending: List[int] = []
    speed = hostspeed.sample()
    loop_start = clock()
    for cycle in cycles:
        if rec.cycles >= min_cycles and clock() - loop_start >= deadline:
            break
        table = world.bases[cycle.base]
        ops_before = rec.writes_attempted - rec.writes_failed
        first_write = len(rec.write.raw)
        cycle_start = clock()
        for op in cycle.ops:
            _apply(world, cycle.base, op, rec, pending)
        writes_end = clock()
        speed_mid = hostspeed.sample()
        write_scale = hostspeed.scale(speed, speed_mid)
        rec.write.scale_from(first_write, write_scale)
        rec.refreshes_attempted += 1
        # [ns, buffer hits, buffer misses] of writes inside the call.
        spent = [0, 0, 0]
        before = _counters(world)
        start = clock()
        try:
            results = _refresh(world, cycle, rec, pending, spent)
        except Exception as error:  # noqa: BLE001 — a failed refresh is counted
            rec.refreshes_failed += 1
            rec.errors.append(f"refresh: {error!r}")
            results = []
        end = clock()
        after = _counters(world)
        speed_after = hostspeed.sample()
        refresh_scale = hostspeed.scale(speed_mid, speed_after)
        speed = speed_after
        rec.scales.append(refresh_scale)
        rec.cycles += 1
        ops = rec.writes_attempted - rec.writes_failed - ops_before
        # Writes made inside the call (online mode's chunk boundaries).
        rec.write.scale_from(len(rec.write.scaled), refresh_scale)
        writing, calling = writes_end - cycle_start, end - start
        rec.loop.add(
            writing + calling, writing * write_scale + calling * refresh_scale
        )
        if results:
            refresh_ns = calling - spent[0]
            rec.refresh.add(refresh_ns, refresh_ns * refresh_scale)
            for commit in pending:
                if commit < start:
                    # Committed before the call: the sample between the
                    # writes and the call is left out.
                    waited = writes_end - commit
                    rec.lag.add(
                        waited + calling,
                        waited * write_scale + calling * refresh_scale,
                    )
                else:
                    rec.lag.add(end - commit, (end - commit) * refresh_scale)
            rec.ops_delivered += len(pending)
            pending = []
        rec.per_cycle.append(
            _cycle_counters(
                world, table, results, passes, ops, before, after, spent
            )
        )
        passes.clear()
        if rec.cycles == min_cycles and after_min_cycles is not None:
            paused = clock()
            after_min_cycles()
            loop_start += clock() - paused
    return rec


#: Scan counters summed from refresh results into each cycle's record.
_SCAN_FIELDS = (
    "entries_sent",
    "entries_evaluated",
    "rows_decoded",
    "pages_scanned",
    "pages_batch_decoded",
    "pages_repaired",
    "fixup_writes",
)


def _cycle_counters(world: World, table: Any, results: List[Any],
                    passes: List[Any], ops: int,
                    before: Tuple[int, ...], after: Tuple[int, ...],
                    spent: List[int]) -> Dict[str, int]:
    """Deterministic per-cycle counters from public results and stats.

    ``before`` and ``after`` bracket the refresh call; the buffer
    counters leave out the pins of the writes made inside it (``spent``).

    A drain returns no per-snapshot results: its entries come from the
    registry's shipped counts, and its scan counters from the group
    passes captured by the traced run (``passes``; empty untraced).
    """
    out = {
        "ops": ops,
        "bytes": after[0] - before[0],
        "frames": after[1] - before[1],
        "buffer_hits": after[2] - before[2] - spent[1],
        "buffer_misses": after[3] - before[3] - spent[2],
        "heap_pages": table.heap.page_count,
        "snapshot_refreshes": 0,
        "live_row_refreshes": 0,
        "passes": 0,
        "pass_cursors": 0,
    }
    for field in _SCAN_FIELDS:
        out[field] = 0
    if not results:
        return out
    if world.workload.mode == "drain":
        scans = passes
        out["snapshot_refreshes"] = results[0].refreshed
    else:
        scans = results
        out["snapshot_refreshes"] = len(results)
    for scan in scans:
        out["passes"] += 1
        out["pass_cursors"] += scan.group_cursors
        for field in _SCAN_FIELDS:
            out[field] += getattr(scan, field)
    if world.workload.mode == "drain":
        out["entries_sent"] = after[4] - before[4]
    out["live_row_refreshes"] = table.row_count * out["snapshot_refreshes"]
    return out


def verify(world: World) -> "Tuple[int, int, List[str]]":
    """Compare every base table and snapshot with the benchmark's oracle.

    The oracle is the benchmark's own record of what each base row
    holds, filtered by each snapshot's predicate written in plain
    Python and cut to its projection.  Each base table is checked
    against the record first, so a lost write shows even where no
    snapshot selects the row.  Returns (checked, diverged, messages).
    """
    checked = 0
    diverged = 0
    messages: List[str] = []
    for index, table in enumerate(world.bases):
        expected_rows = world.mirror[index]
        checked += 1
        actual_rows = {rid: row.values for rid, row in table.scan()}
        if actual_rows != expected_rows:
            diverged += 1
            messages.append(f"{table.name}: base rows differ from the oracle")
        for name, definition in zip(
            world.snapshots[index], world.workload.snapshots
        ):
            columns = definition.columns or tuple(_NAMES)
            positions = [_NAMES.index(column) for column in columns]
            expected = {
                rid: tuple(row[position] for position in positions)
                for rid, row in expected_rows.items()
                if definition.oracle(row)
            }
            checked += 1
            actual = world.manager.snapshot(name).as_map()
            if actual != expected:
                diverged += 1
                missing = len(expected.keys() - actual.keys())
                extra = len(actual.keys() - expected.keys())
                messages.append(
                    f"{name}: {missing} rows missing, {extra} extra, "
                    f"{len(expected)} expected"
                )
    return checked, diverged, messages
