"""One benchmark run: generate, set up, loop, check, measure.

:func:`run_workload` is what ``run.py`` calls; the tests call it on
scaled-down workloads.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.expr.predicate import Restriction
from repro.net import wirebatch

from perfbench import metrics
from perfbench.trace import Tracer, install
from perfbench.workloads import Stream, Workload, generate
from perfbench.world import World, run_cycles, setup, verify

#: Of an untraced run's ``Workload.setups`` set-ups, those made before
#: the loop (the last one is looped); the rest follow it.  The host's
#: speed changes in phases of seconds, so the samples are split around
#: the loop, not taken back to back.
SETUP_RUNS_BEFORE = 3
#: Bare ``Table.scan()`` repetitions for ``storage.bare_scan_ms``.
BARE_SCANS = 5


@dataclass
class Outcome:
    #: End-to-end metrics (untraced) or per-layer metrics (traced).
    values: Dict[str, float]
    correct: bool
    attempted: int
    failed: int
    #: Write/refresh errors and oracle divergences, for stderr.
    messages: List[str]
    #: Untraced: the timed metrics as the wall clock read them, and the
    #: host's median wall-to-reference factor, printed for reference.
    raw: Dict[str, float] = field(default_factory=dict)


def _current_rss() -> int:
    """Resident bytes of this process now (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return 0
    return pages * resource.getpagesize()


def _peak_rss() -> int:
    """Peak resident bytes of this process so far."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def fresh_setup(
    workload: Workload, stream: Stream
) -> "tuple[World, float, float]":
    """One timed set-up that pays every cost a new process would.

    The restriction parse memo and the wire decoder's code cache are
    per-process caches that a user's first set-up fills; both are
    emptied so every sample pays them, and garbage from earlier samples
    is collected first so no sample inherits another's collector work.
    """
    Restriction.clear_parse_cache()
    wirebatch._CODE_CACHE.clear()
    gc.collect()
    return setup(workload, stream)


def bare_scan_ms(world: World) -> float:
    """Median wall time of one plain ``Table.scan()`` per base table."""
    samples = []
    for _ in range(BARE_SCANS):
        start = time.perf_counter_ns()
        for table in world.bases:
            for _row in table.scan():
                pass
        samples.append((time.perf_counter_ns() - start) / len(world.bases))
    return statistics.median(samples) / 1e6


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_path: Optional[Path] = None,
) -> Outcome:
    """Run ``workload`` under ``seed`` for ``seconds`` of loop time.

    Untraced, the outcome holds the end-to-end metrics.  Traced, the
    same cycles run a second time on a fresh set-up with the span
    wrappers installed, and the outcome holds the per-layer metrics;
    the spans go to ``trace_path`` when one is given.
    """
    det_cycles = workload.det_cycles
    setup_runs = workload.setups
    cycles = max(det_cycles, math.ceil(seconds * workload.stream_cycles_per_s))
    stream = generate(workload, seed, cycles)
    # The generated input is the benchmark's, not the program's: keep
    # the collector from re-walking it during every timed phase, and
    # leave it out of the memory the program is charged with.
    gc.freeze()
    try:
        baseline_rss = _current_rss()
        # (raw, scaled) seconds per set-up.
        setup_seconds = []
        world = None
        before = 1 if trace else min(setup_runs, SETUP_RUNS_BEFORE)
        for _ in range(before):
            world = None
            world, *elapsed = fresh_setup(workload, stream)
            setup_seconds.append(elapsed)
        # Memory is read at the end of the deterministic prefix: the log
        # grows with every write, so a peak taken at the deadline would
        # measure how many cycles this machine managed.
        peak_rss = [0]

        def read_peak() -> None:
            peak_rss[0] = _peak_rss()

        rec = run_cycles(
            world, stream.cycles, seconds, det_cycles,
            after_min_cycles=read_peak,
        )
        checked, diverged, messages = verify(world)
        messages = rec.errors[:10] + messages
        attempted = rec.writes_attempted + rec.refreshes_attempted + checked
        failed = rec.writes_failed + rec.refreshes_failed + diverged
        if not trace:
            world = None
            for _ in range(setup_runs - before):
                setup_seconds.append(fresh_setup(workload, stream)[1:])
            peak_rss_mb = (peak_rss[0] - baseline_rss) / 2**20
            values = metrics.end_to_end(
                rec,
                [scaled for _raw, scaled in setup_seconds],
                peak_rss_mb,
                attempted,
                failed,
                det_cycles,
            )
            raw = metrics.timing(rec, scaled=False)
            raw["setup_s"] = statistics.median(
                wall for wall, _scaled in setup_seconds
            )
            raw["host_scale"] = statistics.median(rec.scales)
            return Outcome(
                values, diverged == 0, attempted, failed, messages, raw
            )

        untraced_cps = metrics.changes_per_s(rec)
        floor_ms = bare_scan_ms(world)
        world = None
        tracer = Tracer()
        passes: list = []
        installation = install(
            tracer,
            sinks={
                "GroupRefresher.refresh_group": lambda outcome: passes.append(
                    outcome.pass_result
                )
            },
        )
        try:
            world, *_elapsed = fresh_setup(workload, stream)
            tracer.reset()
            passes.clear()
            traced = run_cycles(
                world, stream.cycles[: rec.cycles], 0.0, rec.cycles, passes
            )
        finally:
            installation.uninstall()
        checked2, diverged2, messages2 = verify(world)
        messages += [f"traced: {m}" for m in traced.errors[:10] + messages2]
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(str(trace_path))
        values = metrics.per_layer(
            tracer, traced, floor_ms, untraced_cps, det_cycles
        )
        attempted += traced.writes_attempted + traced.refreshes_attempted + checked2
        failed += traced.writes_failed + traced.refreshes_failed + diverged2
        return Outcome(
            values, diverged == 0 and diverged2 == 0, attempted, failed, messages
        )
    finally:
        gc.unfreeze()
