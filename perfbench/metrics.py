"""End-to-end and per-layer metrics from one run's raw measurements.

A *refresh* below is one public refresh call: ``refresh``,
``refresh_online`` or, on fleet_drain, one ``drain_registry`` that
refreshes the twelve snapshots of the base written that cycle.  Counts
that must repeat exactly under a seed are taken over the workload's
first ``det_cycles`` cycles, which every run makes.

End-to-end times are at the reference speed of
:mod:`perfbench.hostspeed`; ``run.py`` prints the raw wall-clock values
beside them.  Per-layer span times are raw.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.trace import Tracer
from perfbench.world import Recorder, Timings

#: name -> unit, in print order.  ``failed_frac`` is also reported by
#: the result line's ``attempted``/``failed`` keys.
END_TO_END = {
    "changes_per_s": "1/s",
    "refresh_ms_p50": "ms",
    "refresh_ms_p90": "ms",
    "write_us_p50": "us",
    "write_us_p99": "us",
    "lag_ms_p50": "ms",
    "lag_ms_p90": "ms",
    "sent_pct": "%",
    "bytes_per_change": "B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: End-to-end metrics on the result line: ``failed_frac`` reads 0 on a
#: healthy run, so it travels as the line's ``attempted``/``failed``.
REPORTED_END_TO_END = [name for name in END_TO_END if name != "failed_frac"]

#: name -> unit.  The comment names the end-to-end metric and workload
#: each one should move; fleet_drain's "refresh" is one drain.
PER_LAYER = {
    # write_us_p50 on hotspot_online
    "table.write_self_us": "us",
    # Page.reclaimable shows here: write_us_p50 on hotspot_online,
    # refresh_ms_p50 on uniform_cold and fleet_drain.
    "storage.heap_write_us": "us",
    "storage.heap_write_ms.user": "ms",
    "storage.heap_write_ms.fixup": "ms",
    "storage.heap_write_ms.receiver": "ms",
    # refresh_ms_p50 on uniform_cold
    "storage.page_read_ms": "ms",
    "storage.buffer_hit_rate": "ratio",
    "storage.buffer_misses_per_refresh": "count",
    # refresh_ms_p50 on hotspot_online
    "storage.pages_scanned_frac": "ratio",
    "storage.batch_pages_frac": "ratio",
    # The count(*) floor every refresh is normalised to.
    "storage.bare_scan_ms": "ms",
    # Per-row decode: refresh_ms_p50 on uniform_cold
    "differential.self_ms": "ms",
    "differential.floor_ratio": "ratio",
    "differential.rows_decoded_per_page": "count",
    # refresh_ms_p50 on uniform_cold
    "differential.fixup_ms": "ms",
    "differential.fixup_writes_per_change": "count",
    # refresh_ms_p50 on hotspot_online
    "differential.pages_repaired_per_refresh": "count",
    # refresh_ms_p50 on fleet_drain
    "expr.predicate_ms": "ms",
    "expr.evals_per_row": "count",
    # changes_per_s on fleet_drain; zero on hotspot_online (objects)
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "channel.bytes_per_entry": "B",
    "channel.frames_per_refresh": "count",
    # refresh_ms_p50 on fleet_drain
    "snapshot.apply_self_ms": "ms",
    # refresh_ms_p50 on hotspot_online
    "txn.lock_ms": "ms",
    # write_us_p50 on every workload
    "txn.wal_append_us": "us",
    # changes_per_s on fleet_drain
    "group.cursors_per_pass": "count",
    "group.pages_per_snapshot": "count",
    "registry.claim_ms": "ms",
    "registry.observe_us": "us",
    # refresh_ms_p50 on every workload
    "manager.self_ms": "ms",
    # Traced against untraced changes_per_s over the same cycles.
    "trace.overhead_pct": "%",
}


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); median for 50.

    0 when there are no samples (every call failed; the run reports
    itself failed through its ``failed`` count).
    """
    if not values:
        return 0.0
    if pct == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(cycles: List[Dict[str, int]], field: str) -> int:
    return sum(cycle[field] for cycle in cycles)


def changes_per_s(rec: Recorder, scaled: bool = True) -> float:
    loop = rec.loop.scaled if scaled else rec.loop.raw
    return _ratio(rec.ops_delivered, sum(loop) / 1e9)


def timing(rec: Recorder, scaled: bool = True) -> Dict[str, float]:
    """The loop's timed end-to-end metrics, at the reference speed or
    (``scaled=False``) as the wall clock read them."""

    def samples(timings: Timings) -> List[float]:
        return timings.scaled if scaled else timings.raw

    return {
        "changes_per_s": changes_per_s(rec, scaled),
        "refresh_ms_p50": percentile(samples(rec.refresh), 50) / 1e6,
        "refresh_ms_p90": percentile(samples(rec.refresh), 90) / 1e6,
        "write_us_p50": percentile(samples(rec.write), 50) / 1e3,
        "write_us_p99": percentile(samples(rec.write), 99) / 1e3,
        "lag_ms_p50": percentile(samples(rec.lag), 50) / 1e6,
        "lag_ms_p90": percentile(samples(rec.lag), 90) / 1e6,
    }


def end_to_end(
    rec: Recorder,
    setup_seconds: Sequence[float],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
    det_cycles: int,
) -> Dict[str, float]:
    """Every end-to-end metric; ``setup_seconds`` are reference-speed
    seconds of the run's set-ups."""
    det = rec.per_cycle[:det_cycles]
    values = timing(rec)
    values.update(
        {
            "sent_pct": 100.0
            * _ratio(
                _sum(det, "entries_sent"), _sum(det, "live_row_refreshes")
            ),
            "bytes_per_change": _ratio(_sum(det, "bytes"), _sum(det, "ops")),
            "setup_s": float(statistics.median(setup_seconds)),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": _ratio(failed, attempted),
        }
    )
    return {name: values[name] for name in END_TO_END}


def per_layer(
    tracer: Tracer,
    rec: Recorder,
    bare_scan_ms: float,
    untraced_changes_per_s: float,
    det_cycles: int,
) -> Dict[str, float]:
    cycles = rec.per_cycle
    det = cycles[:det_cycles]
    refreshes = rec.refreshes_attempted - rec.refreshes_failed
    writes = rec.writes_attempted - rec.writes_failed
    ops = _sum(cycles, "ops")
    passes = _sum(cycles, "passes")
    pages_scanned = _sum(cycles, "pages_scanned")
    hits = _sum(cycles, "buffer_hits")
    misses = _sum(cycles, "buffer_misses")

    def ms_per_refresh(total_ns: float) -> float:
        return _ratio(total_ns, refreshes) / 1e6

    refresher_ns = tracer.total_ns("differential.refresh") + tracer.total_ns(
        "group.refresh"
    )
    refresher_self_ns = tracer.self_ns("differential.refresh") + tracer.self_ns(
        "group.refresh"
    )
    refresher_spans = tracer.count("differential.refresh") + tracer.count(
        "group.refresh"
    )
    heap = "storage.heap_write"
    return {
        "table.write_self_us": _ratio(
            tracer.self_ns("table.write"), tracer.count("table.write")
        )
        / 1e3,
        "storage.heap_write_us": _ratio(
            tracer.total_ns(heap), tracer.count(heap)
        )
        / 1e3,
        "storage.heap_write_ms.user": _ratio(
            tracer.context_ns(heap, "user"), rec.cycles
        )
        / 1e6,
        "storage.heap_write_ms.fixup": _ratio(
            tracer.context_ns(heap, "fixup"), rec.cycles
        )
        / 1e6,
        "storage.heap_write_ms.receiver": _ratio(
            tracer.context_ns(heap, "receiver"), rec.cycles
        )
        / 1e6,
        "storage.page_read_ms": ms_per_refresh(
            tracer.total_ns("storage.page_read")
        ),
        "storage.buffer_hit_rate": _ratio(hits, hits + misses),
        "storage.buffer_misses_per_refresh": _ratio(misses, refreshes),
        "storage.pages_scanned_frac": _ratio(
            pages_scanned, _sum(cycles, "heap_pages")
        ),
        "storage.batch_pages_frac": _ratio(
            _sum(cycles, "pages_batch_decoded"), pages_scanned
        ),
        "storage.bare_scan_ms": bare_scan_ms,
        "differential.self_ms": ms_per_refresh(refresher_self_ns),
        "differential.floor_ratio": _ratio(
            _ratio(refresher_ns, refresher_spans) / 1e6, bare_scan_ms
        ),
        "differential.rows_decoded_per_page": _ratio(
            _sum(cycles, "rows_decoded"), pages_scanned
        ),
        "differential.fixup_ms": ms_per_refresh(
            tracer.total_ns("differential.fixup")
        ),
        "differential.fixup_writes_per_change": _ratio(
            _sum(det, "fixup_writes"), _sum(det, "ops")
        ),
        "differential.pages_repaired_per_refresh": _ratio(
            _sum(cycles, "pages_repaired"), refreshes
        ),
        "expr.predicate_ms": ms_per_refresh(tracer.total_ns("expr.predicate")),
        "expr.evals_per_row": _ratio(
            _sum(cycles, "entries_evaluated"), _sum(cycles, "rows_decoded")
        ),
        "wire.encode_ms": ms_per_refresh(tracer.total_ns("wire.encode")),
        "wire.decode_ms": ms_per_refresh(tracer.total_ns("wire.decode")),
        "channel.bytes_per_entry": _ratio(
            _sum(cycles, "bytes"), _sum(cycles, "entries_sent")
        ),
        "channel.frames_per_refresh": _ratio(_sum(cycles, "frames"), refreshes),
        "snapshot.apply_self_ms": ms_per_refresh(
            tracer.self_ns("snapshot.apply")
        ),
        "txn.lock_ms": ms_per_refresh(tracer.context_ns("txn.lock", "refresh")),
        "txn.wal_append_us": _ratio(tracer.context_ns("txn.wal", "user"), writes)
        / 1e3,
        "group.cursors_per_pass": _ratio(_sum(cycles, "pass_cursors"), passes),
        "group.pages_per_snapshot": _ratio(
            pages_scanned, _sum(cycles, "pass_cursors")
        ),
        "registry.claim_ms": ms_per_refresh(tracer.total_ns("registry.claim")),
        "registry.observe_us": _ratio(tracer.total_ns("registry.observe"), ops)
        / 1e3,
        # The public call minus the refresher inside it: lock hand-off,
        # epoch begin/commit and value-cache commit stay in.
        "manager.self_ms": ms_per_refresh(
            tracer.total_ns("manager.refresh") - refresher_ns
        ),
        "trace.overhead_pct": 100.0
        * (_ratio(untraced_changes_per_s, changes_per_s(rec)) - 1.0),
    }
