"""A17 — columnar batch hot path: batch codec and batch scan vs per-row.

PR 6 rewrites the two inner loops that dominated profiles: the wire
codec decodes a whole frame through one generated flat-cursor pass
(``net/wirebatch.py``) instead of one ``_decode_one`` call per message,
and the refresh scan serves eligible pages from a cached columnar
:class:`~repro.storage.batch.PageBatch` instead of decoding a
``_LazyEntry`` per record.  Both rewrites are pinned byte-identical to
the per-row reference paths by hypothesis properties; this bench
measures what the identity tests cannot — that the batch paths are
actually *faster*:

- **codec**: encode/decode throughput of ``encode_batch``/``decode_batch``
  against the reference ``encode_frame_per_message``/
  ``decode_frame_per_message`` over the A16 synthetic entry stream
  (same machine, same process, so the ratio is hardware-independent);
- **scan**: refresh rows/s with ``batch_mode`` on vs off over a
  clustered-update workload on an eager-annotated table, asserting the
  message streams agree round for round;
- **dirty scan**: the same comparison on a lazy table with 5% uniform
  writes (60/20/20 update/insert/delete) between refreshes, so nearly
  every page carries NULL annotations or chain anomalies and the scan
  repairs as it goes (Figure 7).  Streams and fix-up counters must
  agree round for round; rows/s is reported, not gated.

The acceptance ratios are ≥5x codec decode and ≥3x scan throughput.
Absolute numbers land in ``BENCH_refresh.json`` under
``batch_hot_path`` together with a regression floor (half the recorded
decode rate); when the section already exists, the current run must
beat the recorded floor — CI smoke-runs this file so a revert to
per-message decode speed fails the build even though every
byte-identity test would still pass.

Runs as a pytest benchmark and as a plain script; ``BATCH_N`` overrides
the scan table size (the codec stream stays at 20k messages so the
recorded throughput is comparable across runs).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

if __package__ in (None, ""):  # script mode: `python benchmarks/bench_batch.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.differential import DifferentialRefresher
from repro.core.messages import EntryMessage
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.net.wire import WireCodec
from repro.relation.row import Row, encode_row
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType, StringType
from repro.storage.rid import Rid

from benchmarks._util import REPO_ROOT, emit, emit_json

N = int(os.environ.get("BATCH_N", "12000"))
#: Messages per codec timing run — fixed so recorded msgs/s compare
#: across runs; frames match A16's batching factor.
CODEC_MESSAGES = 20_000
FRAME_SIZE = 64
REPEATS = 15
#: Clustered update activity between timed refresh rounds.
SCAN_ROUNDS = 4
SCAN_FRACTION = 0.01
#: Uniform lazy write activity between dirty-scan rounds, and its
#: (update, insert, delete) mix.
DIRTY_FRACTION = 0.05
DIRTY_MIX = (0.6, 0.2, 0.2)
SEED = 1986

#: PR-4 recorded wire decode rate (BENCH_refresh.json at the time the
#: issue was filed) — the "~122k msgs/s" the ≥5x target is quoted
#: against.  Kept as a constant because re-running bench_wire now
#: overwrites that section with post-batch numbers.
PR4_DECODE_MSGS_PER_S = 122_059.9


def _schema() -> Schema:
    # The A16 accounts-style row, reused so codec numbers line up.
    return Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType()),
            Column("balance", IntType()),
            Column("branch", IntType()),
            Column("v", IntType()),
        ]
    )


def _best_interleaved(fns, repeats: int = REPEATS) -> "list[float]":
    """Best-of-N wall time per function, rounds interleaved.

    The minimum is the least noisy estimator, and interleaving the
    candidates round-robin means a slow system window (this runs in
    shared containers) penalizes all of them alike — the *ratios* stay
    honest even when absolute numbers wobble.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            begin = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - begin)
    return [max(value, 1e-9) for value in best]


def _codec_throughput(n_messages: int = CODEC_MESSAGES) -> dict:
    """Batch vs per-message codec rates over the A16 entry stream."""
    schema = _schema()
    codec = WireCodec(schema)
    messages = []
    prev = Rid.BEGIN
    for i in range(n_messages):
        rid = Rid(i // 40, i % 40)
        values = (i, f"name-{i:05d}", i * 100, i % 13, i % 97)
        value_bytes = len(encode_row(schema, Row(values)))
        messages.append(EntryMessage(rid, prev, values, value_bytes))
        prev = rid
    chunks = [
        messages[i : i + FRAME_SIZE]
        for i in range(0, len(messages), FRAME_SIZE)
    ]

    frames = [codec.encode_batch(chunk) for chunk in chunks]
    reference = [codec.encode_frame_per_message(chunk) for chunk in chunks]
    for batch_frame, ref_frame in zip(frames, reference):
        assert batch_frame.data == ref_frame.data, (
            "batch encoder diverged from the per-message reference"
        )
    assert [repr(m) for m in codec.decode_batch(frames[0])] == [
        repr(m) for m in codec.decode_frame_per_message(frames[0])
    ]

    # Discarding loops, as in A16's `_throughput`: a comprehension would
    # keep every decoded message alive and time the GC, not the codec.
    def encode_all() -> None:
        for chunk in chunks:
            codec.encode_batch(chunk)

    def encode_ref_all() -> None:
        for chunk in chunks:
            codec.encode_frame_per_message(chunk)

    def decode_all() -> None:
        for frame in frames:
            codec.decode_batch(frame)

    def decode_ref_all() -> None:
        for frame in frames:
            codec.decode_frame_per_message(frame)

    encode_batch_s, encode_ref_s, decode_batch_s, decode_ref_s = (
        _best_interleaved([encode_all, encode_ref_all, decode_all, decode_ref_all])
    )

    payload = sum(frame.wire_size() for frame in frames)
    decode_rate = n_messages / decode_batch_s
    return {
        "messages": n_messages,
        "frame_size": FRAME_SIZE,
        "encoded_bytes": payload,
        "encode_msgs_per_s": n_messages / encode_batch_s,
        "encode_ref_msgs_per_s": n_messages / encode_ref_s,
        "encode_speedup": encode_ref_s / encode_batch_s,
        "decode_msgs_per_s": decode_rate,
        "decode_ref_msgs_per_s": n_messages / decode_ref_s,
        "decode_speedup": decode_ref_s / decode_batch_s,
        "decode_mb_per_s": payload / decode_batch_s / 1e6,
        "pr4_decode_msgs_per_s": PR4_DECODE_MSGS_PER_S,
        "vs_pr4": decode_rate / PR4_DECODE_MSGS_PER_S,
        # Regression floor for CI: half the recorded rate absorbs
        # machine-to-machine variance while still catching a fall back
        # to per-message speed (a ~6x drop).
        "floor_decode_msgs_per_s": int(decode_rate / 2),
    }


def _scan_mode(n: int, batch_mode: bool):
    """Refresh rounds over a clustered-update workload, one scan mode.

    Eager annotations keep every page free of NULL annotation fields,
    so in batch mode every page is batch-eligible; summaries stay off
    for the *skip* logic so each refresh really walks all n rows — the
    quantity being measured is scan cost per row, not pages avoided
    (that is A13's subject).
    """
    db = Database("bench", buffer_capacity=1024)
    table = db.create_table("t", _schema(), annotations="eager")
    rids = [
        table.insert([i, f"name-{i:05d}", i * 100, i % 13, i % 97])
        for i in range(n)
    ]
    restriction = Restriction.parse("v < 1000000000", table.schema)
    projection = Projection(table.schema)
    refresher = DifferentialRefresher(
        table, use_page_summaries=False, batch_mode=batch_mode
    )
    first = refresher.refresh(0, restriction, projection, lambda m: None)
    snap_time = first.new_snap_time

    rng = random.Random(SEED)
    count = max(1, int(n * SCAN_FRACTION))
    elapsed = 0.0
    streams = []
    result = first
    for _ in range(SCAN_ROUNDS):
        start = rng.randrange(0, n - count + 1)
        for rid in rids[start : start + count]:
            table.update(rid, {"v": rng.randrange(1_000_000)})
        messages: list = []
        begin = time.perf_counter()
        result = refresher.refresh(
            snap_time, restriction, projection, messages.append
        )
        elapsed += time.perf_counter() - begin
        snap_time = result.new_snap_time
        streams.append([repr(m) for m in messages])
    return elapsed, result, streams


def _scan_throughput(n: int) -> dict:
    t_row, r_row, s_row = _scan_mode(n, batch_mode=False)
    t_batch, r_batch, s_batch = _scan_mode(n, batch_mode=True)
    # Same seed, same updates: the refresh streams must agree per round.
    assert s_batch == s_row, "batch-mode stream diverged from row mode"
    rows_scanned = SCAN_ROUNDS * n
    return {
        "n": n,
        "rounds": SCAN_ROUNDS,
        "fraction": SCAN_FRACTION,
        "seconds_row": t_row,
        "seconds_batch": t_batch,
        "rows_per_sec_row": rows_scanned / t_row,
        "rows_per_sec_batch": rows_scanned / t_batch,
        "speedup": t_row / t_batch if t_batch else float("inf"),
        # Last-round counters: in batch mode every page should be
        # batch-served and (bar the updated cluster) reused from the
        # buffer-pool batch cache.
        "pages_scanned": r_batch.pages_scanned,
        "pages_batch_decoded": r_batch.pages_batch_decoded,
        "batches_reused": r_batch.batches_reused,
        "rows_materialized": r_batch.rows_materialized,
        "rows_decoded_row": r_row.rows_decoded,
        "rows_decoded_batch": r_batch.rows_decoded,
    }


def _dirty_scan_mode(n: int, batch_mode: bool):
    """Refresh rounds over uniform lazy writes, one scan mode.

    Summaries stay off so every refresh walks every page; the writes
    leave NULL annotations and broken chains on nearly all of them, so
    what is timed is the combined fix-up + refresh pass.
    """
    db = Database("bench-dirty", buffer_capacity=1024)
    table = db.create_table("t", _schema(), annotations="lazy")
    live = table.bulk_load(
        [[i, f"name-{i:05d}", i * 100, i % 13, i % 97] for i in range(n)]
    )
    restriction = Restriction.parse("v < 10", table.schema)
    projection = Projection(table.schema)
    refresher = DifferentialRefresher(
        table, use_page_summaries=False, batch_mode=batch_mode
    )
    first = refresher.refresh(0, restriction, projection, lambda m: None)
    snap_time = first.new_snap_time

    rng = random.Random(SEED)
    writes = max(1, int(n * DIRTY_FRACTION))
    elapsed = 0.0
    scanned = 0
    rounds = []
    result = first
    for _ in range(SCAN_ROUNDS):
        for _ in range(writes):
            roll = rng.random()
            if roll < DIRTY_MIX[0]:
                table.update(
                    live[rng.randrange(len(live))], {"v": rng.randrange(97)}
                )
            elif roll < DIRTY_MIX[0] + DIRTY_MIX[1]:
                i = n + rng.randrange(n)
                live.append(
                    table.insert([i, f"name-{i:05d}", i, i % 13, rng.randrange(97)])
                )
            else:
                table.delete(live.pop(rng.randrange(len(live))))
        messages: list = []
        begin = time.perf_counter()
        result = refresher.refresh(
            snap_time, restriction, projection, messages.append
        )
        elapsed += time.perf_counter() - begin
        snap_time = result.new_snap_time
        scanned += result.scanned
        rounds.append(
            (
                [repr(m) for m in messages],
                result.fixup_writes,
                result.deletions_detected,
            )
        )
    return elapsed, scanned, result, rounds


def _dirty_scan_throughput(n: int) -> dict:
    t_row, scanned_row, r_row, rounds_row = _dirty_scan_mode(n, False)
    t_batch, scanned_batch, r_batch, rounds_batch = _dirty_scan_mode(n, True)
    # Same seed, same writes: streams and fix-up work agree per round.
    assert rounds_batch == rounds_row, "dirty batch scan diverged from row mode"
    assert scanned_batch == scanned_row
    assert r_batch.pages_batch_decoded == r_batch.pages_scanned, r_batch
    return {
        "n": n,
        "rounds": SCAN_ROUNDS,
        "write_fraction": DIRTY_FRACTION,
        "mix": list(DIRTY_MIX),
        "seconds_row": t_row,
        "seconds_batch": t_batch,
        "rows_per_sec_row": scanned_row / t_row,
        "rows_per_sec_batch": scanned_batch / t_batch,
        "speedup": t_row / t_batch if t_batch else float("inf"),
        # Last-round counters: every page batch-served, none reusable
        # (each was written since the previous refresh).
        "pages_scanned": r_batch.pages_scanned,
        "pages_batch_decoded": r_batch.pages_batch_decoded,
        "batches_reused": r_batch.batches_reused,
        "fixup_writes": r_batch.fixup_writes,
        "deletions_detected": r_batch.deletions_detected,
        "rows_decoded_row": r_row.rows_decoded,
        "rows_decoded_batch": r_batch.rows_decoded,
    }


def _recorded_floor() -> "float | None":
    """The decode floor recorded by the last full run, if any."""
    path = os.path.join(REPO_ROOT, "BENCH_refresh.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    section = data.get("batch_hot_path")
    if not isinstance(section, dict):
        return None
    throughput = section.get("throughput", {})
    floor = throughput.get("floor_decode_msgs_per_s")
    return float(floor) if floor else None


def _check(throughput: dict, scan: dict, n: int, floor: "float | None") -> None:
    # Machine-independent guard: the generated decoder must stay well
    # clear of per-message speed.  (The per-message reference itself got
    # ~30% faster in this PR from the shared varint tables, so the
    # same-session ratio understates the gain over the PR-4 decoder.)
    assert throughput["decode_speedup"] >= 4, (
        f"batch decode only {throughput['decode_speedup']:.1f}x the "
        f"per-message reference (floor 4x)"
    )
    assert throughput["encode_speedup"] >= 1, throughput["encode_speedup"]
    if floor is not None:
        assert throughput["decode_msgs_per_s"] >= floor, (
            f"decode throughput {throughput['decode_msgs_per_s']:,.0f} "
            f"msgs/s fell below the recorded floor {floor:,.0f}"
        )
    if n >= 8_000:
        # Absolute sanity bound on full-size runs.  The acceptance
        # number (>= 5x the PR-4 recorded 122k msgs/s) is the *recorded*
        # best-of-N in BENCH_refresh.json; a hard 5x here would flake
        # with container load, so the in-run bound allows for a heavily
        # loaded machine while still catching a real regression to
        # per-message speed.
        assert throughput["vs_pr4"] >= 3, (
            f"decode {throughput['decode_msgs_per_s']:,.0f} msgs/s is only "
            f"{throughput['vs_pr4']:.1f}x the PR-4 baseline (sanity bound 3x)"
        )
    assert scan["pages_batch_decoded"] > 0, scan
    assert scan["batches_reused"] > 0, scan
    # Batch pages decode full rows only for transmitted entries.
    assert scan["rows_decoded_batch"] < scan["rows_decoded_row"], scan
    # Wall time is only trustworthy at realistic sizes.
    if n >= 8_000:
        assert scan["speedup"] >= 3, (
            f"batch scan only {scan['speedup']:.1f}x row mode (target >= 3x)"
        )


def run(n: int = N):
    floor = _recorded_floor()
    throughput = _codec_throughput()
    scan = _scan_throughput(n)
    dirty = _dirty_scan_throughput(n)
    emit(
        "batch_hot_path",
        f"A17: batch vs per-row hot paths (codec {CODEC_MESSAGES} msgs, "
        f"scan N={n} x {SCAN_ROUNDS} rounds)",
        ["path", "per-row/msg", "batch", "speedup"],
        [
            [
                "codec encode msgs/s",
                f"{throughput['encode_ref_msgs_per_s']:,.0f}",
                f"{throughput['encode_msgs_per_s']:,.0f}",
                f"{throughput['encode_speedup']:.1f}x",
            ],
            [
                "codec decode msgs/s",
                f"{throughput['decode_ref_msgs_per_s']:,.0f}",
                f"{throughput['decode_msgs_per_s']:,.0f}",
                f"{throughput['decode_speedup']:.1f}x",
            ],
            [
                "scan rows/s",
                f"{scan['rows_per_sec_row']:,.0f}",
                f"{scan['rows_per_sec_batch']:,.0f}",
                f"{scan['speedup']:.1f}x",
            ],
            [
                f"dirty scan rows/s ({DIRTY_FRACTION:.0%} writes)",
                f"{dirty['rows_per_sec_row']:,.0f}",
                f"{dirty['rows_per_sec_batch']:,.0f}",
                f"{dirty['speedup']:.1f}x",
            ],
        ],
    )
    print(
        f"decode {throughput['decode_msgs_per_s']:,.0f} msgs/s "
        f"({throughput['decode_mb_per_s']:.1f} MB/s), "
        f"{throughput['vs_pr4']:.1f}x the PR-4 recorded rate; "
        f"scan reuse {scan['batches_reused']}/{scan['pages_batch_decoded']} "
        f"pages, {scan['rows_materialized']} rows materialized"
    )
    emit_json(
        "batch_hot_path",
        {"throughput": throughput, "scan": scan, "scan_dirty": dirty},
    )
    _check(throughput, scan, n, floor)
    return {"throughput": throughput, "scan": scan, "scan_dirty": dirty}


def test_batch_hot_path():
    run(N)


if __name__ == "__main__":
    run(N)
