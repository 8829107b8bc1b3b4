"""Columnar batch pipeline properties: the fast paths change no byte.

Two families of invariants pin the batch hot path introduced for the
A17 experiment:

1. **Codec parity** — ``encode_batch``/``decode_batch`` (one flat
   cursor per frame, schema-specialized generated decoder) are
   byte-identical to the per-message reference paths for arbitrary
   message mixes, compression on and off.

2. **Scan parity** — a refresh scan with ``batch_mode`` on emits
   exactly the message stream of the per-row scan from the same
   ``SnapTime``: same types, same addresses, same values, same modeled
   sizes — for arbitrary workloads, lazy and eager annotations, page
   summaries on and off, solo, group and chunked passes (with writes
   at the chunk boundaries), delete optimization, pure-insert
   suppression and per-column deltas on and off.  It also leaves the
   same bytes in every record and reports the same fix-up counters,
   and serves every scanned page from its batch.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.differential import (
    DifferentialRefresher,
    RefreshCursor,
    ValueCache,
)
from repro.core.group import GroupRefresher
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.net.wire import WireCodec

from tests.properties.test_wire_props import (
    _STREAM_SCHEMA,
    assert_streams_identical,
    message_strategy,
    workload,
)

PREDICATES = ("v < 50", "v >= 20")


class TestBatchCodecParity:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(message_strategy(), min_size=0, max_size=40),
        compress=st.booleans(),
        base_time=st.integers(0, 2**40),
    )
    def test_batch_paths_byte_identical_to_reference(
        self, stream, compress, base_time
    ):
        codec = WireCodec(
            _STREAM_SCHEMA, compress=compress, base_time=base_time
        )
        batch = codec.encode_batch(stream)
        reference = codec.encode_frame_per_message(stream)
        assert batch.data == reference.data
        assert batch.modeled_size == reference.modeled_size
        assert_streams_identical(codec.decode_batch(batch), stream)
        assert_streams_identical(
            codec.decode_frame_per_message(reference), stream
        )


# -- scan parity --------------------------------------------------------------


class _ScanWorld:
    """One replayable world: a base table refreshed by raw scan passes.

    Streams are captured as message-object lists per snapshot, so the
    batch/row comparison sees every transmitted field — not just final
    snapshot state.  After every pass the world also records the pass
    counters the fix-up owns and the stored bytes of every record, so
    the comparison covers what the scan *wrote* as well as what it
    sent.
    """

    def __init__(
        self,
        batch_mode,
        summaries,
        mode,
        group,
        delta,
        opt,
        suppress=False,
        predicates=PREDICATES,
        wide=False,
        page_size=None,
    ):
        self.db = (
            Database("prop-batch", page_size=page_size)
            if page_size
            else Database("prop-batch")
        )
        columns = [("v", "int"), ("w", "int")] if wide else [("v", "int")]
        self.table = self.db.create_table("t", columns, annotations=mode)
        self.wide = wide
        step = 3 if wide else 9
        self.live = [
            self.table.insert(self._values(v)) for v in range(0, 100, step)
        ]
        self.batch_mode = batch_mode
        self.predicates = predicates
        self.summaries = summaries
        self.group = group
        self.delta = delta
        self.refresher = DifferentialRefresher(
            self.table,
            use_page_summaries=summaries,
            batch_mode=batch_mode,
            delta_updates=delta,
            optimize_deletes=opt,
            suppress_pure_inserts=suppress,
        )
        self.group_refresher = GroupRefresher(
            self.table, use_page_summaries=summaries, batch_mode=batch_mode
        )
        self.opt = opt
        self.suppress = suppress
        self.snap_times = [0 for _ in predicates]
        self.caches = [{} for _ in predicates] if summaries else None
        self.value_caches = (
            [ValueCache() for _ in predicates] if delta else None
        )
        self.streams = [[] for _ in predicates]
        #: (fix-up writes, deletions detected, record bytes) per pass.
        self.passes = []

    def _values(self, value):
        return [value, (value * 7 + 3) % 100] if self.wide else [value]

    def _restriction(self, index):
        return Restriction.parse(self.predicates[index], self.table.schema)

    def _checkpoint(self, result):
        if self.batch_mode:
            assert result.pages_batch_decoded == result.pages_scanned
        else:
            assert result.pages_batch_decoded == 0
        self.passes.append(
            (
                result.fixup_writes,
                result.deletions_detected,
                [(rid, body) for rid, body in self.table.heap.scan()],
            )
        )

    def apply(self, op, index, value):
        if op == "insert":
            self.live.append(self.table.insert(self._values(value)))
        elif op == "update" and self.live:
            self.table.update(self.live[index % len(self.live)], {"v": value})
        elif op == "delete" and self.live:
            self.table.delete(self.live.pop(index % len(self.live)))

    def refresh_one(self, index, boundary_writes=None):
        sent = []
        kwargs = dict(
            cache=self.caches[index] if self.summaries else None,
            value_cache=self.value_caches[index] if self.delta else None,
        )
        if boundary_writes is None:
            result = self.refresher.refresh(
                self.snap_times[index],
                self._restriction(index),
                Projection(self.table.schema),
                sent.append,
                **kwargs,
            )
        else:

            def writer(chunk):
                # A committed writer burst at every chunk boundary.
                for op in boundary_writes[:2]:
                    self.apply(*op)
                del boundary_writes[:2]

            result = self.refresher.refresh_chunked(
                self.snap_times[index],
                self._restriction(index),
                Projection(self.table.schema),
                sent.append,
                chunk_pages=1,
                on_chunk_boundary=writer,
                **kwargs,
            )
        self._checkpoint(result)
        if self.delta:
            self.value_caches[index].commit()
        self.snap_times[index] = result.new_snap_time
        self.streams[index].extend(sent)

    def refresh_all(self):
        if not self.group:
            for index in range(len(self.predicates)):
                self.refresh_one(index)
            return
        sents = [[] for _ in self.predicates]
        cursors = [
            RefreshCursor(
                self.snap_times[index],
                self._restriction(index),
                Projection(self.table.schema),
                sents[index].append,
                cache=self.caches[index] if self.summaries else None,
                optimize_deletes=self.opt,
                suppress_pure_inserts=self.suppress,
                name=f"s{index}",
                value_cache=(
                    self.value_caches[index] if self.delta else None
                ),
            )
            for index in range(len(self.predicates))
        ]
        outcome = self.group_refresher.refresh_group(cursors)
        assert not outcome.errors
        self._checkpoint(outcome.pass_result)
        for index, cursor in enumerate(cursors):
            if self.delta:
                self.value_caches[index].commit()
            self.snap_times[index] = cursor.result.new_snap_time
            self.streams[index].extend(sents[index])

    def replay(self, script):
        for op, index, value in script:
            if op == "refresh":
                self.refresh_one(index % len(self.predicates))
            elif op == "refresh_all":
                self.refresh_all()
            elif op == "refresh_chunked":
                # Writes derived from the op itself, so both worlds
                # interleave the same ones.
                self.refresh_one(
                    index % len(self.predicates),
                    boundary_writes=[
                        ("update", index + 1, (value + 11) % 100),
                        ("insert", 0, (value * 3) % 100),
                        ("delete", index * 7, 0),
                        ("update", index + 5, (value + 47) % 100),
                    ],
                )
            else:
                self.apply(op, index, value)
        self.refresh_all()


def run_scan_worlds(script, summaries, mode, group, delta=False, opt=False, **kw):
    row = _ScanWorld(False, summaries, mode, group, delta, opt, **kw)
    batch = _ScanWorld(True, summaries, mode, group, delta, opt, **kw)
    row.replay(script)
    batch.replay(script)
    for row_stream, batch_stream in zip(row.streams, batch.streams):
        assert_streams_identical(batch_stream, row_stream)
    assert len(batch.passes) == len(row.passes)
    for row_pass, batch_pass in zip(row.passes, batch.passes):
        assert batch_pass == row_pass


#: Lazy churn between refreshes, with chunked refreshes whose chunk
#: boundaries admit committed writes.
churn = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "update",
                "delete",
                "refresh",
                "refresh_all",
                "refresh_chunked",
            ]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=40,
)

#: Restrictions over different columns, so a group pass probes a union.
WIDE_PREDICATES = ("v < 50", "w >= 20", "v >= 30 AND w < 80")


class TestScanParity:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_solo_lazy_summaries_on(self, script):
        run_scan_worlds(script, summaries=True, mode="lazy", group=False)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_solo_eager_summaries_off_optimized(self, script):
        run_scan_worlds(
            script, summaries=False, mode="eager", group=False, opt=True
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_group_lazy_summaries_on_delta(self, script):
        run_scan_worlds(
            script, summaries=True, mode="lazy", group=True, delta=True
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_group_eager_summaries_off(self, script):
        run_scan_worlds(script, summaries=False, mode="eager", group=True)


class TestLazyChurnParity:
    """Dirty pages: the batch fix-up writes what the per-row fix-up writes.

    Multi-page lazy tables (small pages) take inserts, updates and
    deletes between refreshes, so nearly every scanned page carries
    NULL annotations, broken chains or boundary anomalies.  The batch
    and per-row scans must agree on the stream, on every record's
    stored bytes after each pass, and on the pass's fix-up counters.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=churn, summaries=st.booleans(), suppress=st.booleans())
    def test_solo(self, script, summaries, suppress):
        run_scan_worlds(
            script,
            summaries=summaries,
            mode="lazy",
            group=False,
            suppress=suppress,
            wide=True,
            predicates=WIDE_PREDICATES,
            page_size=256,
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=churn,
        summaries=st.booleans(),
        suppress=st.booleans(),
        opt=st.booleans(),
    )
    def test_group(self, script, summaries, suppress, opt):
        run_scan_worlds(
            script,
            summaries=summaries,
            mode="lazy",
            group=True,
            opt=opt,
            suppress=suppress,
            wide=True,
            predicates=WIDE_PREDICATES,
            page_size=256,
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=churn, delta=st.booleans())
    def test_chunked_with_interleaved_writer(self, script, delta):
        run_scan_worlds(
            script + [("refresh_chunked", 3, 17)],
            summaries=True,
            mode="lazy",
            group=False,
            delta=delta,
            wide=True,
            predicates=WIDE_PREDICATES,
            page_size=256,
        )
