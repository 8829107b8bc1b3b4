"""Span tracing from outside the program, for the traced run only.

:func:`install` replaces the public methods each layer exposes with
timing wrappers and :func:`uninstall` puts the originals back; nothing
in ``src/`` is edited, and an untraced run never installs anything.

Each wrapped call is a span: name, start, end, parent and the id of the
request it belongs to.  A call made while no span is open starts a new
request, so every span of one refresh shares the id of its public call.
A span's self time is its duration minus the part its child spans
cover; the tracer keeps, per span name, the count, the total duration
and the self time, and per ``(name, context)`` the count and total,
where the context is the nearest enclosing user write, fix-up, receiver
apply or refresh call.

Spans live in memory and are written out by :meth:`Tracer.dump`.  Leaf
spans that run per row or per write (predicate evaluation, heap reads,
locks, WAL appends, registry observes) are folded: instead of one record
each, their parent carries one ``(name, count, total)`` record per leaf
name.
"""

from __future__ import annotations

import gzip
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Context labels: a span with one of these names sets the context of
#: everything under it.
CONTEXTS = {
    "table.write": "user",
    "differential.fixup": "fixup",
    "snapshot.apply": "receiver",
    "manager.refresh": "refresh",
}

#: Leaf spans aggregated into their parent instead of stored one by one.
FOLDED = frozenset(
    {
        "expr.predicate",
        "storage.heap_read",
        "txn.lock",
        "txn.wal",
        "registry.observe",
    }
)


class Tracer:
    """In-memory span recorder with running per-name aggregates."""

    def __init__(self) -> None:
        #: Stored spans: (span_id, parent_id, request_id, name, start, end).
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        #: Folded leaves: (parent_id, name) -> [count, total_ns].
        self.folded: Dict[Tuple[int, str], List[int]] = {}
        #: name -> [count, total_ns, self_ns].
        self.totals: Dict[str, List[int]] = {}
        #: (name, context) -> [count, total_ns].
        self.by_context: Dict[Tuple[str, str], List[int]] = {}
        # Open spans: [span_id, name, start, child_ns, context, request].
        self._stack: List[List[Any]] = []
        self._next_span = 1
        self._next_request = 1

    def reset(self) -> None:
        """Forget everything recorded so far (spans must all be closed)."""
        self.spans.clear()
        self.folded.clear()
        self.totals.clear()
        self.by_context.clear()

    def open(self, name: str) -> List[Any]:
        stack = self._stack
        if stack:
            parent = stack[-1]
            context = CONTEXTS.get(name, parent[4])
            request = parent[5]
        else:
            context = CONTEXTS.get(name, "")
            request = self._next_request
            self._next_request += 1
        frame = [self._next_span, name, 0, 0, context, request]
        self._next_span += 1
        stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame: List[Any]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        span_id, name, start, child_ns, context, request = frame
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        key = (name, context)
        by_context = self.by_context.get(key)
        if by_context is None:
            by_context = self.by_context[key] = [0, 0]
        by_context[0] += 1
        by_context[1] += duration
        if name in FOLDED:
            folded = self.folded.get((parent_id, name))
            if folded is None:
                folded = self.folded[(parent_id, name)] = [0, 0]
            folded[0] += 1
            folded[1] += duration
        else:
            self.spans.append((span_id, parent_id, request, name, start, end))

    # -- aggregates ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[2]

    def context_ns(self, name: str, context: str) -> int:
        return self.by_context.get((name, context), (0, 0))[1]

    # -- per-request views (used by the tests) ---------------------------------

    def request_self_times(self, request: int) -> Dict[str, int]:
        """Self time per span name over one request's spans."""
        spans = [span for span in self.spans if span[2] == request]
        ids = {span[0] for span in spans}
        covered: Dict[int, int] = {span_id: 0 for span_id in ids}
        for span_id, parent_id, _req, _name, start, end in spans:
            if parent_id in covered:
                covered[parent_id] += end - start
        out: Dict[str, int] = {}
        for (parent_id, name), (_count, total) in self.folded.items():
            if parent_id in ids:
                covered[parent_id] += total
                out[name] = out.get(name, 0) + total
        for span_id, _parent, _req, name, start, end in spans:
            out[name] = out.get(name, 0) + (end - start) - covered[span_id]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines.

        A stored span is ``[id, parent, request, name, start_ns,
        end_ns]``; a folded leaf is ``[parent, name, count, total_ns]``.
        """
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for (parent_id, name), (count, total) in self.folded.items():
                out.write(json.dumps([parent_id, name, count, total]) + "\n")


def _wrap(
    tracer: Tracer,
    name: str,
    function: Callable[..., Any],
    sink: Optional[Callable[[Any], None]] = None,
) -> Callable[..., Any]:
    open_span = tracer.open
    close_span = tracer.close

    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = open_span(name)
        try:
            result = function(*args, **kwargs)
        finally:
            close_span(frame)
        if sink is not None:
            sink(result)
        return result

    traced.__name__ = getattr(function, "__name__", name)
    traced.__wrapped__ = function  # type: ignore[attr-defined]
    return traced


def _targets() -> "List[Tuple[Any, str, str]]":
    """(owner, attribute, span name) for every layer boundary traced."""
    from repro.core.differential import DifferentialRefresher
    from repro.core.group import GroupRefresher
    from repro.core.manager import SnapshotManager
    from repro.core.registry import SnapshotRegistry
    from repro.core.snapshot import SnapshotTable
    from repro.expr.predicate import Restriction
    from repro.net import wirebatch
    from repro.net.channel import Channel
    from repro.net.wire import WireCodec
    from repro.storage.heap import HeapFile
    from repro.table import Table
    from repro.txn.locks import LockManager
    from repro.txn.wal import WriteAheadLog

    from perfbench import world

    return [
        (Table, "insert", "table.write"),
        (Table, "update", "table.write"),
        (Table, "delete", "table.write"),
        (Table, "set_annotations", "differential.fixup"),
        (HeapFile, "insert", "storage.heap_write"),
        (HeapFile, "update", "storage.heap_write"),
        (HeapFile, "delete", "storage.heap_write"),
        (HeapFile, "insert_at", "storage.heap_write"),
        (HeapFile, "read", "storage.heap_read"),
        (HeapFile, "page_entries", "storage.page_read"),
        (HeapFile, "page_batch", "storage.page_read"),
        (LockManager, "acquire", "txn.lock"),
        (LockManager, "release", "txn.lock"),
        (LockManager, "release_all", "txn.lock"),
        (WriteAheadLog, "append", "txn.wal"),
        (Restriction, "__call__", "expr.predicate"),
        (DifferentialRefresher, "refresh", "differential.refresh"),
        (DifferentialRefresher, "refresh_chunked", "differential.refresh"),
        (GroupRefresher, "refresh_group", "group.refresh"),
        (SnapshotManager, "refresh", "manager.refresh"),
        (SnapshotManager, "refresh_online", "manager.refresh"),
        (SnapshotManager, "drain_registry", "manager.refresh"),
        (SnapshotRegistry, "claim_cohort", "registry.claim"),
        (SnapshotRegistry, "complete", "registry.claim"),
        (SnapshotRegistry, "observe", "registry.observe"),
        (Channel, "send", "channel.send"),
        (Channel, "flush", "channel.send"),
        (wirebatch, "encode_batch_into", "wire.encode"),
        (WireCodec, "_seal", "wire.encode"),
        (WireCodec, "decode_frame", "wire.decode"),
        (SnapshotTable, "apply", "snapshot.apply"),
        # The benchmark's own writes inside an online refresh.
        (world, "_boundary_writes", "bench.boundary"),
    ]


class Installation:
    """The wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self, saved: "List[Tuple[Any, str, Any]]") -> None:
        self._saved = saved

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []


def install(
    tracer: Tracer, sinks: "Optional[Dict[str, Callable[[Any], None]]]" = None
) -> Installation:
    """Wrap every traced boundary; ``sinks`` maps ``Owner.attr`` to a
    callback that receives each call's return value."""
    sinks = sinks or {}
    saved = []
    for owner, attribute, name in _targets():
        original = owner.__dict__[attribute]
        label = f"{getattr(owner, '__name__', owner)}.{attribute}"
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(tracer, name, original, sinks.get(label)))
    return Installation(saved)
