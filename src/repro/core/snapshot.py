"""The snapshot table and its refresh-message receiver (Figure 4).

A :class:`SnapshotTable` is "a read-only table whose contents are
extracted from other tables": it stores the projected values plus a
hidden ``$BASEADDR$`` column ("the entries in the snapshot table are
extended to include a field containing the address of the corresponding
entry in the base table"), and keeps a B+tree index on BaseAddr — "a
snapshot index on BaseAddr will accelerate snapshot refresh processing".

The receiver implements the paper's apply rules:

- ``EntryMessage(addr, prev, value)`` — delete every entry with BaseAddr
  in the open interval ``(prev, addr)``, then update the entry at
  ``addr`` if present, else insert it;
- ``UpdateDeltaMessage(addr, prev, mask, values)`` — same interval
  delete, then merge just the masked columns into the entry at ``addr``
  (which the sender's value cache guarantees exists — a miss is a
  protocol violation, not a quiet insert);
- ``EndOfScanMessage(last_qual)`` — delete every entry beyond
  ``last_qual`` (covers deletions at the end of the base table);
- ``SnapTimeMessage(t)`` — adopt ``t`` as the snapshot's new SnapTime;
- plus the baseline message kinds (clear/full-row/upsert/delete/range).

**Refresh epochs.**  A ``RefreshBeginMessage`` opens an *epoch*: every
subsequent message is staged instead of applied, and the matching
``RefreshCommitMessage`` applies the whole stage atomically (its message
count must match what was staged — a lossy link is detected, not
committed).  A new Begin, or an explicit :meth:`SnapshotTable.abort_epoch`,
discards a torn stage, so a refresh interrupted mid-stream leaves the
snapshot exactly at its previous consistent state and can simply be
retried.  Duplicate deliveries within an epoch (same message object
redelivered by a faulty link) are ignored, which makes the receiver
idempotent per epoch — including for ``SnapTimeMessage``, whose
monotonicity check only runs at commit.  Messages *outside* any epoch
apply immediately (the pre-epoch behavior, still used by ASAP push
propagation and standalone receivers); constructing the table with
``require_epochs=True`` — as the :class:`~repro.core.manager.SnapshotManager`
does — makes out-of-epoch refresh data a hard :class:`~repro.errors.EpochError`
instead, so a dropped Begin cannot silently tear the snapshot.

Storage is a real :class:`~repro.table.Table` (named ``$SNAP$<name>`` in
the site's catalog) with **lazy annotations**, so the paper's "snapshots
can serve as base tables for other snapshots" works: a cascaded
differential snapshot can be defined directly over
:attr:`SnapshotTable.storage`, and the receiver's upserts and deletes
leave exactly the NULL-annotation breadcrumbs the downstream fix-up
expects.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

from repro import sanitize
from repro.core import messages as msg
from repro.errors import EpochError, SnapshotError
from repro.relation.row import Row
from repro.relation.schema import Column, Schema
from repro.relation.types import RidType
from repro.storage.btree import BPlusTree
from repro.storage.rid import Rid

#: Hidden column holding the base-table address of each snapshot entry.
BASEADDR = "$BASEADDR$"

#: Catalog-name prefix for snapshot storage tables.
STORAGE_PREFIX = "$SNAP$"


class _Epoch:
    """One open refresh epoch: its id and the staged message stream."""

    __slots__ = ("epoch", "staged", "seen")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.staged: "list[Any]" = []
        # Identities of staged (live) objects: duplicate deliveries of
        # the same message within the epoch are ignored.
        self.seen: "set[int]" = set()


class SnapshotTable:
    """Materialized snapshot contents at (typically) a remote site."""

    def __init__(
        self,
        db: Any,
        name: str,
        value_schema: Schema,
        require_epochs: bool = False,
    ) -> None:
        if BASEADDR in value_schema:
            raise SnapshotError(
                "snapshot value schema may not use the reserved BaseAddr name"
            )
        self.db = db
        self.name = name
        self.value_schema = value_schema
        stored_schema = value_schema.with_columns(
            [Column(BASEADDR, RidType(), nullable=False, hidden=True)]
        )
        #: The real table holding the snapshot rows.  Lazily annotated,
        #: so this snapshot can be the base table of another snapshot.
        self.storage = db.create_table(
            STORAGE_PREFIX + name, stored_schema, annotations="lazy"
        )
        self.schema = self.storage.schema
        self._baseaddr_pos = self.schema.position(BASEADDR)
        self._value_names = value_schema.names
        # BaseAddr (as a sortable key) -> snapshot-heap RID.
        self._index = BPlusTree(order=64)
        #: Base-table time this snapshot reflects (0 = never refreshed).
        self.snap_time = 0
        #: Apply-effort counters (updates the receiver performed).
        self.applied_upserts = 0
        self.applied_deletes = 0
        #: Partial-column merges applied from UpdateDeltaMessages.
        self.applied_merges = 0
        #: When True, refresh data arriving outside an epoch is an error.
        self.require_epochs = require_epochs
        self._epoch: "Optional[_Epoch]" = None
        #: Epoch id of the last committed refresh (0 = none yet).
        self.last_committed_epoch = 0
        self.committed_epochs = 0
        #: Epochs discarded without committing (torn or lossy streams).
        self.aborted_epochs = 0
        #: Sanitizer baseline: the visible-state fingerprint taken when
        #: the open epoch began (``None`` when no epoch is being watched).
        self._sanitize_baseline: "Optional[tuple]" = None

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"SnapshotTable({self.name}, rows={len(self)}, time={self.snap_time})"

    # -- storage helpers ------------------------------------------------------

    def _upsert(self, base_addr: Rid, values: Tuple) -> None:
        # Every stored column, BaseAddr included, so an update needs
        # nothing from the old row.
        by_name = dict(zip(self._value_names, values))
        by_name[BASEADDR] = base_addr
        key = base_addr.key()
        existing = self._index.get(key)
        self.applied_upserts += 1
        if existing is not None:
            new_rid = self.storage.system_update(existing, by_name)
            if new_rid != existing:  # relocated on page overflow
                self._index.insert(key, new_rid)
            return
        rid = self.storage.system_insert(by_name)
        self._index.insert(key, rid)

    def _delete_addr(self, base_addr: Rid) -> bool:
        existing = self._index.get(base_addr.key())
        if existing is None:
            return False
        self.storage.system_delete(existing)
        self._index.delete(base_addr.key())
        self.applied_deletes += 1
        return True

    def _delete_open_interval(self, lo: Rid, hi: Optional[Rid]) -> int:
        """Delete entries with ``lo < BaseAddr < hi`` (hi=None: unbounded)."""
        doomed = self._index.delete_range(
            lo=lo.key(),
            hi=hi.key() if hi is not None else None,
            include_lo=False,
            include_hi=False,
        )
        for _, heap_rid in doomed:
            self.storage.system_delete(heap_rid)
        self.applied_deletes += len(doomed)
        return len(doomed)

    def _merge(self, message: Any) -> None:
        """Overlay an :class:`~repro.core.messages.UpdateDeltaMessage`.

        The sender only emits a delta when its value cache says this
        address was transmitted before, so the entry must exist here; a
        miss means the two sides' caches diverged and applying the delta
        would fabricate NULLs for the unsent columns.
        """
        existing = self._index.get(message.addr.key())
        if existing is None:
            raise SnapshotError(
                f"snapshot {self.name!r}: update delta for {message.addr} "
                f"but no entry exists; sender value cache out of sync"
            )
        merged = list(self._visible_row(existing).values)
        for position, value in zip(message.positions(), message.values):
            merged[position] = value
        self.applied_merges += 1
        self._upsert(message.addr, tuple(merged))

    def clear(self) -> None:
        for _, heap_rid in list(self._index.items()):
            self.storage.system_delete(heap_rid)
        self._index = BPlusTree(order=64)

    # -- receiver --------------------------------------------------------------

    def apply(self, message: Any) -> None:
        """Receive one refresh message (Figure 4 semantics, epoch-guarded).

        Inside an open epoch, data messages stage; ``RefreshBegin`` and
        ``RefreshCommit`` drive the epoch state machine.  Outside any
        epoch, data applies immediately unless ``require_epochs``.
        """
        if isinstance(message, msg.RefreshBeginMessage):
            if self._epoch is not None:
                if self._epoch.epoch == message.epoch:
                    return  # duplicate delivery of the Begin itself
                # A new refresh attempt supersedes a torn stream.
                self.abort_epoch()
            self._epoch = _Epoch(message.epoch)
            if sanitize.enabled():
                self._sanitize_baseline = sanitize.visible_fingerprint(self)
            return
        if isinstance(message, msg.RefreshCommitMessage):
            self._commit_epoch(message)
            return
        if self._epoch is not None:
            if id(message) in self._epoch.seen:
                return  # duplicate delivery within the epoch
            self._epoch.seen.add(id(message))
            self._epoch.staged.append(message)
            return
        if self.require_epochs:
            raise EpochError(
                f"snapshot {self.name!r}: refresh message outside an epoch "
                f"({message!r}); the RefreshBegin was lost"
            )
        self._apply_now(message)

    def _commit_epoch(self, message: "msg.RefreshCommitMessage") -> None:
        if self._epoch is None:
            if message.epoch == self.last_committed_epoch:
                return  # duplicate delivery of an already-applied commit
            raise EpochError(
                f"snapshot {self.name!r}: commit for epoch {message.epoch} "
                f"but none is open"
            )
        if message.epoch != self._epoch.epoch:
            self.abort_epoch()
            raise EpochError(
                f"snapshot {self.name!r}: commit for epoch {message.epoch} "
                f"does not match the open epoch"
            )
        staged = self._epoch.staged
        if message.count != len(staged):
            self.abort_epoch()
            raise EpochError(
                f"snapshot {self.name!r}: epoch {message.epoch} committed "
                f"{message.count} messages but {len(staged)} arrived; "
                f"stream was lossy — rolled back"
            )
        if sanitize.enabled():
            # Nothing may have reached visible state while staging.
            sanitize.check_epoch_isolation(self)
        self._epoch = None
        self._sanitize_baseline = None
        for staged_message in staged:
            self._apply_now(staged_message)
        self.last_committed_epoch = message.epoch
        self.committed_epochs += 1

    def abort_epoch(self) -> bool:
        """Discard the open epoch's staged messages, if any.

        The snapshot is untouched — staging means nothing was applied.
        Returns whether an epoch was actually open.  Called by the
        sender's failure path (the site-local analog of a receiver
        noticing the connection died); a retried refresh's own
        ``RefreshBegin`` has the same effect.
        """
        if self._epoch is None:
            return False
        self._epoch = None
        self._sanitize_baseline = None
        self.aborted_epochs += 1
        return True

    @property
    def epoch_open(self) -> bool:
        return self._epoch is not None

    @property
    def staged_messages(self) -> int:
        """Messages staged in the open epoch (0 when none is open)."""
        return len(self._epoch.staged) if self._epoch is not None else 0

    def _apply_now(self, message: Any) -> None:
        """Apply one refresh message to storage (Figure 4 semantics)."""
        if isinstance(message, msg.EntryMessage):
            self._delete_open_interval(message.prev_qual, message.addr)
            self._upsert(message.addr, message.values)
        elif isinstance(message, msg.UpdateDeltaMessage):
            self._delete_open_interval(message.prev_qual, message.addr)
            self._merge(message)
        elif isinstance(message, msg.EndOfScanMessage):
            self._delete_open_interval(message.last_qual, None)
        elif isinstance(message, msg.SnapTimeMessage):
            if message.time < self.snap_time:
                raise SnapshotError(
                    f"snapshot time went backward: {message.time} < "
                    f"{self.snap_time}"
                )
            self.snap_time = message.time
        elif isinstance(message, msg.DeleteRangeMessage):
            self._delete_open_interval(message.lo, message.hi)
        elif isinstance(message, msg.UpsertMessage):
            self._upsert(message.addr, message.values)
        elif isinstance(message, msg.DeleteMessage):
            self._delete_addr(message.addr)
        elif isinstance(message, msg.ClearMessage):
            self.clear()
        elif isinstance(message, msg.FullRowMessage):
            self._upsert(message.addr, message.values)
        else:
            raise SnapshotError(f"unknown refresh message: {message!r}")

    def receiver(self) -> "Callable[[Any], None]":
        """A callback suitable for :meth:`repro.net.channel.Channel.attach`."""
        return self.apply

    # -- reads -------------------------------------------------------------------

    def _visible_row(self, heap_rid: Rid) -> Row:
        full = self.storage.read(heap_rid, visible=False)
        return Row(full.values[: len(self.value_schema)])

    def rows(self) -> "list[Row]":
        """Visible snapshot rows, ordered by base address."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        return [self._visible_row(rid) for _, rid in self._index.items()]

    def entries(self) -> "Iterator[tuple[Rid, Row]]":
        """Yield ``(base_addr, visible_row)`` ordered by base address."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        for key, heap_rid in self._index.items():
            yield Rid(*key), self._visible_row(heap_rid)

    def as_map(self) -> "dict[Rid, tuple]":
        """``{base_addr: visible values}`` — the canonical comparison form."""
        return {addr: row.values for addr, row in self.entries()}

    def base_addrs(self) -> "list[Rid]":
        return [Rid(*key) for key, _ in self._index.items()]

    def lookup(self, base_addr: Rid) -> Optional[Row]:
        """The visible row for ``base_addr``, or ``None``."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        heap_rid = self._index.get(base_addr.key())
        if heap_rid is None:
            return None
        return self._visible_row(heap_rid)
