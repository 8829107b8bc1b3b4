"""Slotted pages: insert/read/update/delete, compaction, slot reuse."""

import struct

import pytest

from repro.errors import (
    PageFormatError,
    PageFullError,
    RecordNotFoundError,
    StorageError,
)
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, SlottedPage
from repro.storage.pager import FilePager


@pytest.fixture
def page():
    return SlottedPage.empty(512)


class TestBasicOperations:
    def test_insert_and_read(self, page):
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.live_count == 1

    def test_sequential_slots(self, page):
        slots = [page.insert(bytes([i])) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_read_empty_slot_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.read(0)

    def test_read_out_of_range_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.read(99)

    def test_delete_frees_slot(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        assert not page.is_live(slot)
        assert page.live_count == 0

    def test_delete_empty_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.delete(0)

    def test_records_iterates_live_in_slot_order(self, page):
        page.insert(b"a")
        b = page.insert(b"b")
        page.insert(b"c")
        page.delete(b)
        assert list(page.records()) == [(0, b"a"), (2, b"c")]


class TestSlotReuse:
    def test_lowest_free_slot_reused(self, page):
        slots = [page.insert(bytes([i])) for i in range(4)]
        page.delete(slots[1])
        page.delete(slots[3])
        assert page.insert(b"new") == 1
        assert page.insert(b"new2") == 3

    def test_explicit_slot_insert(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        page.insert(b"y", slot_no=slot)
        assert page.read(slot) == b"y"

    def test_explicit_slot_occupied_raises(self, page):
        slot = page.insert(b"x")
        with pytest.raises(PageFullError):
            page.insert(b"y", slot_no=slot)

    def test_explicit_slot_extends_directory(self, page):
        page.insert(b"z", slot_no=3)
        assert page.slot_count == 4
        assert page.read(3) == b"z"
        assert not page.is_live(0)


class TestUpdate:
    def test_update_same_size_in_place(self, page):
        slot = page.insert(b"aaaa")
        page.update(slot, b"bbbb")
        assert page.read(slot) == b"bbbb"

    def test_update_shrink(self, page):
        slot = page.insert(b"aaaaaaaa")
        page.update(slot, b"bb")
        assert page.read(slot) == b"bb"

    def test_update_grow(self, page):
        slot = page.insert(b"aa")
        page.update(slot, b"b" * 50)
        assert page.read(slot) == b"b" * 50

    def test_update_grow_beyond_capacity_raises_and_restores(self, page):
        slot = page.insert(b"aa")
        with pytest.raises(PageFullError):
            page.update(slot, b"x" * 1000)
        assert page.read(slot) == b"aa"  # original still intact

    def test_update_empty_slot_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.update(0, b"x")


class TestSpaceManagement:
    def test_page_full_raises(self, page):
        with pytest.raises(PageFullError):
            page.insert(b"x" * 1000)

    def test_compaction_reclaims_holes(self, page):
        usable = 512 - HEADER_SIZE
        chunk = b"x" * 60
        slots = []
        while page.free_for_insert(len(chunk), reuse_slot=False):
            slots.append(page.insert(chunk))
        # Free every other record, then insert something larger than any
        # single contiguous hole: compaction must make it fit.
        for slot in slots[::2]:
            page.delete(slot)
        big = b"y" * 100
        assert page.reclaimable() > 0
        new_slot = page.insert(big)
        assert page.read(new_slot) == big
        assert usable > 0

    def test_fill_and_drain_repeatedly(self, page):
        for round_no in range(5):
            slots = []
            body = bytes([round_no]) * 40
            while page.free_for_insert(len(body), reuse_slot=page.lowest_free_slot() is not None):
                slots.append(page.insert(body))
            for slot in slots:
                assert page.read(slot) == body
                page.delete(slot)
        assert page.live_count == 0


class TestFormat:
    def test_bad_magic_rejected(self):
        with pytest.raises(PageFormatError):
            SlottedPage(bytearray(512))

    def test_view_semantics(self):
        buf = bytearray(512)
        page = SlottedPage(buf, initialize=True)
        page.insert(b"shared")
        # A second view over the same buffer sees the record.
        view = SlottedPage(buf)
        assert view.read(0) == b"shared"

    def test_slot_size_constant(self):
        assert SLOT_SIZE == 4

    def test_old_format_page_rejected(self, tmp_path):
        # The previous format (magic 0x5250) kept 0 where the header now
        # holds the live-byte count; reading its free space through the
        # new header would overstate it, so the image must be refused.
        old = bytearray(512)
        body = b"record"
        struct.pack_into("<HHHHI", old, 0, 0x5250, 1, 512 - len(body), 1, 0)
        struct.pack_into("<HH", old, HEADER_SIZE, 512 - len(body), len(body))
        old[512 - len(body) :] = body
        path = str(tmp_path / "old.pages")
        with FilePager(path, page_size=512) as pager:
            pager.write_page(pager.allocate(), bytes(old))
        with FilePager(path, page_size=512) as reopened:
            image = reopened.read_page(0)
        with pytest.raises(PageFormatError, match="0x5250"):
            SlottedPage(image)


class TestLiveBytes:
    def test_header_tracks_every_write(self, page):
        a = page.insert(b"a" * 10)
        b = page.insert(b"b" * 20)
        assert page.live_bytes == 30
        page.update(a, b"a" * 4)  # shrink
        assert page.live_bytes == 24
        page.update(b, b"b" * 40)  # grow
        assert page.live_bytes == 44
        page.delete(a)
        assert page.live_bytes == 40
        page.compact()
        assert page.live_bytes == 40
        assert page.reclaimable() == 0

    def test_failed_grow_leaves_page_untouched(self, page):
        slot = page.insert(b"aa")
        before = bytes(page.buffer)
        with pytest.raises(PageFullError):
            page.update(slot, b"x" * 1000)
        assert bytes(page.buffer) == before

    def test_explicit_slot_past_directory_is_atomic(self, page):
        page.insert(b"x" * 400)
        before = bytes(page.buffer)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 80, slot_no=5)
        assert bytes(page.buffer) == before


def reference_lowest_free_slot(page):
    """The per-slot directory walk ``lowest_free_slot`` replaced."""
    for slot_no in range(page.slot_count):
        offset, _ = struct.unpack_from("<HH", page.buffer, HEADER_SIZE + slot_no * 4)
        if offset == 0:
            return slot_no
    return None


class TestLowestFreeSlot:
    def filled(self, count):
        page = SlottedPage.empty(512)
        for i in range(count):
            page.insert(bytes([i]) * 8)
        return page

    def test_empty_directory(self):
        page = SlottedPage.empty(512)
        assert page.lowest_free_slot() is None
        assert reference_lowest_free_slot(page) is None

    def test_no_free_slot(self):
        page = self.filled(6)
        assert page.lowest_free_slot() is None
        assert reference_lowest_free_slot(page) is None

    @pytest.mark.parametrize("freed", [[0], [3], [5], [2, 4], [5, 1], [0, 5]])
    def test_matches_reference_walk(self, freed):
        # Free slots first, in the middle and last: the lowest one wins.
        page = self.filled(6)
        for slot in freed:
            page.delete(slot)
        assert page.lowest_free_slot() == min(freed)
        assert page.lowest_free_slot() == reference_lowest_free_slot(page)

    def test_directory_grown_by_explicit_slot(self):
        # Entries between the old directory end and an explicit slot are
        # born empty.
        page = self.filled(2)
        page.insert(b"z" * 8, slot_no=5)
        assert page.lowest_free_slot() == 2 == reference_lowest_free_slot(page)


class TestPatchAnnotations:
    def annotated(self):
        page = SlottedPage.empty(512)
        for i in range(4):
            page.insert(bytes([i]) * 4 + struct.pack("<iIq", i, i, 100 + i))
        page.delete(2)
        return page

    def test_patches_tail_fields_in_place(self):
        page = self.annotated()
        header = bytes(page.buffer[:HEADER_SIZE + 4 * page.slot_count])
        tails = page.patch_annotations(
            [
                (0, struct.pack("<iI", 7, 8), None),
                (3, None, struct.pack("<q", 900)),
            ]
        )
        assert tails == [(0, 7, 100), (3, 3, 900)]
        assert page.read(0) == bytes(4) + struct.pack("<iIq", 7, 8, 100)
        assert page.read(3) == bytes([3]) * 4 + struct.pack("<iIq", 3, 3, 900)
        assert page.read(1) == bytes([1]) * 4 + struct.pack("<iIq", 1, 1, 101)
        # Lengths never change: header and directory are untouched.
        assert bytes(page.buffer[:HEADER_SIZE + 4 * page.slot_count]) == header

    @pytest.mark.parametrize(
        "bad",
        [
            [(2, None, None)],  # empty slot
            [(9, None, None)],  # past the directory
            [(3, None, None), (1, None, None)],  # not ascending
            [(1, None, None), (1, None, None)],  # repeated
            [(1, None, b"short")],  # not an 8-byte field
        ],
    )
    def test_rejected_patch_leaves_page_untouched(self, bad):
        page = self.annotated()
        # A valid patch ahead of the bad one must not be written either.
        patches = [(0, struct.pack("<iI", 5, 5), None)] + bad
        before = bytes(page.buffer)
        with pytest.raises(StorageError):
            page.patch_annotations(patches)
        assert bytes(page.buffer) == before
