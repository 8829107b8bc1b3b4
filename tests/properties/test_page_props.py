"""Slotted page checked against a dict model."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, SlottedPage

bodies = st.binary(min_size=0, max_size=80)
scripts = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=40),
        bodies,
    ),
    max_size=120,
)


class TestAgainstModel:
    @settings(max_examples=80, deadline=None)
    @given(script=scripts)
    def test_matches_dict(self, script):
        page = SlottedPage.empty(1024)
        model = {}
        for op, pick, body in script:
            live = sorted(model)
            if op == "insert":
                try:
                    slot = page.insert(body)
                except PageFullError:
                    continue
                # First-fit slot reuse: the model must agree on which
                # slot was chosen.
                free_slots = [
                    s for s in range(page.slot_count) if s not in model and s != slot
                ]
                assert all(slot <= s for s in free_slots if s < page.slot_count)
                model[slot] = body
            elif op == "delete" and live:
                slot = live[pick % len(live)]
                page.delete(slot)
                del model[slot]
            elif op == "update" and live:
                slot = live[pick % len(live)]
                try:
                    page.update(slot, body)
                except PageFullError:
                    continue
                model[slot] = body
        assert dict(page.records()) == model
        assert page.live_count == len(model)

    @settings(max_examples=40, deadline=None)
    @given(script=scripts)
    def test_compaction_preserves_contents(self, script):
        page = SlottedPage.empty(1024)
        model = {}
        for op, pick, body in script:
            live = sorted(model)
            if op == "insert":
                try:
                    model[page.insert(body)] = body
                except PageFullError:
                    pass
            elif op == "delete" and live:
                slot = live[pick % len(live)]
                page.delete(slot)
                del model[slot]
        page.compact()
        assert dict(page.records()) == model
        assert page.reclaimable() == 0


space_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert_at", "shrink", "grow", "delete", "compact"]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=150,
)


def walked_reclaimable(page, size):
    """Compaction slack computed by walking the slot directory."""
    live = sum(len(body) for _, body in page.records())
    directory_end = HEADER_SIZE + page.slot_count * SLOT_SIZE
    free_data_offset = directory_end + page.contiguous_free()
    return (size - free_data_offset) - live


class TestSpaceAccounting:
    """The header's live-byte count agrees with a directory walk."""

    @settings(max_examples=120, deadline=None)
    @given(script=space_ops)
    def test_reclaimable_matches_directory_walk(self, script):
        size = 768
        page = SlottedPage.empty(size)
        model = {}
        for op, pick, length in script:
            live = sorted(model)
            body = bytes([pick]) * length
            before = bytes(page.buffer)
            try:
                if op == "insert":
                    model[page.insert(body)] = body
                elif op == "insert_at":
                    # Free slots, or ones past the directory end.
                    slot = pick % (page.slot_count + 3)
                    if slot in model:
                        continue
                    model[page.insert(body, slot_no=slot)] = body
                elif op in ("shrink", "grow") and live:
                    slot = live[pick % len(live)]
                    old = len(model[slot])
                    if op == "shrink":
                        body = body[: old * length // 300]
                    else:
                        body = body + bytes(old)
                    page.update(slot, body)
                    model[slot] = body
                elif op == "delete" and live:
                    slot = live[pick % len(live)]
                    page.delete(slot)
                    del model[slot]
                elif op == "compact":
                    page.compact()
            except PageFullError:
                # A write that does not fit (the grow path included)
                # leaves the page image exactly as it was.
                assert bytes(page.buffer) == before
            assert page.reclaimable() == walked_reclaimable(page, size)
            assert page.live_bytes == sum(len(b) for b in model.values())
            assert dict(page.records()) == model


def reference_compact(page):
    """The slot-at-a-time ``compact`` the one-pass version replaced."""
    buf = page.buffer
    slot_count = page.slot_count
    live_count = page.live_count
    live = []
    for slot_no in range(slot_count):
        offset, length = struct.unpack_from("<HH", buf, HEADER_SIZE + slot_no * 4)
        if offset != 0:
            live.append((slot_no, bytes(buf[offset : offset + length])))
    write_at = len(buf)
    for slot_no, body in live:
        write_at -= len(body)
        buf[write_at : write_at + len(body)] = body
        struct.pack_into("<HH", buf, HEADER_SIZE + slot_no * 4, write_at, len(body))
    struct.pack_into(
        "<HHHHI", buf, 0, 0x5251, slot_count, write_at, live_count, len(buf) - write_at
    )
    return write_at


def assert_compacts_like_reference(page):
    expected = SlottedPage(bytearray(page.buffer))
    expected_offset = reference_compact(expected)
    assert page.compact() == expected_offset
    assert bytes(page.buffer) == bytes(expected.buffer)


class TestOnePassCompact:
    @settings(max_examples=120, deadline=None)
    @given(script=space_ops)
    def test_byte_identical_to_reference(self, script):
        """Random pages with holes compact to the reference's exact image."""
        page = SlottedPage.empty(768)
        model = {}
        for op, pick, length in script:
            live = sorted(model)
            body = bytes([pick]) * length
            try:
                if op == "insert":
                    model[page.insert(body)] = body
                elif op == "insert_at":
                    slot = pick % (page.slot_count + 3)
                    if slot not in model:
                        model[page.insert(body, slot_no=slot)] = body
                elif op in ("shrink", "grow") and live:
                    slot = live[pick % len(live)]
                    old = len(model[slot])
                    body = body[: old // 2] if op == "shrink" else body + bytes(old)
                    page.update(slot, body)
                    model[slot] = body
                elif op == "delete" and live:
                    slot = live[pick % len(live)]
                    page.delete(slot)
                    del model[slot]
                elif op == "compact":
                    assert_compacts_like_reference(page)
            except PageFullError:
                pass
        assert_compacts_like_reference(page)
        assert dict(page.records()) == model
