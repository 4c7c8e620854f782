"""Tests for Blob State serialization and geometry (Section III-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blob_state import PREFIX_LEN, BlobState
from repro.core.extent import TailExtent
from repro.core.tier import ExtentTier
from repro.sha.sha256 import Sha256


def make_state(data: bytes, extent_pids=(), tail=None) -> BlobState:
    hasher = Sha256(data)
    return BlobState(
        size=len(data),
        sha256=hasher.digest(),
        sha_state=hasher.state(),
        prefix=data[:PREFIX_LEN],
        extent_pids=tuple(extent_pids),
        tail_extent=tail,
    )


class TestValidation:
    def test_valid_state(self):
        state = make_state(b"hello", extent_pids=(4,))
        assert state.size == 5
        assert state.num_extents == 1

    def test_sha_must_be_32_bytes(self):
        good = make_state(b"x")
        with pytest.raises(ValueError):
            BlobState(size=1, sha256=b"short", sha_state=good.sha_state,
                      prefix=b"x")

    def test_prefix_must_match_size(self):
        good = make_state(b"x" * 100)
        with pytest.raises(ValueError):
            BlobState(size=100, sha256=good.sha256, sha_state=good.sha_state,
                      prefix=b"x" * 10)  # must be 32 for a 100-byte BLOB

    def test_negative_size_rejected(self):
        good = make_state(b"x")
        with pytest.raises(ValueError):
            BlobState(size=-1, sha256=good.sha256, sha_state=good.sha_state,
                      prefix=b"")


class TestSerialization:
    def test_roundtrip_no_tail(self):
        state = make_state(b"payload" * 100, extent_pids=(4, 10, 15))
        restored = BlobState.deserialize(state.serialize())
        assert restored == state

    def test_roundtrip_with_tail(self):
        state = make_state(b"p" * 5000, extent_pids=(4, 10),
                           tail=TailExtent(pid=15, npages=3))
        restored = BlobState.deserialize(state.serialize())
        assert restored == state
        assert restored.tail_extent == TailExtent(pid=15, npages=3)

    def test_roundtrip_empty_extents(self):
        state = make_state(b"tiny")
        assert BlobState.deserialize(state.serialize()) == state

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BlobState.deserialize(b"\x00" * 64)

    def test_short_blob_prefix_is_whole_content(self):
        state = make_state(b"short")
        assert state.prefix == b"short"
        restored = BlobState.deserialize(state.serialize())
        assert restored.prefix == b"short"

    @given(st.binary(min_size=0, max_size=200),
           st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data, pids):
        state = make_state(data, extent_pids=pids)
        assert BlobState.deserialize(state.serialize()) == state

    def test_encoding_is_built_once_and_never_inherited(self):
        state = make_state(b"m" * 100, extent_pids=(4, 9))
        assert state.serialize() is state.serialize()
        assert state.serialized_size() == len(state.serialize())
        moved = state.with_extents((4, 9, 17))
        assert moved.serialize() != state.serialize()
        assert BlobState.deserialize(moved.serialize()) == moved
        assert moved == make_state(b"m" * 100, extent_pids=(4, 9, 17))
        assert hash(moved) == hash(BlobState.deserialize(moved.serialize()))

    def test_compact_metadata_for_huge_blobs(self):
        """Paper: ~801-byte Blob State refers to a >16 TB BLOB (8 tiers/level)."""
        tiers = ExtentTier(tiers_per_level=8)
        n_extents = 0
        total_pages = 0
        while total_pages * 4096 < 16 * (1 << 40):
            total_pages += tiers.size(n_extents)
            n_extents += 1
        state = make_state(b"z" * 100, extent_pids=tuple(range(n_extents)))
        # Our encoding adds the 104-byte resumable-SHA state on top of the
        # paper's layout; the point is O(100 B) metadata for a 16 TB BLOB.
        assert state.serialized_size() < 1024


class TestGeometry:
    def test_page_ranges_follow_tier_table(self):
        tiers = ExtentTier(tiers_per_level=10)
        state = make_state(b"x" * 20000, extent_pids=(4, 10, 15))
        assert state.page_ranges(tiers) == [(4, 1), (10, 2), (15, 4)]

    def test_page_ranges_include_tail(self):
        tiers = ExtentTier(tiers_per_level=10)
        state = make_state(b"x" * 20000, extent_pids=(4, 10),
                           tail=TailExtent(pid=15, npages=3))
        assert state.page_ranges(tiers) == [(4, 1), (10, 2), (15, 3)]
        assert state.num_extents == 2  # tail not counted, as in the paper

    def test_capacity_and_used_pages(self):
        tiers = ExtentTier(tiers_per_level=10)
        state = make_state(b"x" * 20000, extent_pids=(4, 10, 15))
        assert state.capacity_pages(tiers) == 7
        assert state.used_pages(page_size=4096) == 5

    def test_with_content_update(self):
        old = make_state(b"old")
        hasher = Sha256(b"newcontent")
        new = old.with_content(size=10, sha256=hasher.digest(),
                               sha_state=hasher.state(), prefix=b"newcontent")
        assert new.size == 10
        assert old.size == 3  # immutable original

    def test_with_extents_update(self):
        old = make_state(b"x", extent_pids=(1,))
        new = old.with_extents((1, 2, 3))
        assert new.extent_pids == (1, 2, 3)
        assert old.extent_pids == (1,)
