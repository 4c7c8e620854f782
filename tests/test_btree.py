"""Tests for the byte-budgeted prefix-compressed B-Tree."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BTree
from repro.sim.cost import CostModel


def key(i: int) -> bytes:
    return f"key-{i:08d}".encode()


class TestBasicOperations:
    def test_empty_lookup(self):
        assert BTree().lookup(b"missing") is None

    def test_insert_lookup_roundtrip(self):
        tree = BTree()
        tree.insert(b"alpha", 1)
        tree.insert(b"beta", 2)
        assert tree.lookup(b"alpha") == 1
        assert tree.lookup(b"beta") == 2
        assert tree.lookup(b"gamma") is None

    def test_insert_replaces_existing(self):
        tree = BTree()
        tree.insert(b"k", "old")
        tree.insert(b"k", "new")
        assert tree.lookup(b"k") == "new"
        assert len(tree) == 1

    def test_contains(self):
        tree = BTree()
        tree.insert(b"x", 0)
        assert b"x" in tree
        assert b"y" not in tree

    def test_len_tracks_unique_keys(self):
        tree = BTree()
        for i in range(100):
            tree.insert(key(i), i)
        assert len(tree) == 100

    def test_many_inserts_split_and_stay_searchable(self):
        tree = BTree(node_bytes=256)
        n = 2000
        order = list(range(n))
        random.Random(7).shuffle(order)
        for i in order:
            tree.insert(key(i), i * 10)
        for i in range(n):
            assert tree.lookup(key(i)) == i * 10
        assert tree.stats().height > 1

    def test_first(self):
        tree = BTree()
        assert tree.first() is None
        for i in (5, 3, 9):
            tree.insert(key(i), i)
        assert tree.first() == (key(3), 3)


class TestDelete:
    def test_delete_present(self):
        tree = BTree()
        tree.insert(b"k", 1)
        assert tree.delete(b"k") is True
        assert tree.lookup(b"k") is None
        assert len(tree) == 0

    def test_delete_absent(self):
        tree = BTree()
        tree.insert(b"k", 1)
        assert tree.delete(b"zzz") is False
        assert len(tree) == 1

    def test_delete_all_from_deep_tree(self):
        tree = BTree(node_bytes=128)
        n = 500
        for i in range(n):
            tree.insert(key(i), i)
        order = list(range(n))
        random.Random(3).shuffle(order)
        for i in order:
            assert tree.delete(key(i)) is True
        assert len(tree) == 0
        for i in range(n):
            assert tree.lookup(key(i)) is None

    def test_interleaved_insert_delete(self):
        tree = BTree(node_bytes=256)
        shadow = {}
        rng = random.Random(11)
        for _ in range(3000):
            i = rng.randrange(200)
            if rng.random() < 0.6:
                tree.insert(key(i), i)
                shadow[key(i)] = i
            else:
                assert tree.delete(key(i)) == (key(i) in shadow)
                shadow.pop(key(i), None)
        assert len(tree) == len(shadow)
        for k, v in shadow.items():
            assert tree.lookup(k) == v


class TestScan:
    def test_full_scan_is_sorted(self):
        tree = BTree(node_bytes=256)
        items = {key(i): i for i in range(300)}
        for k, v in sorted(items.items(), reverse=True):
            tree.insert(k, v)
        scanned = list(tree.scan())
        assert scanned == sorted(items.items())

    def test_range_scan_half_open(self):
        tree = BTree(node_bytes=256)
        for i in range(100):
            tree.insert(key(i), i)
        got = [v for _, v in tree.scan(start=key(10), end=key(20))]
        assert got == list(range(10, 20))

    def test_scan_from_start_key_missing(self):
        tree = BTree()
        for i in (0, 2, 4, 6):
            tree.insert(key(i), i)
        got = [v for _, v in tree.scan(start=key(1), end=key(5))]
        assert got == [2, 4]

    def test_scan_empty_tree(self):
        assert list(BTree().scan()) == []


class TestCustomComparator:
    def test_reverse_order_comparator(self):
        tree = BTree(cmp=lambda a, b: (a < b) - (a > b),
                     key_size=lambda k: 8)
        for i in range(50):
            tree.insert(i, i)
        keys = [k for k, _ in tree.scan()]
        assert keys == list(range(49, -1, -1))

    def test_object_keys_with_size_function(self):
        tree = BTree(cmp=lambda a, b: (a > b) - (a < b),
                     key_size=lambda k: 100, node_bytes=512)
        for i in range(100):
            tree.insert(i, str(i))
        assert tree.lookup(42) == "42"
        assert tree.stats().leaf_count > 1


class TestStatsAndCompression:
    def test_stats_counts(self):
        tree = BTree(node_bytes=256)
        for i in range(500):
            tree.insert(key(i), i)
        stats = tree.stats()
        assert stats.entry_count == 500
        assert stats.leaf_count > 1
        assert stats.inner_count >= 1
        assert stats.height >= 2
        assert stats.size_bytes > 0

    def test_prefix_compression_shrinks_shared_prefix_keys(self):
        """Keys sharing a long prefix should use far fewer leaf bytes."""
        shared = BTree(node_bytes=4096)
        distinct = BTree(node_bytes=4096)
        prefix = b"p" * 64
        for i in range(200):
            shared.insert(prefix + key(i), i)
            distinct.insert(random.Random(i).randbytes(64) + key(i), i)
        assert shared.stats().leaf_key_bytes < distinct.stats().leaf_key_bytes * 0.6

    def test_byte_budget_drives_leaf_count(self):
        """Bigger keys -> more leaves for the same entry count."""
        small = BTree(node_bytes=4096)
        big = BTree(node_bytes=4096)
        for i in range(300):
            small.insert(key(i), None)
            big.insert(key(i) + bytes(1000 + (i % 7)), None)
        assert big.stats().leaf_count > small.stats().leaf_count * 5

    def test_cost_model_charged_per_node_visit(self):
        model = CostModel()
        tree = BTree(node_bytes=256, model=model)
        for i in range(200):
            tree.insert(key(i), i)
        before = model.clock.now_ns
        tree.lookup(key(100))
        visits = (model.clock.now_ns - before) / model.params.btree_node_ns
        assert visits == pytest.approx(tree.stats().height, abs=1)

    def test_rejects_tiny_node_bytes(self):
        with pytest.raises(ValueError):
            BTree(node_bytes=16)


class TestPropertyBased:
    @given(st.dictionaries(st.binary(min_size=1, max_size=24),
                           st.integers(), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_semantics(self, items):
        tree = BTree(node_bytes=256)
        for k, v in items.items():
            tree.insert(k, v)
        assert len(tree) == len(items)
        for k, v in items.items():
            assert tree.lookup(k) == v
        assert [k for k, _ in tree.scan()] == sorted(items)

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                    max_size=120, unique=True),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_delete_subset_preserves_rest(self, keys, data):
        tree = BTree(node_bytes=256)
        for k in keys:
            tree.insert(k, k)
        to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
        for k in to_delete:
            assert tree.delete(k)
        remaining = set(keys) - set(to_delete)
        assert len(tree) == len(remaining)
        for k in remaining:
            assert tree.lookup(k) == k
        for k in to_delete:
            assert tree.lookup(k) is None


# -- running key_bytes and bisect searches: same tree as the hand-written code


def stream_key(i: int) -> bytes:
    return b"user/%05d/" % i + b"x" * (i * 7 % 23)


def run_stream(tree, seed, n_ops=20_000, every=2_000):
    """Seeded insert / replace / delete stream; ``stats()`` every
    ``every`` ops as (height, leaves, inners, entries, leaf B, inner B)."""
    rng = random.Random(seed)
    pins = []
    for op in range(1, n_ops + 1):
        k = stream_key(rng.randrange(3000))
        if rng.random() < 0.35:
            tree.delete(k)
        else:
            tree.insert(k, op)
        if op % every == 0:
            s = tree.stats()
            pins.append((s.height, s.leaf_count, s.inner_count,
                         s.entry_count, s.leaf_key_bytes, s.inner_key_bytes))
    return pins


#: ``run_stream(BTree(node_bytes=N), seed=14)`` at the parent commit, whose
#: nodes re-summed ``key_size`` on every overfull check.
PARENT_STATS = {
    256: [(4, 181, 31, 990, 31084, 5069), (4, 285, 47, 1469, 45931, 7995),
          (4, 337, 53, 1708, 53447, 9439), (4, 380, 63, 1790, 55918, 10712),
          (4, 397, 66, 1902, 59450, 11199), (4, 410, 67, 1932, 60190, 11552),
          (4, 428, 69, 1926, 60207, 12052), (4, 437, 69, 1923, 60102, 12284),
          (4, 445, 70, 1919, 60115, 12508), (4, 453, 73, 1924, 60230, 12764)],
    4096: [(2, 10, 1, 990, 30894, 248), (2, 16, 1, 1469, 45814, 401),
           (2, 17, 1, 1708, 53425, 426), (2, 18, 1, 1790, 55779, 452),
           (2, 19, 1, 1902, 59392, 477), (2, 20, 1, 1932, 60102, 502),
           (2, 22, 1, 1926, 59958, 553), (2, 23, 1, 1923, 59790, 579),
           (2, 23, 1, 1919, 59762, 579), (2, 23, 1, 1924, 59829, 579)],
}


def reference_lower_bound(cmp, keys, key):
    """The parent commit's hand-written search (kept as the reference)."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if cmp(keys[mid], key) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_child_index(cmp, keys, key):
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if cmp(key, keys[mid]) < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def assert_key_bytes(node, key_size):
    """Every node's running ``key_bytes`` equals the recomputed sum."""
    assert node.key_bytes == sum(key_size(k) for k in node.keys)
    for child in node.children:
        assert_key_bytes(child, key_size)


class TestRunningSizesAndBisect:
    @pytest.mark.parametrize("node_bytes", [256, 4096])
    def test_stream_builds_the_parents_tree(self, node_bytes):
        tree = BTree(node_bytes=node_bytes)
        assert run_stream(tree, seed=14) == PARENT_STATS[node_bytes]
        assert_key_bytes(tree._root, len)

    def test_key_bytes_follows_a_custom_key_size(self):
        tree = BTree(node_bytes=256, key_size=lambda k: 3 * len(k) + 1)
        run_stream(tree, seed=3, n_ops=3000)
        assert_key_bytes(tree._root, lambda k: 3 * len(k) + 1)

    def test_searches_call_the_comparator_as_the_reference_does(self):
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return (a > b) - (a < b)

        tree = BTree(cmp=recording, key_size=lambda k: 8)
        rng = random.Random(21)
        for n in list(range(0, 40)) + [97, 256]:
            keys = sorted(rng.sample(range(1000), n))
            node = type(tree._root)()
            node.keys = keys
            for probe in [-1, 1000] + rng.sample(range(1000), 12) + keys[:3]:
                for search, reference in (
                        (lambda: tree._lower_bound(keys, probe),
                         reference_lower_bound),
                        (lambda: tree._child_index(node, probe),
                         reference_child_index)):
                    calls.clear()
                    got = search()
                    seen = list(calls)
                    calls.clear()
                    assert got == reference(recording, keys, probe)
                    assert seen == calls

    def test_recorded_comparator_stream_matches_the_parent(self):
        """Whole-tree check: every comparator call of a 4 000-op stream
        plus a range scan, in order, hashes to the parent's digest."""
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return (a > b) - (a < b)

        tree = BTree(cmp=recording, node_bytes=256)
        run_stream(tree, seed=15, n_ops=4000)
        list(tree.scan(stream_key(100), stream_key(900)))
        assert len(calls) == 43827
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == \
            "fdf574667dee99699e9478157c0f15859cfa74f960390ad355a7ad3d48c38042"
