"""Byte-budgeted B-Tree with prefix compression and custom comparators."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Any, Callable, Iterator

from repro.sim.cost import CostModel

#: Three-way comparator: negative / zero / positive like C's memcmp.
Comparator = Callable[[Any, Any], int]


def bytes_cmp(a: bytes, b: bytes) -> int:
    """Default comparator: lexicographic byte order."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _common_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


@dataclass
class BTreeStats:
    """Structural statistics used by the indexing evaluation (Table III)."""

    height: int
    leaf_count: int
    inner_count: int
    entry_count: int
    #: Key bytes stored in leaves after prefix compression.
    leaf_key_bytes: int
    #: Key bytes stored in inner nodes (truncated separators).
    inner_key_bytes: int
    #: Estimated total on-page size (keys + per-entry/node overheads).
    size_bytes: int


class _Node:
    __slots__ = ("keys", "values", "children", "key_bytes")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []       # leaves only
        self.children: list["_Node"] = []  # inner nodes only
        #: Running sum of ``key_size`` over ``keys``, maintained by every
        #: mutation so the overfull checks never re-sum the node.
        self.key_bytes = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """A B-Tree whose node capacity is a byte budget.

    Parameters
    ----------
    cmp:
        Three-way comparator over keys; defaults to byte order.
    key_size:
        Size in bytes an entry's key occupies on a page; defaults to
        ``len(key)`` (works for ``bytes`` keys).  For object keys (e.g.
        Blob State) pass the serialized size.
    node_bytes:
        Byte budget of one node (page size, default 4 KiB).
    entry_overhead:
        Per-entry slot/offset overhead within a node.
    model:
        Optional cost model; every node visited during a lookup or scan
        charges one ``btree_node`` traversal.
    """

    def __init__(self, cmp: Comparator | None = None,
                 key_size: Callable[[Any], int] | None = None,
                 node_bytes: int = 4096,
                 entry_overhead: int = 16,
                 model: CostModel | None = None) -> None:
        if node_bytes < 64:
            raise ValueError("node_bytes too small to hold any entry")
        self._cmp = cmp or bytes_cmp
        #: ``bisect`` key wrapper: a supplied comparator is called through
        #: ``cmp_to_key``; without one, keys compare natively (which is
        #: what ``bytes_cmp`` does).
        self._sort_key = cmp_to_key(cmp) if cmp is not None else None
        self._key_size = key_size or (lambda k: len(k))
        self._node_bytes = node_bytes
        self._entry_overhead = entry_overhead
        self._model = model
        self._root = _Node()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- cost charging -------------------------------------------------------

    def _visit(self, node: _Node) -> None:
        if self._model is not None:
            self._model.btree_node()

    # -- node capacity ---------------------------------------------------------

    def _leaf_bytes(self, node: _Node) -> int:
        """Byte usage of a leaf after prefix compression."""
        n = len(node.keys)
        if n == 0:
            return 0
        total = node.key_bytes + n * self._entry_overhead
        prefix = self._node_prefix_len(node)
        # The shared prefix is stored once instead of n times.
        return total - prefix * (n - 1)

    def _node_prefix_len(self, node: _Node) -> int:
        """Common byte prefix of a node's keys (0 for non-bytes keys)."""
        if len(node.keys) < 2:
            return 0
        first, last = node.keys[0], node.keys[-1]
        if isinstance(first, (bytes, bytearray)) and isinstance(last, (bytes, bytearray)):
            return _common_prefix_len(bytes(first), bytes(last))
        return 0

    def _inner_bytes(self, node: _Node) -> int:
        return node.key_bytes + len(node.children) * self._entry_overhead

    def _leaf_overfull(self, node: _Node) -> bool:
        n = len(node.keys)
        # Prefix compression only shrinks a leaf, so one that fits
        # uncompressed fits: the prefix is computed only near the budget.
        return n > 1 \
            and node.key_bytes + n * self._entry_overhead > self._node_bytes \
            and self._leaf_bytes(node) > self._node_bytes

    def _inner_overfull(self, node: _Node) -> bool:
        return len(node.children) > 2 and self._inner_bytes(node) > self._node_bytes

    # -- separator truncation -----------------------------------------------------

    def _separator(self, left_max: Any, right_min: Any) -> Any:
        """Shortest key that is > ``left_max`` and <= ``right_min``.

        Classic prefix-B-tree suffix truncation; only applies to byte
        keys, object keys are used verbatim.
        """
        if isinstance(left_max, (bytes, bytearray)) and \
                isinstance(right_min, (bytes, bytearray)):
            left_b, right_b = bytes(left_max), bytes(right_min)
            cut = _common_prefix_len(left_b, right_b) + 1
            return right_b[:cut]
        return right_min

    # -- search helpers -----------------------------------------------------------

    # Both searches are ``bisect``'s loops: the same midpoints, and per
    # probe the same one comparator call in the same argument order —
    # ``cmp(keys[mid], key)`` for the lower bound, ``cmp(key, keys[mid])``
    # for the child index — so a comparator that charges for the content
    # it reads is charged exactly as by a hand-written binary search.

    def _lower_bound(self, keys: list[Any], key: Any) -> int:
        """First index whose key is >= ``key``."""
        wrap = self._sort_key
        return bisect_left(keys, key if wrap is None else wrap(key), key=wrap)

    def _child_index(self, node: _Node, key: Any) -> int:
        """Index of the child subtree that may contain ``key``."""
        wrap = self._sort_key
        return bisect_right(node.keys, key if wrap is None else wrap(key),
                            key=wrap)

    # -- public operations -----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert or replace ``key``; replacement keeps the tree size."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Node()
            new_root.keys = [sep]
            new_root.key_bytes = self._key_size(sep)
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: _Node, key: Any, value: Any):
        self._visit(node)
        if node.is_leaf:
            idx = self._lower_bound(node.keys, key)
            if idx < len(node.keys) and self._cmp(node.keys[idx], key) == 0:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            node.key_bytes += self._key_size(key)
            self._count += 1
            if self._leaf_overfull(node):
                return self._split_leaf(node)
            return None
        ci = self._child_index(node, key)
        split = self._insert(node.children[ci], key, value)
        if split is not None:
            sep, right = split
            node.keys.insert(ci, sep)
            node.children.insert(ci + 1, right)
            node.key_bytes += self._key_size(sep)
            if self._inner_overfull(node):
                return self._split_inner(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.key_bytes = sum(map(self._key_size, right.keys))
        node.key_bytes -= right.key_bytes
        sep = self._separator(node.keys[-1], right.keys[0])
        return sep, right

    def _split_inner(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        right.key_bytes = sum(map(self._key_size, right.keys))
        node.key_bytes -= right.key_bytes + self._key_size(sep)
        return sep, right

    def lookup(self, key: Any) -> Any | None:
        """Return the value stored under ``key`` or ``None``."""
        node = self._root
        while True:
            self._visit(node)
            if node.is_leaf:
                idx = self._lower_bound(node.keys, key)
                if idx < len(node.keys) and self._cmp(node.keys[idx], key) == 0:
                    return node.values[idx]
                return None
            node = node.children[self._child_index(node, key)]

    def __contains__(self, key: Any) -> bool:
        return self.lookup(key) is not None

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns whether it was present.

        Like several production engines (including LeanStore), underfull
        nodes are tolerated and only empty nodes are unlinked — deletion
        never restructures eagerly.
        """
        removed = self._delete(self._root, key)
        # Collapse a root that lost all separators.
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return removed

    def _delete(self, node: _Node, key: Any) -> bool:
        if node.is_leaf:
            idx = self._lower_bound(node.keys, key)
            if idx < len(node.keys) and self._cmp(node.keys[idx], key) == 0:
                node.key_bytes -= self._key_size(node.keys.pop(idx))
                node.values.pop(idx)
                self._count -= 1
                return True
            return False
        ci = self._child_index(node, key)
        child = node.children[ci]
        removed = self._delete(child, key)
        if removed and not child.keys and child.is_leaf and len(node.children) > 1:
            node.children.pop(ci)
            node.key_bytes -= self._key_size(node.keys.pop(max(0, ci - 1)))
        return removed

    def scan(self, start: Any | None = None,
             end: Any | None = None) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` in order for ``start <= key < end``."""
        yield from self._scan(self._root, start, end)

    def _scan(self, node: _Node, start: Any | None, end: Any | None):
        self._visit(node)
        if node.is_leaf:
            idx = 0 if start is None else self._lower_bound(node.keys, start)
            for i in range(idx, len(node.keys)):
                if end is not None and self._cmp(node.keys[i], end) >= 0:
                    return
                yield node.keys[i], node.values[i]
            return
        ci = 0 if start is None else self._child_index(node, start)
        for i in range(ci, len(node.children)):
            if i > ci and end is not None and \
                    self._cmp(node.keys[i - 1], end) >= 0:
                return
            yield from self._scan(node.children[i], start if i == ci else None, end)

    def first(self) -> tuple[Any, Any] | None:
        """Smallest entry, or ``None`` if empty."""
        node = self._root
        while not node.is_leaf:
            self._visit(node)
            node = node.children[0]
        self._visit(node)
        if not node.keys:
            return None
        return node.keys[0], node.values[0]

    # -- statistics -----------------------------------------------------------------

    def stats(self) -> BTreeStats:
        """Walk the tree and compute the Table III structural statistics."""
        leaf_count = inner_count = 0
        leaf_bytes = inner_bytes = 0
        height = 0

        def walk(node: _Node, depth: int) -> None:
            nonlocal leaf_count, inner_count, leaf_bytes, inner_bytes, height
            height = max(height, depth + 1)
            if node.is_leaf:
                leaf_count += 1
                leaf_bytes += self._leaf_bytes(node)
            else:
                inner_count += 1
                inner_bytes += self._inner_bytes(node)
                for child in node.children:
                    walk(child, depth + 1)

        walk(self._root, 0)
        node_header = 32
        size = (leaf_bytes + inner_bytes
                + (leaf_count + inner_count) * node_header)
        return BTreeStats(
            height=height,
            leaf_count=leaf_count,
            inner_count=inner_count,
            entry_count=self._count,
            leaf_key_bytes=leaf_bytes,
            inner_key_bytes=inner_bytes,
            size_bytes=size,
        )
