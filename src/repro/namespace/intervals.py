"""Interval-numbered namespace accelerator (XPath-accelerator style).

The FUSE/objectstore namespace is a tree: tables are top-level
directories and ``/``-separated key components form the hierarchy
below.  Classic engines answer recursive questions (``readdir -R``,
subtree ``statfs``, ``list_objects(prefix=...)``) by decomposing them
into per-level lookups — one ``readdir`` plus one ``getattr`` per
entry per directory.  This module maintains a *pre/post-order interval
numbering* over that tree instead: every node owns an integer interval
``[lo, hi]`` strictly nested inside its parent's, so the set of
descendants of any node is exactly the nodes whose ``lo`` falls in
``(lo, hi)`` — and a whole-subtree question becomes **one range scan**
over an ordered index keyed by ``lo``.

The ordered index is built through ``new_relation_index``, i.e. it runs on
whichever relation-index engine the config selects (B-Tree, ART, or
the learned tier) and every probe of the accelerator is priced through
that engine's cost charges.

Intervals are allocated with gaps so inserts rarely shift neighbours;
when a directory's gap is exhausted the whole tree is deterministically
renumbered (counted in :attr:`renumbers`) with headroom proportional to
each subtree's size.  The accelerator is volatile: it is rebuilt from
committed tables after a crash, and live maintenance rides on the
transaction commit path (``Transaction.ns_events``), so aborted
mutations never touch it.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.db.database import new_relation_index

#: Interval width reserved for a fresh directory (files take 2 slots:
#: their ``lo`` and ``hi`` marks).  31 files fit before a renumber.
_DIR_SPAN = 64
#: Extra free slots renumbering leaves inside every directory.
_RENUMBER_SLACK = 64


def _enc(number: int) -> bytes:
    return number.to_bytes(8, "big")


class NsNode:
    """One namespace node: a directory, a file, or (S3-style) both.

    A node holds its children, never its parent: the tree owns its
    nodes top-down, so dropping the root frees it by reference counting.
    ``path`` (``/``-joined names from the root) answers ``rel_path``.
    """

    __slots__ = ("name", "path", "children", "is_file", "size", "etag",
                 "table", "key", "lo", "hi", "cursor", "_span")

    def __init__(self, name: str, parent: "NsNode | None",
                 lo: int, hi: int) -> None:
        self.name = name
        self.path = name if parent is None or not parent.path \
            else f"{parent.path}/{name}"
        self.children: dict[str, NsNode] = {}
        self.is_file = False
        self.size = 0
        self.etag = ""
        self.table = ""
        self.key: bytes | None = None
        self.lo = lo
        self.hi = hi
        #: High-water mark of allocated child intervals inside ``(lo, hi)``.
        self.cursor = lo
        self._span = 0

    @property
    def is_dir(self) -> bool:
        return bool(self.children) or not self.is_file

    def rel_path(self, ancestor: "NsNode") -> str:
        """Path of this node relative to ``ancestor`` (``a/b/c``)."""
        if self is ancestor:
            return ""
        prefix = f"{ancestor.path}/" if ancestor.path else ""
        if not self.path.startswith(prefix):
            raise ValueError("node is not a descendant of ancestor")
        return self.path[len(prefix):]


class NamespaceIndex:
    """Pre/post-order interval numbering over a :class:`BlobDB` namespace."""

    def __init__(self, db: Any) -> None:
        # The index keeps what renumbering needs (config, model), not
        # the engine that holds it as ``db.ns``: no reference cycle.
        self._config = db.config
        self._model = db.model
        self._root = NsNode("", None, 0, _DIR_SPAN - 1)
        self._tree = new_relation_index(self._config, self._model)
        self.nodes = 0
        self.range_scans = 0
        self.renumbers = 0
        self._build(db)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, db: Any) -> "NamespaceIndex":
        """Build from committed state and attach as ``db.ns``."""
        ns = cls(db)
        db.ns = ns
        return ns

    def _build(self, db: Any) -> None:
        for table in db.list_tables():
            for key, value in db.scan(table):
                if key.startswith(b"\x00"):
                    continue
                size, etag = _value_meta(value)
                self.note_put(table, key, size, etag)

    # -- name mapping ------------------------------------------------------

    @staticmethod
    def split_key(table: str, key: bytes) -> list[str]:
        """Path components for ``table``/``key`` (empty segments dropped)."""
        parts = [table]
        parts.extend(c.decode("utf-8", "surrogateescape")
                     for c in key.split(b"/") if c)
        return parts

    # -- maintenance -------------------------------------------------------

    def apply_events(self, events) -> None:
        """Replay one committed transaction's namespace events."""
        for op, table, key, size, etag in events:
            if op == "put":
                self.note_put(table, key, size, etag)
            else:
                self.note_delete(table, key)

    def note_put(self, table: str, key: bytes, size: int, etag: str) -> None:
        parts = self.split_key(table, key)
        node = self._root
        for depth, name in enumerate(parts):
            child = node.children.get(name)
            if child is None:
                is_last = depth == len(parts) - 1
                lo, hi = self._alloc(node, 2 if is_last else _DIR_SPAN)
                child = NsNode(name, node, lo, hi)
                node.children[name] = child
                self.nodes += 1
                self._tree.insert(_enc(lo), child)
            node = child
        node.is_file = True
        node.size = size
        node.etag = etag
        node.table = table
        node.key = key

    def note_delete(self, table: str, key: bytes) -> None:
        parts = self.split_key(table, key)
        node = self._root
        walked = []
        for name in parts:
            walked.append(node)
            node = node.children.get(name)
            if node is None:
                return
        node.is_file = False
        node.size = 0
        node.etag = ""
        node.key = None
        # Prune directories that only existed because of this key,
        # climbing back up the nodes walked down.
        while walked and not node.is_file and not node.children:
            parent = walked.pop()
            del parent.children[node.name]
            self._tree.delete(_enc(node.lo))
            self.nodes -= 1
            node = parent

    def _alloc(self, parent: NsNode, want: int) -> tuple[int, int]:
        """Carve a ``want``-slot interval out of ``parent``'s gap."""
        if parent.hi - parent.cursor - 1 < want:
            self._renumber()
            # Renumbering leaves >= _RENUMBER_SLACK free slots per
            # directory; clamp in the (unreachable) degenerate case.
            want = min(want, max(2, parent.hi - parent.cursor - 1))
        lo = parent.cursor + 1
        hi = lo + want - 1
        parent.cursor = hi
        return lo, hi

    def _renumber(self) -> None:
        """Reassign every interval with size-proportional headroom."""
        self.renumbers += 1
        if getattr(self._model, "obs", None) is not None:
            self._model.obs.count("ns.renumbers")
        self._tree = new_relation_index(self._config, self._model)
        _measure(self._root)
        self._assign(self._root, 0)

    def _assign(self, node: NsNode, lo: int) -> None:
        node.lo = lo
        cur = lo
        for name in sorted(node.children):
            child = node.children[name]
            self._assign(child, cur + 1)
            cur += child._span
        node.hi = lo + node._span - 1
        node.cursor = cur
        if node is not self._root:
            self._tree.insert(_enc(node.lo), node)

    # -- queries -----------------------------------------------------------

    def resolve(self, table: str, key: bytes = b"") -> NsNode | None:
        """Walk to the node for ``table``/``key``; ``None`` if absent."""
        node = self._root
        for name in self.split_key(table, key):
            self._model.cpu(20.0)
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def subtree(self, node: NsNode) -> list[NsNode]:
        """All descendants of ``node`` — **one** range scan on the index."""
        self.range_scans += 1
        if getattr(self._model, "obs", None) is not None:
            self._model.obs.count("ns.range_scans")
        return [found for _, found in
                self._tree.scan(_enc(node.lo + 1), _enc(node.hi + 1))]

    def iter_subtree(self, node: NsNode) -> Iterator[NsNode]:
        self.range_scans += 1
        if getattr(self._model, "obs", None) is not None:
            self._model.obs.count("ns.range_scans")
        for _, found in self._tree.scan(_enc(node.lo + 1), _enc(node.hi + 1)):
            yield found

    def subtree_stats(self, node: NsNode) -> dict[str, int]:
        """File/dir/byte totals under ``node`` from one range scan."""
        files = dirs = total = 0
        for found in self.iter_subtree(node):
            if found.is_file:
                files += 1
                total += found.size
            if found.is_dir:
                dirs += 1
        return {"files": files, "dirs": dirs, "bytes": total}

    # -- invariants --------------------------------------------------------

    def verify(self) -> list[str]:
        """Check the numbering invariants; returns failure strings."""
        failures: list[str] = []
        count = self._verify(self._root, failures)
        if count != self.nodes:
            failures.append(f"node count {self.nodes} != walked {count}")
        if len(self._tree) != count:
            failures.append(f"index holds {len(self._tree)} of {count} nodes")
        return failures

    def _verify(self, node: NsNode, failures: list[str]) -> int:
        """Check ``node``'s children recursively; returns nodes walked."""
        count = 0
        prev_hi = node.lo
        # Siblings are disjoint in *interval* order; allocation order
        # (and therefore lo order) is independent of name order, so
        # sort by lo before checking adjacency.
        for child in sorted(node.children.values(), key=lambda c: c.lo):
            count += 1
            if not (node.lo < child.lo <= child.hi < node.hi):
                failures.append(
                    f"{child.name}: interval [{child.lo},{child.hi}] "
                    f"not nested in [{node.lo},{node.hi}]")
            if child.lo <= prev_hi:
                failures.append(f"{child.name}: interval overlaps a sibling")
            prev_hi = max(prev_hi, child.hi)
            if self._tree.lookup(_enc(child.lo)) is not child:
                failures.append(
                    f"{child.name}: index entry missing or stale")
            count += self._verify(child, failures)
        if node.cursor > node.hi:
            failures.append(f"{node.name}: cursor beyond interval end")
        return count


def _measure(node: NsNode) -> int:
    """Set and return ``node._span``: slots its renumbered subtree needs."""
    node._span = 2 + _RENUMBER_SLACK \
        + 2 * sum(_measure(c) for c in node.children.values())
    return node._span


def _value_meta(value: Any) -> tuple[int, str]:
    """(size, etag) of a stored value, mirroring ``BlobDB._ns_note``."""
    sha = getattr(value, "sha256", None)
    if sha is not None:
        return value.size, sha.hex()
    if isinstance(value, (bytes, bytearray)):
        return len(value), ""
    return 0, ""
