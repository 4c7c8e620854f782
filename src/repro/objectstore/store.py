"""The object-store facade: buckets, objects, multipart uploads."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.db.database import BlobDB
from repro.db.errors import (
    DatabaseError,
    DuplicateKeyError,
    KeyNotFoundError,
    TableNotFoundError,
)


class BucketNotFound(DatabaseError):
    """The bucket does not exist."""


class ObjectNotFound(DatabaseError):
    """The object key does not exist in the bucket."""


class PreconditionFailed(DatabaseError):
    """A conditional request's ETag precondition did not hold."""


@dataclass(frozen=True)
class ObjectInfo:
    """HEAD-style metadata: everything comes from the Blob State."""

    bucket: str
    key: bytes
    size: int
    etag: str


class MultipartUpload:
    """An in-progress multipart upload.

    Parts append to a hidden staging object; ``complete`` renames it to
    the target key in one transaction.  Thanks to the resumable SHA-256
    in the Blob State, uploading part N never re-reads parts 1..N-1.
    """

    def __init__(self, store: "ObjectStore", bucket: str, key: bytes,
                 upload_id: int) -> None:
        self._store = store
        self.bucket = bucket
        self.key = key
        self.upload_id = upload_id
        self._staging_key = b"\x00mpu-%d" % upload_id
        self.parts = 0
        self._open = True

    def upload_part(self, data: bytes) -> int:
        """Append one part; returns the part number."""
        self._ensure_open()
        db = self._store.db
        with db.transaction() as txn:
            if self.parts == 0:
                db.put_blob(txn, self.bucket, self._staging_key, data)
            else:
                db.append_blob(txn, self.bucket, self._staging_key, data)
        self.parts += 1
        return self.parts

    def complete(self) -> ObjectInfo:
        """Atomically publish the assembled object under the target key."""
        self._ensure_open()
        if self.parts == 0:
            raise DatabaseError("multipart upload has no parts")
        db = self._store.db
        with db.transaction() as txn:
            state = db.get_state(self.bucket, self._staging_key, txn)
            if db.exists(self.bucket, self.key):
                db.delete_blob(txn, self.bucket, self.key)
            # Rename: re-point the target key at the staged Blob State.
            db._insert(txn, self.bucket, self.key, state)
            # Remove the staging row without freeing the extents the
            # target row now owns.
            db.locks.acquire(txn.txn_id, self.bucket, self._staging_key,
                             _exclusive())
            from repro.wal.records import DeleteRecord
            from repro.db.catalog import encode_value
            db.wal.append(DeleteRecord(
                txn_id=txn.txn_id, table=self.bucket,
                key=self._staging_key, old_value=encode_value(b"")))
            txn.remember_undo(self.bucket, self._staging_key, state)
            db._table(self.bucket).delete(self._staging_key)
        self._open = False
        return self._store.head_object(self.bucket, self.key)

    def abort(self) -> None:
        """Discard the staged parts."""
        self._ensure_open()
        db = self._store.db
        if db.exists(self.bucket, self._staging_key):
            with db.transaction() as txn:
                db.delete_blob(txn, self.bucket, self._staging_key)
        self._open = False

    def _ensure_open(self) -> None:
        if not self._open:
            raise DatabaseError(f"upload {self.upload_id} is finished")


class ObjectStore:
    """Buckets and whole-object operations over a :class:`BlobDB`."""

    def __init__(self, db: BlobDB | None = None) -> None:
        self.db = db or BlobDB()
        self._upload_ids = itertools.count(1)

    @property
    def ns(self):
        return self.db.ns

    def attach_namespace(self):
        """Build (or reuse) the interval-numbered namespace accelerator.

        Once attached, directory-aligned :meth:`list_objects` calls
        (empty prefix or a prefix ending in ``/``) run as one range scan
        over the interval index instead of a key-space scan plus
        per-object metadata decoding.
        """
        if self.db.ns is None:
            from repro.namespace import NamespaceIndex
            NamespaceIndex.build(self.db)
        return self.db.ns

    # -- buckets -----------------------------------------------------------

    def create_bucket(self, name: str) -> None:
        try:
            self.db.create_table(name)
        except DuplicateKeyError:
            raise DuplicateKeyError(f"bucket {name!r} exists") from None

    def list_buckets(self) -> list[str]:
        return self.db.list_tables()

    def delete_bucket(self, name: str) -> None:
        """Drop an empty bucket (S3 refuses to delete non-empty ones)."""
        if name not in self.db.list_tables():
            raise BucketNotFound(name)
        if any(True for _ in self.list_objects(name)):
            raise DatabaseError(f"bucket {name!r} is not empty")
        self.db.drop_table(name)

    # -- objects -------------------------------------------------------------

    def put_object(self, bucket: str, key: bytes, data: bytes) -> ObjectInfo:
        """Create or replace an object (whole-BLOB semantics, as S3)."""
        try:
            with self.db.transaction() as txn:
                if self.db.exists(bucket, key):
                    self.db.delete_blob(txn, bucket, key)
                self.db.put_blob(txn, bucket, key, data)
        except TableNotFoundError:
            raise BucketNotFound(bucket) from None
        return self.head_object(bucket, key)

    def get_object(self, bucket: str, key: bytes,
                   if_none_match: str | None = None) -> bytes:
        """Read an object; the conditional variant compares ETags only."""
        info = self.head_object(bucket, key)
        if if_none_match is not None and info.etag == if_none_match:
            raise PreconditionFailed(
                f"{bucket}/{key!r} still has ETag {if_none_match}")
        return self.db.read_blob(bucket, key)

    def head_object(self, bucket: str, key: bytes) -> ObjectInfo:
        """Metadata without content access — one Blob State lookup."""
        try:
            state = self.db.get_state(bucket, key)
        except TableNotFoundError:
            raise BucketNotFound(bucket) from None
        except KeyNotFoundError:
            raise ObjectNotFound(f"{bucket}/{key!r}") from None
        return ObjectInfo(bucket=bucket, key=key, size=state.size,
                          etag=state.sha256.hex())

    def delete_object(self, bucket: str, key: bytes) -> None:
        try:
            with self.db.transaction() as txn:
                self.db.delete_blob(txn, bucket, key)
        except TableNotFoundError:
            raise BucketNotFound(bucket) from None
        except KeyNotFoundError:
            raise ObjectNotFound(f"{bucket}/{key!r}") from None

    def list_objects(self, bucket: str, prefix: bytes = b""):
        """Yield :class:`ObjectInfo` for keys with the given prefix.

        Directory-aligned prefixes (empty, or ending in ``/``) use the
        namespace accelerator when attached: one interval range scan
        yields the whole subtree with sizes and ETags already resolved.
        """
        if bucket not in self.db.list_tables():
            raise BucketNotFound(bucket)
        if self.ns is not None and (not prefix or prefix.endswith(b"/")):
            yield from self._list_objects_interval(bucket, prefix)
            return
        end = _prefix_end(prefix)
        for key, value in self.db.scan(bucket, start=prefix or None,
                                       end=end):
            if key.startswith(b"\x00"):
                continue  # multipart staging objects are hidden
            if not key.startswith(prefix):
                continue
            yield ObjectInfo(bucket=bucket, key=key, size=value.size,
                             etag=value.sha256.hex())

    def _list_objects_interval(self, bucket: str, prefix: bytes):
        """One range scan over the interval numbering (sorted by key)."""
        node = self.ns.resolve(bucket, prefix.rstrip(b"/"))
        if node is None:  # empty bucket or no keys under the prefix
            return
        infos = [ObjectInfo(bucket=bucket, key=found.key, size=found.size,
                            etag=found.etag)
                 for found in self.ns.iter_subtree(node) if found.is_file]
        infos.sort(key=lambda info: info.key)
        yield from infos

    # -- multipart ---------------------------------------------------------------

    def create_multipart_upload(self, bucket: str,
                                key: bytes) -> MultipartUpload:
        if bucket not in self.db.list_tables():
            raise BucketNotFound(bucket)
        return MultipartUpload(self, bucket, key, next(self._upload_ids))


def _prefix_end(prefix: bytes) -> bytes | None:
    """Smallest key greater than every key with ``prefix``."""
    if not prefix:
        return None
    as_int = int.from_bytes(prefix, "big") + 1
    length = len(prefix)
    if as_int >= 1 << (8 * length):
        return None
    return as_int.to_bytes(length, "big")


def _exclusive():
    from repro.db.transaction import LockMode
    return LockMode.EXCLUSIVE
