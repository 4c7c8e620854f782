"""Device construction and tier placement behind the capability layer.

Every engine-side consumer (database, WAL, pool, shards, replicas,
benches) obtains devices from here instead of constructing
``SimulatedNVMe`` directly, so device-specific assumptions stay inside
``repro/storage/``.  :func:`build_storage` applies the placement policy
of an :class:`~repro.db.config.EngineConfig`:

* **data** — blobs and the extent allocator's area: a plain NVMe, a
  :class:`~repro.storage.remap.RemappedDevice` (``out_of_place``), or a
  :class:`~repro.storage.stripe.StripedDevice` (``stripe_devices > 1``);
* **meta** — superblock + catalog checkpoint slots: the PMem tier when
  one is configured (hot metadata is small and rewritten often — the
  byte tier absorbs it), otherwise an alias of the data device;
* **wal** — the log ring: PMem under ``wal_placement="auto"``/"pmem"``
  (the byte-append fast path), NVMe when forced or when no PMem exists.

``wal_placement="pmem"`` without a PMem tier is a capability error —
the config layer rejects it; ``"auto"`` *falls back* to NVMe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe
from repro.storage.pmem import SimulatedPMem
from repro.storage.stripe import StripedDevice


@dataclass
class StorageSet:
    """The devices one engine instance persists through.

    ``meta`` and ``wal`` alias ``data`` on homogeneous configurations;
    :meth:`map` preserves that aliasing when wrapping (fault injection).
    """

    data: object
    meta: object
    wal: object

    @property
    def devices(self) -> list:
        """The distinct devices, data first (stable order)."""
        distinct: list = []
        for dev in (self.data, self.meta, self.wal):
            if not any(dev is seen for seen in distinct):
                distinct.append(dev)
        return distinct

    @property
    def heterogeneous(self) -> bool:
        return self.meta is not self.data or self.wal is not self.data

    def map(self, fn) -> "StorageSet":
        """Apply ``fn`` once per distinct device, preserving aliases."""
        mapped: dict[int, object] = {}
        for dev in self.devices:
            mapped[id(dev)] = fn(dev)
        return StorageSet(data=mapped[id(self.data)],
                          meta=mapped[id(self.meta)],
                          wal=mapped[id(self.wal)])


def make_device(model: CostModel, *, capacity_pages: int,
                page_size: int = 4096, kind: str = "nvme",
                protect: bool = True, **kwargs):
    """Construct one device of the given capability ``kind``.

    ``kind="striped"`` accepts ``n_devices``/``stripe_pages``/
    ``fault_factory``; the other kinds take no extra arguments.
    """
    if kind == "nvme":
        if kwargs:
            raise TypeError(f"unexpected nvme arguments: {sorted(kwargs)}")
        return SimulatedNVMe(model, capacity_pages=capacity_pages,
                             page_size=page_size, protect=protect)
    if kind == "pmem":
        if kwargs:
            raise TypeError(f"unexpected pmem arguments: {sorted(kwargs)}")
        return SimulatedPMem(model, capacity_pages=capacity_pages,
                             page_size=page_size, protect=protect)
    if kind == "striped":
        return StripedDevice(model, capacity_pages=capacity_pages,
                             page_size=page_size, protect=protect, **kwargs)
    raise ValueError(f"unknown device kind {kind!r}")


def build_storage(config, model: CostModel) -> StorageSet:
    """Build the device set an :class:`EngineConfig` places data on."""
    if config.out_of_place:
        from repro.storage.remap import RemappedDevice
        data = RemappedDevice(model, physical_pages=config.device_pages,
                              page_size=config.page_size)
    elif config.stripe_devices > 1:
        data = make_device(model, capacity_pages=config.device_pages,
                           page_size=config.page_size, kind="striped",
                           n_devices=config.stripe_devices,
                           stripe_pages=config.stripe_chunk_pages)
    else:
        data = make_device(model, capacity_pages=config.device_pages,
                           page_size=config.page_size)
    if config.pmem_pages > 0:
        pmem = make_device(model, capacity_pages=config.pmem_pages,
                           page_size=config.page_size, kind="pmem")
        wal = pmem if config.wal_on_pmem else data
        return StorageSet(data=data, meta=pmem, wal=wal)
    return StorageSet(data=data, meta=data, wal=data)
