"""I/O boundary rules: host filesystem, network/processes, substrate bypass.

The simulation owns its whole world: storage is
:class:`~repro.storage.device.SimulatedNVMe`, the network is
:mod:`repro.net.transport`, and every byte moved is priced by the
:class:`~repro.sim.cost.CostModel`.  Real host I/O inside a simulated
path breaks determinism *and* the cost accounting; poking the device's
raw page store bypasses both the price list and the per-page
protection information.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint import Rule, dotted_name

#: ``os`` functions that touch the host filesystem.
_OS_FILE_FNS = frozenset({
    "os.open", "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.mkdir", "os.makedirs", "os.rmdir", "os.removedirs", "os.listdir",
    "os.scandir", "os.stat", "os.truncate", "os.link", "os.symlink",
})

#: Pathlib mutators/readers — ambiguous names (the BLOB API also has a
#: ``read_bytes``), so they are only flagged on a path-like receiver.
_PATHLIB_ATTRS = frozenset({
    "write_text", "read_text", "write_bytes", "read_bytes",
})
_PATH_RECEIVER = re.compile(r"(?i)\b(path|file|dir|folder)\w*\b")

#: Process/network escape hatches.
_EXEC_FNS = frozenset({"os.system", "os.popen", "os.fork", "os.kill"})
_NET_EXEC_MODULES = frozenset({
    "socket", "subprocess", "urllib", "requests", "http",
})

#: Raw device internals: touching these outside the storage substrate
#: and the I/O scheduler bypasses cost charging and
#: protection-information updates.  ``_splice_bytes``/``peek_bytes``
#: are the PMem equivalents of ``_poke``/``peek``: byte splices that
#: skip the persist pricing (cache-line flush + fence) of
#: ``write_bytes``.  ``_page_crc``/``_unwritten`` are the lazy protection
#: state: the intended-content CRCs of poked pages and the pages poked
#: before any legitimate write.
_RAW_DEVICE_ATTRS = frozenset({"_pages", "_page_crc", "_unwritten"})
_RAW_DEVICE_CALLS = frozenset({
    "_poke", "peek", "_scatter", "_gather", "_splice_bytes", "peek_bytes",
})
#: Receiver names that plausibly hold a device handle.  ``member`` /
#: ``replica`` / ``primary`` cover the replica layer, where every group
#: member owns its own (possibly fault-wrapped) device — reaching into
#: ``member.device._pages`` would bypass both the member's cost model
#: and its fault plan; ``pmem``/``stripe``/``striped`` cover the
#: heterogeneous tiers (PMem WAL/metadata, striped data members);
#: ``lindex`` / ``namespace`` cover the adaptive-indexing layer, whose
#: learned segments and interval numbering sit on the same priced
#: substrate — reaching around them to raw pages skips the probe and
#: retrain charges just like bypassing a device does.
_DEVICE_RECEIVER = re.compile(
    r"\b(device|inner|physical|nvme|member|replica|primary"
    r"|pmem|stripe|striped|lindex|namespace)\w*\b")


class HostFileIoRule(Rule):
    """RPR004 — real filesystem I/O outside the simulated device layer.

    Simulated code persists through :class:`SimulatedNVMe`; host files
    are for finished artifacts only (reports, traces), which belong in
    the CLI/bench boundary and carry an ``allow`` annotation saying so.
    """

    rule_id = "RPR004"
    title = "host filesystem I/O in simulated code"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("open", "io.open") or name in _OS_FILE_FNS:
            self.report(node, f"{name}() touches the host filesystem — "
                              f"simulated state lives on SimulatedNVMe")
        elif name and (name.startswith("shutil.")
                       or name.startswith("tempfile.")):
            self.report(node, f"{name}() touches the host filesystem")
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in _PATHLIB_ATTRS
              and self._receiver_is_path(node.func.value)):
            self.report(node, f".{node.func.attr}() writes/reads a host "
                              f"path")
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_path(node: ast.AST) -> bool:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - defensive
            return False
        return bool(_PATH_RECEIVER.search(text))

    def _check_import(self, node, names) -> None:
        for name in names:
            if name.split(".")[0] in ("shutil", "tempfile"):
                self.report(node, f"import of host-filesystem module "
                                  f"{name!r}")

    def visit_Import(self, node: ast.Import) -> None:
        self._check_import(node, [a.name for a in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self._check_import(node, [node.module])


class HostNetExecRule(Rule):
    """RPR005 — real sockets or subprocesses in simulated code.

    The transport layer (:mod:`repro.net`) simulates its links; real
    network or process escape makes results depend on the host
    environment.  Deliberate host-tooling hops (the CLI delegating to
    pytest) suppress with a reason.
    """

    rule_id = "RPR005"
    title = "host network/subprocess escape"

    def _check_module(self, node, names) -> None:
        for name in names:
            if name.split(".")[0] in _NET_EXEC_MODULES:
                self.report(node, f"import of host I/O module {name!r}")

    def visit_Import(self, node: ast.Import) -> None:
        self._check_module(node, [a.name for a in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self._check_module(node, [node.module])

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            root = name.split(".")[0]
            if root in ("socket", "subprocess") and "." in name:
                self.report(node, f"{name}() escapes to the host")
            elif name in _EXEC_FNS or name.startswith("os.exec") \
                    or name.startswith("os.spawn"):
                self.report(node, f"{name}() escapes to the host")
        self.generic_visit(node)


class SubstrateBypassRule(Rule):
    """RPR006 — raw device-state access that bypasses the cost model.

    ``SimulatedNVMe._pages`` / ``_page_crc`` / ``_unwritten`` /
    ``_poke()`` / ``peek()`` / ``_scatter()`` / ``_gather()`` move
    bytes without charging I/O time or maintaining protection
    information.  Only the storage substrate itself
    (``repro/storage/``, which implements faults and remapping on top
    of them) and the I/O scheduler (``repro/io/``, the
    submission/completion-queue front end that prices whole batches)
    may use them; everything else goes through ``read``/``write``/
    ``submit`` or an :class:`~repro.io.IoScheduler`.

    Heuristic: flagged only when the receiver expression names a device
    (``device``/``inner``/``physical``/``nvme``), so unrelated
    attributes that happen to share a name don't trip it.
    """

    rule_id = "RPR006"
    title = "raw device access bypassing the cost model"
    allowed_paths = ("repro/storage/", "repro/io/")

    def _receiver_is_device(self, node: ast.AST) -> bool:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - defensive
            return False
        return bool(_DEVICE_RECEIVER.search(text))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _RAW_DEVICE_ATTRS \
                and self._receiver_is_device(node.value):
            self.report(node, f"direct access to device.{node.attr} "
                              f"bypasses cost charging and protection info")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _RAW_DEVICE_CALLS \
                and self._receiver_is_device(node.func.value):
            self.report(node, f".{node.func.attr}() reads/writes pages "
                              f"without charging the cost model")
        self.generic_visit(node)
