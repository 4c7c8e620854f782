"""Tests for the AST determinism linter (``repro.analysis.lint``)."""

import json
import os
import textwrap

from repro.analysis.lint import (
    Finding,
    iter_python_files,
    lint_paths,
    lint_source,
    parse_suppressions,
    render_json,
)
from repro.analysis.rules import ALL_RULES

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
REPO_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run(source: str, path: str = "src/repro/fake.py") -> list[Finding]:
    return lint_source(path, textwrap.dedent(source))


def rules_of(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


class TestWallClockRule:
    def test_flags_time_time(self):
        findings = run("""
            import time
            def stamp():
                return time.time()
        """)
        assert rules_of(findings) == {"RPR001"}
        assert findings[0].line == 4

    def test_flags_datetime_now_and_sleep(self):
        findings = run("""
            import datetime, time
            a = datetime.datetime.now()
            b = datetime.date.today()
            time.sleep(1)
        """)
        assert [f.rule for f in findings] == ["RPR001"] * 3

    def test_clean_virtual_clock_use(self):
        findings = run("""
            def stamp(model):
                return model.clock.now_ns
        """)
        assert findings == []

    def test_exempt_in_clock_module(self):
        source = "import time\nnow = time.monotonic_ns()\n"
        assert lint_source("src/repro/sim/clock.py", source) == []
        assert rules_of(lint_source("src/repro/sim/other.py", source)) \
            == {"RPR001"}


class TestUnseededRandomRule:
    def test_flags_global_random_functions(self):
        findings = run("""
            import random
            x = random.random()
            random.shuffle([1, 2])
        """)
        assert [f.rule for f in findings] == ["RPR002", "RPR002"]

    def test_flags_unseeded_random_and_entropy(self):
        findings = run("""
            import os, random, uuid
            rng = random.Random()
            key = os.urandom(16)
            tag = uuid.uuid4()
        """)
        assert [f.rule for f in findings] == ["RPR002"] * 3

    def test_clean_seeded_random(self):
        findings = run("""
            import random
            rng = random.Random(42)
            rng2 = random.Random(seed)
            x = rng.random()
        """)
        assert findings == []


class TestSetOrderRule:
    def test_flags_for_over_set_literal(self):
        findings = run("""
            for x in {3, 1, 2}:
                print(x)
        """)
        assert rules_of(findings) == {"RPR003"}

    def test_flags_comprehension_and_sinks(self):
        findings = run("""
            out = [x for x in set(items)]
            pairs = list({1, 2})
            text = ",".join({a for a in names})
        """)
        assert [f.rule for f in findings] == ["RPR003"] * 3

    def test_clean_sorted_and_membership(self):
        findings = run("""
            for x in sorted(set(items)):
                print(x)
            ok = value in {1, 2, 3}
            keys = sorted({k for k in table})
        """)
        assert findings == []


class TestHostFileIoRule:
    def test_flags_open_and_os_calls(self):
        findings = run("""
            import os
            fh = open("x.txt")
            os.remove("x.txt")
        """)
        assert [f.rule for f in findings] == ["RPR004", "RPR004"]

    def test_flags_tempfile_import_and_pathlib_write(self):
        findings = run("""
            import tempfile
            path.write_text("data")
        """)
        assert [f.rule for f in findings] == ["RPR004", "RPR004"]

    def test_clean_blob_api_read_bytes(self):
        # The engine's own BlobManager.read_bytes must not trip the
        # pathlib heuristic.
        findings = run("""
            data = self.blobs.read_bytes(state)
        """)
        assert findings == []

    def test_clean_device_io(self):
        findings = run("""
            payload = self.device.read(pid, npages)
            self.device.write(pid, payload)
        """)
        assert findings == []


class TestHostNetExecRule:
    def test_flags_socket_and_subprocess(self):
        findings = run("""
            import socket
            import subprocess
            subprocess.call(["ls"])
        """)
        assert [f.rule for f in findings] == ["RPR005"] * 3

    def test_flags_os_system(self):
        findings = run("""
            import os
            os.system("true")
        """)
        assert rules_of(findings) == {"RPR005"}

    def test_clean_simulated_transport(self):
        findings = run("""
            from repro.net.transport import Link
            link.send(b"payload")
        """)
        assert findings == []


class TestSubstrateBypassRule:
    def test_flags_peek_and_private_state(self):
        findings = run("""
            raw = self.device.peek(pid, 1)
            pages = self.device._pages
            inner._poke(pid, 0, b"x")
        """)
        assert [f.rule for f in findings] == ["RPR006"] * 3

    def test_exempt_inside_storage_layer(self):
        source = "raw = self.device.peek(pid, 1)\n"
        assert lint_source("src/repro/storage/faults.py", source) == []

    def test_flags_lazy_protection_state(self):
        # The intended-content CRCs and the poked-before-written set
        # decide every verdict; editing them outside the substrate
        # would falsify checks.
        findings = run("""
            crc = self.device._page_crc
            self.device._unwritten.discard(pid)
            physical._unwritten.clear()
        """)
        assert [f.rule for f in findings] == ["RPR006"] * 3

    def test_lazy_protection_state_exempt_or_unrelated(self):
        source = "self.inner._unwritten.discard(pid)\n"
        assert lint_source("src/repro/storage/remap.py", source) == []
        # A non-device receiver's ``_unwritten`` is not device state.
        assert run("todo = self.journal._unwritten\n") == []

    def test_flags_raw_scatter_gather_outside_io_layer(self):
        findings = run("""
            data = self.device._gather(pid, npages)
            inner._scatter(pid, payload)
        """)
        assert [f.rule for f in findings] == ["RPR006"] * 2

    def test_exempt_inside_io_scheduler_layer(self):
        source = ("data = self.device._gather(pid, npages)\n"
                  "self.device._scatter(pid, payload)\n")
        assert lint_source("src/repro/io/scheduler.py", source) == []

    def test_clean_unrelated_scatter(self):
        # numpy-style scatter on a non-device receiver is not flagged.
        findings = run("plot._scatter(xs, ys)\n")
        assert findings == []

    def test_clean_unrelated_peek(self):
        # A token cursor's .peek() is not device access.
        findings = run("""
            token = self.cursor.peek()
            rows = self._pages()
        """)
        assert findings == []

    def test_flags_replica_member_device_bypass(self):
        # The replica layer's receivers hold fault-wrapped devices too:
        # reaching into a member's or the primary's raw pages bypasses
        # that member's cost model *and* its fault plan.
        findings = run("""
            pages = member.device._pages
            raw = self.primary.device.peek(pid, 1)
            replica._poke(pid, 0, b"x")
        """, path="src/repro/replica/group.py")
        assert [f.rule for f in findings] == ["RPR006"] * 3

    def test_replica_layer_not_storage_exempt(self):
        # src/repro/replica/ is NOT an allowed path for raw access —
        # only the storage substrate and the I/O scheduler are.
        source = "raw = member.device.peek(pid, 1)\n"
        assert rules_of(lint_source("src/repro/replica/group.py",
                                    source)) == {"RPR006"}

    def test_flags_pmem_persist_bypass(self):
        # _splice_bytes/peek_bytes move bytes without the cache-line
        # flush + fence pricing of write_bytes — the PMem equivalent of
        # _poke/peek — and stripe members are device receivers too.
        findings = run("""
            pmem._splice_bytes(off, payload)
            raw = self.pmem_device.peek_bytes(off, n)
            stripe.members[0]._poke(pid, b"x")
        """, path="src/repro/wal/writer.py")
        assert [f.rule for f in findings] == ["RPR006"] * 3

    def test_pmem_bypass_exempt_inside_storage_layer(self):
        source = ("pmem._splice_bytes(off, payload)\n"
                  "raw = self.inner.peek_bytes(off, n)\n")
        assert lint_source("src/repro/storage/faults.py", source) == []

    def test_flags_lindex_and_namespace_bypass(self):
        # The adaptive-indexing layer sits on the priced substrate too:
        # reaching around a learned index or the interval numbering to
        # raw pages skips the probe/retrain charges.
        findings = run("""
            pages = self.lindex.device._pages
            raw = namespace_idx.peek(0, 1)
            crc = lindex._page_crc
        """, path="src/repro/lindex/learned.py")
        assert [f.rule for f in findings] == ["RPR006"] * 3

    def test_clean_lindex_and_namespace_public_api(self):
        # The priced public surface of both subsystems is fine anywhere.
        findings = run("""
            hits = list(lindex.scan(lo, hi))
            nodes = namespace_idx.subtree(root)
            val = self.lindex.lookup(key)
        """)
        assert findings == []

    def test_clean_byte_append_fast_path(self):
        # The priced public byte API is fine anywhere: write_bytes /
        # read_bytes on a device receiver charge the cost model.
        findings = run("""
            self.device.write_bytes(off, chunk, category="wal")
            raw = self.device.read_bytes(off, n)
        """, path="src/repro/wal/writer.py")
        assert findings == []


class TestMethodCacheRule:
    def test_flags_cache_wrapping_a_bound_method(self):
        findings = run("""
            import functools
            from functools import lru_cache
            class Tier:
                def __init__(self):
                    self._size = lru_cache(maxsize=None)(self._size_uncached)
                    self._b = functools.cache(self.other)
                    self._c = lru_cache(self.other)
        """)
        assert [(f.rule, f.line) for f in findings] == \
            [("RPR009", 6), ("RPR009", 7), ("RPR009", 8)]

    def test_flags_cache_decorated_methods(self):
        findings = run("""
            import functools
            class Tier:
                @functools.lru_cache(maxsize=128)
                def size(self, i):
                    return i
                @functools.cache
                def total(self):
                    return 0
                @classmethod
                @lru_cache
                def build(cls, n):
                    return cls()
        """)
        assert [(f.rule, f.line) for f in findings] == \
            [("RPR009", 4), ("RPR009", 7), ("RPR009", 11)]

    def test_clean_cache_uses(self):
        findings = run("""
            import functools
            from functools import cached_property, lru_cache
            @lru_cache(maxsize=None)
            def size(tiers_per_level, i):
                return i
            class Tier:
                @staticmethod
                @functools.cache
                def pure(i):
                    return i
                @cached_property
                def digest(self):
                    return 0
                def __init__(self):
                    self._cache = {}
                    self._pure = lru_cache(maxsize=None)(size)
                    def local():
                        return 1
        """)
        assert findings == []


class TestSuppressions:
    def test_parse(self):
        sup = parse_suppressions(
            "a = 1\n"
            "b = open('x')  # repro: allow[RPR004]\n"
            "c = 2  # repro: allow[RPR001, RPR004]\n")
        assert sup == {2: {"RPR004"}, 3: {"RPR001", "RPR004"}}

    def test_matching_id_suppresses(self):
        findings = run("""
            fh = open("x.txt")  # repro: allow[RPR004] host artifact
        """)
        assert findings == []

    def test_wrong_id_does_not_suppress(self):
        findings = run("""
            fh = open("x.txt")  # repro: allow[RPR001] mislabeled
        """)
        assert rules_of(findings) == {"RPR004"}

    def test_multiline_statement_covered_by_last_line(self):
        findings = run("""
            fh = open(
                "x.txt")  # repro: allow[RPR004] host artifact
        """)
        assert findings == []


class TestSchedulerPackage:
    """The traffic scheduler is determinism-critical: a wall clock or an
    unseeded draw in an arrival generator silently de-determinizes every
    schedule downstream.  The linter must police ``repro/sched`` like
    any engine module — no special-case exemption."""

    SCHED = "src/repro/sched/arrivals.py"

    def test_flags_wall_clock_in_arrival_generator(self):
        findings = run("""
            import time
            def poisson_arrivals(rate, n):
                start = time.time()
                return [start + i / rate for i in range(n)]
            """, path=self.SCHED)
        assert rules_of(findings) == {"RPR001"}

    def test_flags_unseeded_interarrival_draws(self):
        findings = run("""
            import random
            def gaps(rate, n):
                return [random.expovariate(rate) for _ in range(n)]
            def jitter():
                return random.Random().random()
            """, path=self.SCHED)
        assert [f.rule for f in findings] == ["RPR002", "RPR002"]

    def test_flags_newly_covered_variates(self):
        """The rule knows the full ``random`` variate family — the
        thinning sampler could plausibly reach for any of them."""
        findings = run("""
            import random
            a = random.paretovariate(2.0)
            b = random.weibullvariate(1.0, 1.5)
            c = random.gammavariate(2.0, 0.5)
            """, path=self.SCHED)
        assert [f.rule for f in findings] == ["RPR002"] * 3

    def test_clean_seeded_generator_passes(self):
        findings = run("""
            import random
            def poisson_arrivals(rate, n, rng):
                t = 0.0
                out = []
                for _ in range(n):
                    t += rng.expovariate(rate)
                    out.append(int(t))
                return out
            rng = random.Random(42)
            """, path=self.SCHED)
        assert findings == []

    def test_real_sched_package_is_clean(self):
        sched_dir = os.path.join(REPO_SRC, "sched")
        files = iter_python_files([sched_dir])
        assert len(files) >= 4  # loop, arrivals, admission, traffic
        assert lint_paths([sched_dir]) == []


class TestEngineAndReport:
    def test_rule_ids_unique_and_documented(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 6
        for cls in ALL_RULES:
            assert cls.__doc__ and cls.rule_id in cls.__doc__

    def test_repo_source_tree_is_clean(self):
        assert lint_paths([REPO_SRC]) == []

    def test_repo_examples_are_clean(self):
        assert lint_paths([REPO_EXAMPLES]) == []

    def test_iter_python_files_sorted_and_filtered(self):
        files = iter_python_files([REPO_SRC])
        assert files == sorted(files)
        assert all(f.endswith(".py") for f in files)
        assert not any("__pycache__" in f for f in files)

    def test_json_report_shape(self):
        findings = run("import time\nx = time.time()\n")
        doc = json.loads(render_json(findings, files_scanned=1))
        assert doc["version"] == 1
        assert doc["files_scanned"] == 1
        assert doc["rules"]["RPR001"]
        assert doc["findings"][0]["rule"] == "RPR001"
        assert doc["findings"][0]["line"] == 2

    def test_finding_format(self):
        finding = run("x = time.time()")[0]
        assert finding.format().startswith("src/repro/fake.py:1:5: RPR001")
