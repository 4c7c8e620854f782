"""Tests for the repro.obs tracing/metrics subsystem and its exporters."""

import json

import pytest

from repro import obs
from repro.db import BlobDB, EngineConfig
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.clock import VirtualClock


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def traced_db():
    db = BlobDB(small_config())
    db.create_table("t")
    tracer = obs.attach(db.model)
    return db, tracer


def run_small_workload(db):
    with db.transaction() as txn:
        db.put_blob(txn, "t", b"a", b"x" * 200_000)
        db.put_blob(txn, "t", b"b", b"y" * 5_000)
    assert db.read_blob("t", b"a") == b"x" * 200_000
    with db.transaction() as txn:
        db.delete_blob(txn, "t", b"b")


class TestMetrics:
    def test_counter_labels_accumulate_separately(self):
        c = Counter("bytes")
        c.add(10, category="wal")
        c.add(5, category="data")
        c.add(7, category="wal")
        assert c.get(category="wal") == 17
        assert c.get(category="data") == 5
        assert c.get(category="meta") == 0
        assert c.total() == 22

    def test_counter_as_dict_is_sorted_and_stable(self):
        c = Counter("x")
        c.add(1, b="2", a="1")
        c.add(3)
        assert c.as_dict() == {"_": 3, "a=1,b=2": 1}

    def test_histogram_percentiles_are_deterministic(self):
        h = Histogram("lat")
        for v in [100, 200, 400, 800, 100_000]:
            h.observe(v)
        assert h.count == 5
        assert h.min == 100
        assert h.max == 100_000
        # p50 lands in the bucket holding the 3rd rank; clamped to data.
        assert h.percentile(0.5) == h.percentile(0.5)
        assert h.min <= h.percentile(0.5) <= h.max
        assert h.percentile(0.0) == h.min
        assert h.percentile(1.0) == h.max
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_empty_summary(self):
        s = Histogram("empty").summary()
        assert s["count"] == 0 and s["p99"] == 0
        assert s["p999"] == 0

    def test_histogram_p999_on_skewed_fill(self):
        """p999 resolves the far tail: a 1-in-1000 outlier must pull
        p999 beyond p99 (the tail the traffic simulator gates on)."""
        h = Histogram("tail")
        for _ in range(1000):
            h.observe(100)
        for _ in range(5):  # 0.5% tail mass: p999 sees it, p99 cannot
            h.observe(50_000_000)
        s = h.summary()
        assert set(s) >= {"p50", "p95", "p99", "p999"}
        assert s["p999"] >= s["p99"] >= s["p95"] >= s["p50"]
        assert s["p999"] > s["p99"]
        assert s["p999"] <= h.max

    def test_histogram_overflow_bucket(self):
        h = Histogram("big", bounds=(10, 100))
        h.observe(5)
        h.observe(1_000_000)
        assert h.overflow == 1
        assert h.percentile(1.0) == 1_000_000

    def test_registry_reuses_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        d = reg.as_dict()
        assert set(d) == {"counters", "histograms"}


class TestTracer:
    def make(self, **kw):
        clock = VirtualClock()
        return clock, Tracer(clock, **kw)

    def test_nested_spans_parent_child_time(self):
        clock, tr = self.make()
        tr.begin("outer")
        clock.advance(100)
        tr.begin("inner")
        clock.advance(40)
        tr.end()
        clock.advance(10)
        tr.end(tag="done")
        assert tr.depth == 0
        outer = [e for e in tr.events if e.name == "outer"][0]
        inner = [e for e in tr.events if e.name == "inner"][0]
        assert inner.path == "outer;inner"
        assert inner.dur_ns == 40
        assert outer.dur_ns == 150
        assert outer.self_ns == 110  # 150 total minus 40 traced child
        assert outer.args == {"tag": "done"}

    def test_span_context_manager_balances_on_error(self):
        clock, tr = self.make()
        with pytest.raises(RuntimeError):
            with tr.span("risky"):
                clock.advance(5)
                raise RuntimeError("boom")
        assert tr.depth == 0
        assert tr.events[0].dur_ns == 5

    def test_end_without_begin_raises(self):
        _, tr = self.make()
        with pytest.raises(RuntimeError):
            tr.end()

    def test_capture_off_feeds_histograms_only(self):
        clock, tr = self.make(capture=False)
        with tr.span("work"):
            clock.advance(1000)
        tr.instant("ping")
        assert tr.events == []
        assert tr.metrics.histogram("span.work").count == 1

    def test_max_events_drops_beyond_cap(self):
        _, tr = self.make(max_events=3)
        for _ in range(5):
            tr.instant("tick")
        assert len(tr.events) == 3
        assert tr.dropped_events == 2

    def test_span_totals_aggregates(self):
        clock, tr = self.make()
        for _ in range(3):
            with tr.span("op"):
                clock.advance(10)
        totals = tr.span_totals()
        assert totals["op"] == {"calls": 3, "total_ns": 30, "self_ns": 30}


class TestInstrumentedEngine:
    def test_nullable_tracer_default_off(self):
        db = BlobDB(small_config())
        assert db.model.obs is None  # fast path: no tracer allocated
        db.create_table("t")
        run_small_workload(db)  # must run fine uninstrumented

    def test_spans_cover_hot_layers(self):
        db, tracer = traced_db()
        run_small_workload(db)
        db.checkpoint()
        names = {e.name for e in tracer.events}
        assert {"txn.commit", "wal.append", "wal.flush", "device.submit",
                "db.put_blob", "db.read_blob", "db.delete_blob",
                "db.checkpoint"} <= names
        assert tracer.depth == 0  # every begin matched by an end
        counters = tracer.metrics.counters
        assert counters["txn.commits"].total() == 2
        assert counters["wal.records"].total() > 0
        assert counters["device.write_bytes"].get(category="wal") > 0
        assert counters["device.write_bytes"].get(category="data") > 0

    def test_alloc_and_pool_instrumentation(self):
        db, tracer = traced_db()
        run_small_workload(db)
        kinds = tracer.metrics.counters["alloc.extents"]
        assert kinds.total() == kinds.get(kind="fresh") + \
            kinds.get(kind="reused")
        assert kinds.total() > 0
        instants = [e for e in tracer.events if e.name == "alloc.extent"]
        assert instants and instants[0].dur_ns is None
        assert "tier" in instants[0].args

    def test_recovery_phases_traced(self):
        db, _ = traced_db()
        run_small_workload(db)
        db.checkpoint()
        device = db.crash()
        tracer = obs.attach(device.model)
        recovered = BlobDB.recover(device, db.config)
        assert recovered.read_blob("t", b"a") == b"x" * 200_000
        names = {e.name for e in tracer.events}
        assert {"recovery", "recovery.snapshot", "recovery.wal_scan",
                "recovery.analysis", "recovery.redo"} <= names
        recovery = [e for e in tracer.events if e.name == "recovery"][0]
        assert recovery.dur_ns >= 0
        assert tracer.depth == 0
        info = recovered.recovery_info
        analysis = [e for e in tracer.events
                    if e.name == "recovery.analysis"][0]
        assert analysis.args["validated"] == info.blobs_validated > 0
        assert analysis.args["read_requests"] == info.validation_read_requests
        assert analysis.args["bytes_read"] == info.validation_bytes_read > 0
        counters = tracer.metrics.counters
        assert counters["recovery.validated"].total() == info.blobs_validated
        assert counters["recovery.validate_reads"].total() \
            == info.validation_read_requests

    def test_spans_balanced_across_occ_abort(self):
        from repro.db.errors import TransactionConflict
        db, tracer = traced_db()
        with db.transaction() as t1:
            db.put_blob(t1, "t", b"k", b"v" * 100)
        txn_a = db.begin()
        txn_b = db.begin()
        db.delete_blob(txn_a, "t", b"k")
        db.put_blob(txn_a, "t", b"k", b"a" * 100)
        db.commit(txn_a)
        try:
            db.delete_blob(txn_b, "t", b"k")
            db.put_blob(txn_b, "t", b"k", b"b" * 100)
            db.commit(txn_b)
        except TransactionConflict:
            db.abort(txn_b)
        assert tracer.depth == 0


class TestExporters:
    def test_chrome_trace_is_valid_and_loadable_shape(self):
        db, tracer = traced_db()
        run_small_workload(db)
        doc = json.loads(obs.to_chrome_trace(tracer, label="unit"))
        assert doc["otherData"]["clock"] == "virtual-ns"
        assert doc["otherData"]["label"] == "unit"
        events = doc["traceEvents"]
        assert events
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert complete and all(
            {"name", "ts", "dur", "pid", "tid"} <= set(e) for e in complete)
        for e in instants:
            assert "dur" not in e
        assert "metrics" in doc

    def test_collapsed_stacks_nesting_and_sorted(self):
        db, tracer = traced_db()
        run_small_workload(db)
        lines = obs.to_collapsed_stacks(tracer).splitlines()
        assert lines == sorted(lines)
        paths = {line.rsplit(" ", 1)[0] for line in lines}
        assert any(p.startswith("txn.commit;wal.flush") for p in paths)
        for line in lines:
            assert int(line.rsplit(" ", 1)[1]) >= 0

    def test_byte_identical_across_runs(self):
        def one_run():
            db, tracer = traced_db()
            run_small_workload(db)
            db.checkpoint()
            return obs.to_chrome_trace(tracer, label="det")
        assert one_run() == one_run()

    def test_span_summary_formats(self):
        db, tracer = traced_db()
        run_small_workload(db)
        text = obs.format_span_summary(tracer)
        assert "txn.commit" in text and "calls" in text
